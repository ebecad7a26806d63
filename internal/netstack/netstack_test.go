package netstack_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// toyDriver loads a minimal network driver module against the stack: it
// allocates a net_device, installs an ops table in its data section, and
// transmits by counting.
type toyDriver struct {
	m    *core.Module
	dev  mem.Addr
	sent int
	busy bool
}

func loadToyDriver(t *testing.T, k *kernel.Kernel, s *netstack.Stack) *toyDriver {
	t.Helper()
	d := &toyDriver{}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "toynet",
		Imports:  []string{"alloc_etherdev", "register_netdev", "netif_rx", "alloc_skb", "kfree_skb"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "xmit", Type: netstack.NdoStartXmit,
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if d.busy {
						return netstack.NetdevTxBusy
					}
					// Driver touches the payload (it owns skb caps now).
					skb := mem.Addr(args[0])
					data, _ := th.ReadU64(s.SkbField(skb, "data"))
					if err := th.WriteU8(mem.Addr(data), 0xEE); err != nil {
						return ^uint64(0)
					}
					d.sent++
					return 0
				},
			},
			{
				Name: "setup", Params: []core.Param{core.P("arg", "u64")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					dev, err := th.CallKernel("alloc_etherdev")
					if err != nil || dev == 0 {
						return 1
					}
					d.dev = mem.Addr(dev)
					mod := th.CurrentModule()
					ops := mod.Data // ops table at start of .data
					xmit := mod.Funcs["xmit"].Addr
					if err := th.WriteU64(s.OpsSlot(ops, "ndo_start_xmit"), uint64(xmit)); err != nil {
						return 2
					}
					if err := th.WriteU64(s.DevField(d.dev, "ops"), uint64(ops)); err != nil {
						return 3
					}
					if ret, err := th.CallKernel("register_netdev", dev); err != nil || kernel.IsErr(ret) {
						return 4
					}
					return 0
				},
			},
			{
				Name: "rx_inject", Params: []core.Param{core.P("n", "u64")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					skb, err := th.CallKernel("alloc_skb", 64)
					if err != nil || skb == 0 {
						return 1
					}
					if err := th.WriteU64(s.SkbField(mem.Addr(skb), "len"), args[0]); err != nil {
						return 2
					}
					if ret, err := th.CallKernel("netif_rx", skb); err != nil || kernel.IsErr(ret) {
						return 3
					}
					// After the transfer, the driver must have lost write
					// access to the packet.
					if err := th.WriteU64(s.SkbField(mem.Addr(skb), "len"), 0); err == nil {
						return 4 // write should have failed under enforcement
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.m = m
	return d
}

func newStack(t *testing.T, mode core.Mode) (*kernel.Kernel, *netstack.Stack, *core.Thread) {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	s := netstack.Init(k)
	return k, s, k.Sys.NewThread("net")
}

func TestDriverSetupAndXmit(t *testing.T) {
	k, s, th := newStack(t, core.Enforce)
	d := loadToyDriver(t, k, s)
	if ret, err := th.CallModule(d.m, "setup", 0); err != nil || ret != 0 {
		t.Fatalf("setup: ret=%d err=%v", ret, err)
	}

	skb, err := s.AllocSkb(128)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := s.XmitSkb(th, d.dev, skb)
	if err != nil || ret != 0 {
		t.Fatalf("xmit: ret=%d err=%v", ret, err)
	}
	if d.sent != 1 {
		t.Fatalf("sent = %d", d.sent)
	}
	// The driver wrote the payload marker through its granted capability.
	data, _ := k.Sys.AS.ReadU64(s.SkbField(skb, "data"))
	b, _ := k.Sys.AS.ReadU8(mem.Addr(data))
	if b != 0xEE {
		t.Fatalf("payload marker = %#x", b)
	}
}

func TestXmitBusyReturnsOwnership(t *testing.T) {
	k, s, th := newStack(t, core.Enforce)
	d := loadToyDriver(t, k, s)
	if ret, err := th.CallModule(d.m, "setup", 0); err != nil || ret != 0 {
		t.Fatalf("setup: ret=%d err=%v", ret, err)
	}
	d.busy = true
	skb, _ := s.AllocSkb(64)
	ret, err := s.XmitSkb(th, d.dev, skb)
	if err != nil || ret != netstack.NetdevTxBusy {
		t.Fatalf("busy xmit: ret=%d err=%v", ret, err)
	}
	// post(if (return == NETDEV_TX_BUSY) transfer(skb_caps(skb))): the
	// kernel got the skb capabilities back; the driver retains none. A
	// fresh kernel-side write must succeed (kernel is trusted anyway),
	// but the key check: the driver module no longer holds the caps.
	if k.Sys.Caps.Check(d.m.Set.Shared(), caps.WriteCap(skb, 8)) {
		t.Fatal("driver retained skb capability after NETDEV_TX_BUSY")
	}
}

func TestNetifRxTransferRevokes(t *testing.T) {
	k, s, th := newStack(t, core.Enforce)
	d := loadToyDriver(t, k, s)
	_, _ = th.CallModule(d.m, "setup", 0)
	// The module's post-transfer write attempt is a violation: it gets
	// blocked and the module is killed, which the wrapper reports.
	ret, err := th.CallModule(d.m, "rx_inject", 640)
	if ret != 0 {
		t.Fatalf("rx_inject: ret=%d (4 means post-transfer write was NOT blocked)", ret)
	}
	if !errors.Is(err, core.ErrModuleDead) {
		t.Fatalf("expected module kill after post-transfer write, got %v", err)
	}
	if s.BacklogLen() != 1 {
		t.Fatalf("backlog = %d", s.BacklogLen())
	}
	skb := s.PopRx()
	n, _ := k.Sys.AS.ReadU64(s.SkbField(skb, "len"))
	if n != 640 {
		t.Fatalf("len = %d", n)
	}
	if s.PopRx() != 0 {
		t.Fatal("backlog should be empty")
	}
	if k.Sys.Mon.LastViolation() == nil {
		t.Fatal("expected a logged violation for the post-transfer write")
	}
}

func TestNapiAddRequiresOwnCallable(t *testing.T) {
	k, s, th := newStack(t, core.Enforce)
	d := loadToyDriver(t, k, s)
	_, _ = th.CallModule(d.m, "setup", 0)

	// A second module trying to register a poll function pointing at the
	// first module's code: check(call, poll) fails.
	evil, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "evilnet",
		Imports:  []string{"netif_napi_add", "alloc_etherdev"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{{
			Name: "attack", Params: []core.Param{core.P("target", "u64")},
			Impl: func(th *core.Thread, args []uint64) uint64 {
				dev, _ := th.CallKernel("alloc_etherdev")
				if dev == 0 {
					return 9
				}
				if _, err := th.CallKernel("netif_napi_add", dev, args[0]); err != nil {
					return 1 // blocked
				}
				return 0
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	foreign := d.m.Funcs["xmit"].Addr
	ret, _ := th.CallModule(evil, "attack", uint64(foreign))
	if ret != 1 {
		t.Fatal("module registered a poll callback it cannot call itself")
	}
}

func TestSocketFamilyLifecycle(t *testing.T) {
	k, s, th := newStack(t, core.Enforce)
	var privWrites int
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "toyproto",
		Imports:  []string{"sock_register", "kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "create", Type: netstack.FamilyCreate,
				Impl: func(th *core.Thread, args []uint64) uint64 {
					sock := mem.Addr(args[0])
					mod := th.CurrentModule()
					// The copy(write, sock) annotation lets the module
					// fill in sock->ops.
					if err := th.WriteU64(s.SockField(sock, "ops"), uint64(mod.Data)); err != nil {
						return kernel.Err(kernel.EFAULT)
					}
					return 0
				},
			},
			{
				Name: "sendmsg", Type: netstack.OpsSendmsg,
				Impl: func(th *core.Thread, args []uint64) uint64 {
					privWrites++
					return args[2] // bytes "sent"
				},
			},
			{
				Name: "init", Params: nil,
				Impl: func(th *core.Thread, args []uint64) uint64 {
					mod := th.CurrentModule()
					// proto_ops table in .data: install sendmsg.
					if err := th.WriteU64(s.ProtoOpsSlot(mod.Data, "sendmsg"),
						uint64(mod.Funcs["sendmsg"].Addr)); err != nil {
						return 1
					}
					if ret, err := th.CallKernel("sock_register", 42,
						uint64(mod.Funcs["create"].Addr)); err != nil || kernel.IsErr(ret) {
						return 2
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ret, err := th.CallModule(m, "init"); err != nil || ret != 0 {
		t.Fatalf("init: ret=%d err=%v", ret, err)
	}
	sock, err := s.Socket(th, 42)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Sendmsg(th, sock, mem.UserHeap, 100, 0)
	if err != nil || n != 100 {
		t.Fatalf("sendmsg: n=%d err=%v", n, err)
	}
	if privWrites != 1 {
		t.Fatal("module sendmsg did not run")
	}
	if _, err := s.Socket(th, 7); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestSocketOpsRedirectBlocked(t *testing.T) {
	// A module-writable proto_ops slot redirected to a function the
	// module may not call is rejected at the kernel's indirect call.
	k, s, th := newStack(t, core.Enforce)
	var m *core.Module
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "toyproto",
		Imports:  []string{"sock_register"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "create", Type: netstack.FamilyCreate,
				Impl: func(th *core.Thread, args []uint64) uint64 {
					_ = th.WriteU64(s.SockField(mem.Addr(args[0]), "ops"), uint64(th.CurrentModule().Data))
					return 0
				},
			},
			{
				Name: "init",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					mod := th.CurrentModule()
					_, _ = th.CallKernel("sock_register", 42, uint64(mod.Funcs["create"].Addr))
					return 0
				},
			},
			{
				Name: "corrupt", Params: []core.Param{core.P("target", "u64")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					_ = th.WriteU64(s.ProtoOpsSlot(th.CurrentModule().Data, "ioctl"), args[0])
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = th.CallModule(m, "init")
	sock, err := s.Socket(th, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Redirect ioctl to detach_pid (an exported kernel symbol the module
	// has no CALL capability for) — the rootkit move from §8.1.
	detach, _ := k.Sys.FuncByName("detach_pid")
	if ret, err := th.CallModule(m, "corrupt", uint64(detach.Addr)); err != nil || ret != 0 {
		t.Fatalf("corrupt: ret=%d err=%v", ret, err)
	}
	if _, err := s.Ioctl(th, sock, 1, 2); !errors.Is(err, core.ErrViolation) {
		t.Fatalf("redirected ioctl not blocked: %v", err)
	}
}

func TestStockXmitUninstrumented(t *testing.T) {
	k, s, th := newStack(t, core.Off)
	d := loadToyDriver(t, k, s)
	if ret, err := th.CallModule(d.m, "setup", 0); err != nil || ret != 0 {
		t.Fatalf("setup: ret=%d err=%v", ret, err)
	}
	skb, _ := s.AllocSkb(64)
	before := k.Sys.Mon.Stats.Snapshot()
	if ret, err := s.XmitSkb(th, d.dev, skb); err != nil || ret != 0 {
		t.Fatalf("xmit: ret=%d err=%v", ret, err)
	}
	delta := k.Sys.Mon.Stats.Snapshot().Sub(before)
	if delta.IndCallAll != 0 || delta.AnnotationActions != 0 {
		t.Fatalf("stock mode ran guards: %+v", delta)
	}
}

// TestRetargetedSkbReleasesAllocatedPayload: a driver holding WRITE
// over an skb it got from alloc_skb can point head at a buffer of its
// own, clear head, or zero truesize before handing the skb back. Neither
// kfree_skb nor netif_rx (and the consumer's free after PopRx) may then
// leave the driver WRITE over the payload the kernel frees, or free or
// revoke the driver's own buffer: the transfer and the free both name
// the payload AllocSkb allocated.
func TestRetargetedSkbReleasesAllocatedPayload(t *testing.T) {
	retargets := []struct {
		name      string
		field     string // the field the driver rewrites
		ownBuffer bool   // to its own buffer's address; else to 0
	}{
		{name: "head=own", field: "head", ownBuffer: true},
		{name: "head=0", field: "head"},
		{name: "truesize=0", field: "truesize"},
	}
	for _, release := range []string{"kfree_skb", "netif_rx"} {
		for _, rt := range retargets {
			t.Run(release+"/"+rt.name, func(t *testing.T) {
				k, s, th := newStack(t, core.Enforce)
				var skb, payload, own uint64
				m, err := k.Sys.LoadModule(core.ModuleSpec{
					Name:    "skbretarget",
					Imports: []string{"alloc_skb", "kfree_skb", "netif_rx", "kmalloc"},
					Funcs: []core.FuncSpec{{
						Name: "run",
						Impl: func(th *core.Thread, _ []uint64) uint64 {
							var err error
							if skb, err = th.CallKernel("alloc_skb", 64); err != nil || skb == 0 {
								return 1
							}
							if payload, err = th.ReadU64(s.SkbField(mem.Addr(skb), "head")); err != nil {
								return 2
							}
							var v uint64
							if rt.ownBuffer {
								if own, err = th.CallKernel("kmalloc", 64); err != nil || own == 0 {
									return 3
								}
								v = own
							}
							if err := th.WriteU64(s.SkbField(mem.Addr(skb), rt.field), v); err != nil {
								return 4
							}
							if _, err := th.CallKernel(release, skb); err != nil {
								return 5
							}
							return 0
						},
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if ret, err := th.CallModule(m, "run"); err != nil || ret != 0 {
					t.Fatalf("run: ret=%d err=%v", ret, err)
				}
				if release == "netif_rx" {
					got := s.PopRx()
					if got != mem.Addr(skb) {
						t.Fatalf("PopRx = %#x, want %#x", uint64(got), skb)
					}
					s.FreeSkb(got)
				}
				drv := m.Set.Shared()
				if k.Sys.Caps.Check(drv, caps.WriteCap(mem.Addr(payload), 1)) {
					t.Fatal("driver kept WRITE over the skb's allocated payload")
				}
				if k.Sys.Slab.Owns(mem.Addr(payload)) || k.Sys.Slab.Owns(mem.Addr(skb)) {
					t.Fatal("the skb or its allocated payload leaked")
				}
				if rt.ownBuffer {
					if !k.Sys.Slab.Owns(mem.Addr(own)) {
						t.Fatal("the kernel freed the driver's own buffer")
					}
					if !k.Sys.Caps.Check(drv, caps.WriteCap(mem.Addr(own), 64)) {
						t.Fatal("the driver lost WRITE over its own buffer")
					}
				}
				if v := k.Sys.Mon.LastViolation(); v != nil {
					t.Fatalf("violation: %v", v)
				}
			})
		}
	}
}

// TestConcurrentBacklogKeepsOrder: two threads hand packets to netif_rx
// while the test pops the backlog, which closes up in place on every
// pop. Every packet arrives once, and each sender's packets arrive in
// the order it sent them. (Runs under -race in CI's concurrency
// battery.)
func TestConcurrentBacklogKeepsOrder(t *testing.T) {
	const perSender = 500
	k, s, _ := newStack(t, core.Enforce)
	sender := func(id uint64) *core.ThreadHandle {
		return k.Sys.Spawn("rx", func(th *core.Thread) {
			for seq := uint64(0); seq < perSender; seq++ {
				skb, err := s.AllocSkb(8)
				if err == nil {
					err = k.Sys.AS.WriteU64(s.SkbField(skb, "len"), id<<32|seq)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if ret, err := th.CallKernel("netif_rx", uint64(skb)); err != nil || kernel.IsErr(ret) {
					t.Errorf("netif_rx: ret=%d err=%v", int64(ret), err)
					return
				}
			}
		})
	}
	senders := []*core.ThreadHandle{sender(0), sender(1)}
	var next [2]uint64
	deadline := time.Now().Add(10 * time.Second)
	for got := 0; got < 2*perSender; {
		skb := s.PopRx()
		if skb == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("backlog delivered %d of %d packets", got, 2*perSender)
			}
			runtime.Gosched()
			continue
		}
		v, _ := k.Sys.AS.ReadU64(s.SkbField(skb, "len"))
		id, seq := v>>32, v&(1<<32-1)
		if id > 1 || seq != next[id] {
			t.Fatalf("popped sender %d's packet %d, want its packet %d", id, seq, next[id%2])
		}
		next[id]++
		s.FreeSkb(skb)
		got++
	}
	for _, h := range senders {
		h.Join()
	}
	if n := s.BacklogLen(); n != 0 {
		t.Fatalf("%d packets left in the backlog", n)
	}
}
