package e1000sim_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules/e1000sim"
	"lxfi/internal/netstack"
	"lxfi/internal/pci"
)

type rig struct {
	k     *kernel.Kernel
	bus   *pci.Bus
	stack *netstack.Stack
	th    *core.Thread
	drv   *e1000sim.Driver
}

func newRig(t *testing.T, mode core.Mode) *rig {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bus := pci.Init(k)
	stack := netstack.Init(k)
	bus.AddDevice(e1000sim.VendorIntel, e1000sim.Dev82540EM)
	th := k.Sys.NewThread("net")
	drv, err := e1000sim.Load(th, k, bus, stack)
	if err != nil {
		t.Fatalf("load e1000sim: %v", err)
	}
	return &rig{k: k, bus: bus, stack: stack, th: th, drv: drv}
}

func TestProbeBindsAndEnables(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		if r.drv.Dev == 0 {
			t.Fatalf("[%v] no net_device", mode)
		}
		dev := r.bus.Devices()[0]
		if dev.Module != "e1000" {
			t.Fatalf("[%v] device not bound: %+v", mode, dev)
		}
		if !r.bus.Enabled(dev) {
			t.Fatalf("[%v] device not enabled", mode)
		}
	}
}

func TestTransmitPath(t *testing.T) {
	r := newRig(t, core.Enforce)
	var wire [][]byte
	r.drv.Nic.OnTx = func(f []byte) { wire = append(wire, append([]byte(nil), f...)) }

	payload := []byte("GET / HTTP/1.1\r\n")
	skb, err := r.stack.AllocSkb(uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
	if err := r.k.Sys.AS.Write(mem.Addr(data), payload); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Sys.AS.WriteU64(r.stack.SkbField(skb, "len"), uint64(len(payload))); err != nil {
		t.Fatal(err)
	}

	ret, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb)
	if err != nil || ret != 0 {
		t.Fatalf("xmit: ret=%d err=%v", ret, err)
	}
	if len(wire) != 1 || !bytes.Equal(wire[0], payload) {
		t.Fatalf("wire = %q", wire)
	}
	if r.drv.Nic.TxFrames != 1 || r.drv.Nic.TxBytes != uint64(len(payload)) {
		t.Fatalf("nic counters: %d frames, %d bytes", r.drv.Nic.TxFrames, r.drv.Nic.TxBytes)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestReceivePath(t *testing.T) {
	r := newRig(t, core.Enforce)
	for i := 0; i < 5; i++ {
		r.drv.Nic.InjectRx([]byte{0xAB, byte(i)})
	}
	done, err := r.stack.Poll(r.th, r.drv.Dev, 3)
	if err != nil || done != 3 {
		t.Fatalf("poll: done=%d err=%v", done, err)
	}
	if r.stack.BacklogLen() != 3 {
		t.Fatalf("backlog = %d", r.stack.BacklogLen())
	}
	done, err = r.stack.Poll(r.th, r.drv.Dev, 64)
	if err != nil || done != 2 {
		t.Fatalf("second poll: done=%d err=%v", done, err)
	}
	skb := r.stack.PopRx()
	data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
	b, _ := r.k.Sys.AS.ReadBytes(mem.Addr(data), 2)
	if !bytes.Equal(b, []byte{0xAB, 0}) {
		t.Fatalf("rx payload = %v", b)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestTxRxSymmetryStockVsLxfi(t *testing.T) {
	// The functional behaviour must be identical in both modes; only the
	// guard counts differ.
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		before := r.k.Sys.Mon.Stats.Snapshot()
		for i := 0; i < 10; i++ {
			skb, _ := r.stack.AllocSkb(64)
			if _, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb); err != nil {
				t.Fatalf("[%v] xmit %d: %v", mode, i, err)
			}
		}
		if r.drv.Nic.TxFrames != 10 {
			t.Fatalf("[%v] tx = %d", mode, r.drv.Nic.TxFrames)
		}
		d := r.k.Sys.Mon.Stats.Snapshot().Sub(before)
		if mode == core.Off && d.MemWriteChecks != 0 {
			t.Fatalf("stock ran %d write guards", d.MemWriteChecks)
		}
		if mode == core.Enforce && d.MemWriteChecks == 0 {
			t.Fatal("lxfi ran no write guards")
		}
	}
}

func TestIRQDelivery(t *testing.T) {
	r := newRig(t, core.Enforce)
	dev := r.bus.Devices()[0]
	r.bus.RaiseIRQ(r.th, dev)
	r.bus.RaiseIRQ(r.th, dev)
	if r.drv.Nic.IRQs != 2 {
		t.Fatalf("irqs = %d", r.drv.Nic.IRQs)
	}
}

func TestOpenStop(t *testing.T) {
	r := newRig(t, core.Enforce)
	ops, _ := r.k.Sys.AS.ReadU64(r.stack.DevField(r.drv.Dev, "ops"))
	openSlot := r.stack.OpsSlot(mem.Addr(ops), "ndo_open")
	if _, err := r.th.IndirectCall(openSlot, netstack.NdoOpen, uint64(r.drv.Dev)); err != nil {
		t.Fatal(err)
	}
	if !r.drv.Opened() {
		t.Fatal("open did not run")
	}
	stopSlot := r.stack.OpsSlot(mem.Addr(ops), "ndo_stop")
	if _, err := r.th.IndirectCall(stopSlot, netstack.NdoStop, uint64(r.drv.Dev)); err != nil {
		t.Fatal(err)
	}
	if r.drv.Opened() {
		t.Fatal("stop did not run")
	}
}

func TestProbeFailsWithoutDevice(t *testing.T) {
	k := kernel.New()
	bus := pci.Init(k)
	stack := netstack.Init(k)
	th := k.Sys.NewThread("t")
	if _, err := e1000sim.Load(th, k, bus, stack); err == nil {
		t.Fatal("load without a matching PCI device should fail")
	}
}

// echoWire wires the NIC to a peer that sends every transmitted frame
// straight back; InjectRx copies it into a NIC buffer.
func (r *rig) echoWire() {
	nic := r.drv.Nic
	nic.OnTx = func(f []byte) { nic.InjectRx(f) }
}

// TestPacketRoundTripAllocationFree: a warm per-packet round trip —
// AllocSkb, XmitSkb, Poll, PopRx, FreeSkb — allocates nothing. Frame
// bytes move through NIC-owned buffers and the qdisc and backlog keep
// their arrays.
func TestPacketRoundTripAllocationFree(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		r.echoWire()
		round := func() {
			skb, err := r.stack.AllocSkb(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.k.Sys.AS.WriteU64(r.stack.SkbField(skb, "len"), 64); err != nil {
				t.Fatal(err)
			}
			if ret, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb); err != nil || ret != 0 {
				t.Fatalf("xmit: ret=%d err=%v", ret, err)
			}
			if done, err := r.stack.Poll(r.th, r.drv.Dev, 1); err != nil || done != 1 {
				t.Fatalf("poll: done=%d err=%v", done, err)
			}
			rx := r.stack.PopRx()
			if rx == 0 {
				t.Fatal("no packet in the backlog")
			}
			r.stack.FreeSkb(rx)
		}
		for i := 0; i < 16; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Fatalf("[%v] warm per-packet round trip allocates %.2f allocs/op, want 0", mode, allocs)
		}
		if v := r.k.Sys.Mon.LastViolation(); v != nil {
			t.Fatalf("[%v] unexpected violation: %v", mode, v)
		}
	}
}

// TestBatchedRoundAllocationFree: a warm batched round — 8 × EnqueueTx,
// DrainTx, a batched Poll, then PopRx and FreeSkb for each — allocates
// nothing. The skbs are owned by the device principal, as stream's are.
func TestBatchedRoundAllocationFree(t *testing.T) {
	const batch = 8
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		r.echoWire()
		r.drv.Nic.SetBatchRx(true)
		owner := r.drv.M.Set.Instance(r.drv.Dev)
		round := func() {
			for i := 0; i < batch; i++ {
				skb, err := r.stack.AllocSkb(64)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.k.Sys.AS.WriteU64(r.stack.SkbField(skb, "len"), 64); err != nil {
					t.Fatal(err)
				}
				r.k.Sys.Caps.Grant(owner, caps.WriteCap(skb, r.stack.SkbSize()))
				if err := r.stack.EnqueueTx(r.th, r.drv.Dev, skb, owner); err != nil {
					t.Fatal(err)
				}
			}
			if consumed, denied, err := r.stack.DrainTx(r.th, r.drv.Dev, batch); err != nil || consumed != batch || denied != 0 {
				t.Fatalf("drain: consumed=%d denied=%d err=%v", consumed, denied, err)
			}
			if done, err := r.stack.Poll(r.th, r.drv.Dev, batch); err != nil || done != batch {
				t.Fatalf("poll: done=%d err=%v", done, err)
			}
			for i := 0; i < batch; i++ {
				rx := r.stack.PopRx()
				if rx == 0 {
					t.Fatalf("backlog ran dry at %d of %d", i, batch)
				}
				r.stack.FreeSkb(rx)
			}
		}
		for i := 0; i < 16; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Fatalf("[%v] warm batched round allocates %.2f allocs/op, want 0", mode, allocs)
		}
		if v := r.k.Sys.Mon.LastViolation(); v != nil {
			t.Fatalf("[%v] unexpected violation: %v", mode, v)
		}
	}
}

// frameFill is the payload pattern of frame seq from sender tag: every
// byte after the 9-byte header is a function of all three, so a frame
// that mixes two frames' bytes fails frameIntact.
func frameFill(tag byte, seq uint64, i int) byte { return tag ^ byte(seq) ^ byte(i*7) }

// frameIntact reports whether f is one whole frame as a sender wrote it.
func frameIntact(f []byte) bool {
	if len(f) < 9 {
		return false
	}
	tag, seq := f[0], binary.LittleEndian.Uint64(f[1:9])
	for i := 9; i < len(f); i++ {
		if f[i] != frameFill(tag, seq, i) {
			return false
		}
	}
	return true
}

// TestConcurrentFrameBuffersStayExclusive: two threads transmit
// distinct payload patterns through one NIC, the wire checks each frame
// and sends it back, and a third thread polls the echoes in and checks
// every received skb. Every frame on the wire and every skb must be
// byte-exact: a frame buffer handed to two users at once would mix
// their bytes (and, under -race, shows as a data race). The senders run
// in rounds of one TX ring's worth of frames, so they never claim the
// same descriptor slot.
func TestConcurrentFrameBuffersStayExclusive(t *testing.T) {
	const rounds, perSender = 10, e1000sim.TxRingEntries / 2
	r := newRig(t, core.Enforce)
	nic := r.drv.Nic
	var badWire, badRx, received atomic.Int64
	nic.OnTx = func(f []byte) {
		if !frameIntact(f) {
			badWire.Add(1)
		}
		nic.InjectRx(f)
	}
	sender := func(tag byte, size int, round uint64) func(*core.Thread) {
		return func(th *core.Thread) {
			for seq := round * perSender; seq < (round+1)*perSender; seq++ {
				skb, err := r.stack.AllocSkb(uint64(size))
				if err != nil {
					t.Error(err)
					return
				}
				f := make([]byte, size)
				f[0] = tag
				binary.LittleEndian.PutUint64(f[1:9], seq)
				for i := 9; i < size; i++ {
					f[i] = frameFill(tag, seq, i)
				}
				data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
				if err := r.k.Sys.AS.Write(mem.Addr(data), f); err != nil {
					t.Error(err)
					return
				}
				if err := r.k.Sys.AS.WriteU64(r.stack.SkbField(skb, "len"), uint64(size)); err != nil {
					t.Error(err)
					return
				}
				if ret, err := r.stack.XmitSkb(th, r.drv.Dev, skb); err != nil || ret != 0 {
					t.Errorf("xmit %c/%d: ret=%d err=%v", tag, seq, ret, err)
					return
				}
			}
		}
	}
	// Different sizes, so a reused buffer is sometimes too short and
	// sometimes longer than the frame it carries.
	txDone := make(chan struct{})
	go func() {
		defer close(txDone)
		for round := uint64(0); round < rounds; round++ {
			a := r.k.Sys.Spawn("tx-a", sender('a', 200, round))
			b := r.k.Sys.Spawn("tx-b", sender('b', 1500, round))
			a.Join()
			b.Join()
		}
	}()

	// The wire echoes inside XmitSkb, so once both senders are done
	// every echo is queued and the poller drains the rest and stops.
	poller := r.k.Sys.Spawn("napi", func(th *core.Thread) {
		var buf [1500]byte
		for {
			finished := false
			select {
			case <-txDone:
				finished = true
			default:
			}
			if _, err := r.stack.Poll(th, r.drv.Dev, 16); err != nil {
				t.Error(err)
				return
			}
			for skb := r.stack.PopRx(); skb != 0; skb = r.stack.PopRx() {
				data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
				n, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "len"))
				if n > uint64(len(buf)) || r.k.Sys.AS.Read(mem.Addr(data), buf[:n]) != nil || !frameIntact(buf[:n]) {
					badRx.Add(1)
				}
				received.Add(1)
				r.stack.FreeSkb(skb)
			}
			if finished && nic.RxPending() == 0 {
				return
			}
		}
	})
	poller.Join()
	if n := badWire.Load(); n != 0 {
		t.Errorf("%d frames on the wire mixed bytes of two frames", n)
	}
	if n := badRx.Load(); n != 0 {
		t.Errorf("%d received skbs mixed bytes of two frames", n)
	}
	if n := received.Load(); n != 2*rounds*perSender {
		t.Errorf("received %d frames, want %d", n, 2*rounds*perSender)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

// TestShutDownKernelIsCollected: once a kernel that loaded e1000 shuts
// down and its last reference goes, its memory is collected. The NIC
// lives on its PCI device, so a process-global registry must not pin
// the bus, and through the bus the kernel. The finalizer sits on the
// kernel's address space, which references nothing that points back.
func TestShutDownKernelIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		r := newRig(t, core.Enforce)
		r.echoWire()
		skb, _ := r.stack.AllocSkb(64)
		if _, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(r.k.Sys.AS, func(*mem.AddressSpace) { close(collected) })
		r.k.Shutdown()
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a shut-down e1000 kernel is still reachable")
}
