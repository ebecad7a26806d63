// Package netstack implements the simulated Linux network substrate:
// sk_buffs, net_devices with their ops tables, NAPI, a pfifo packet
// scheduler (qdisc), and the annotated kernel exports network modules
// use (alloc_skb, netif_rx, netif_napi_add, ...).
//
// The interfaces and their annotations follow Figures 1 and 4 of the
// paper; the TX path mirrors dev_queue_xmit (enqueue on the device's
// qdisc, dequeue, then an indirect call through the module-writable
// ndo_start_xmit slot — the per-packet "Kernel ind-call e1000" guard of
// Figure 13).
package netstack

import (
	"fmt"
	"sync"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

func init() {
	failpoint.Register("netstack.xmit")
	failpoint.Register("netstack.poll")
	failpoint.Register("netstack.xmit_batch")
}

// Layout names.
const (
	SkBuff    = "struct sk_buff"
	NetDevice = "struct net_device"
	NetDevOps = "struct net_device_ops"
	Socket    = "struct socket"
	ProtoOps  = "struct proto_ops"
	QdiscT    = "struct Qdisc"
)

// Function-pointer types (annotated interfaces).
const (
	NdoStartXmit = "net_device_ops.ndo_start_xmit"
	NdoOpen      = "net_device_ops.ndo_open"
	NdoStop      = "net_device_ops.ndo_stop"
	NapiPollType = "napi.poll"
	QdiscEnq     = "Qdisc.enqueue"
	QdiscDeq     = "Qdisc.dequeue"
	FamilyCreate = "net_proto_family.create"
	OpsRelease   = "proto_ops.release"
	OpsBind      = "proto_ops.bind"
	OpsSendmsg   = "proto_ops.sendmsg"
	OpsRecvmsg   = "proto_ops.recvmsg"
	OpsIoctl     = "proto_ops.ioctl"
)

// NetdevTxBusy is NETDEV_TX_BUSY: the driver could not take the packet
// and ownership of the skb returns to the caller (Fig. 4).
const NetdevTxBusy = 0x10

// Stack is the simulated network stack.
//
// Concurrency: worker threads drive different sockets simultaneously,
// so the stack's shared state is locked the way the VFS mounts are:
//
//   - regMu (RWMutex) guards the registries (families, devices,
//     napiPoll) — written at module init, read per operation;
//   - qmu guards the TX side: the qdisc queues, the per-device batch
//     arrays, and the enqueue-time owner records — short critical
//     sections, never held across a module crossing;
//   - backlogMu guards the RX side: the netif_rx backlog and the
//     RxDelivered counter. It is deliberately a different lock from
//     qmu so the TX drain loop and the NAPI poll/backlog path never
//     serialize against each other (they used to share one mutex);
//   - each socket created by Socket gets a per-instance operation lock
//     (sockMu/sockLocks): Sendmsg/Recvmsg/Bind/Ioctl/Release serialize
//     per socket, including the crossing into the module, so a
//     module's per-socket state sees one operation at a time while
//     different sockets run genuinely in parallel.
//
// Lock order: a socket's op lock → (regMu | qmu | backlogMu) →
// caps/core/mem internals. regMu, qmu, and backlogMu are leaves with
// respect to each other (never nested).
type Stack struct {
	K *kernel.Kernel

	skb   *layout.Struct
	ndev  *layout.Struct
	nops  *layout.Struct
	sock  *layout.Struct
	pops  *layout.Struct
	qdisc *layout.Struct

	regMu    sync.RWMutex
	families map[uint64]*family
	devices  []mem.Addr
	napiPoll map[mem.Addr]mem.Addr // dev -> kernel slot holding poll fn ptr

	qmu      sync.Mutex
	queues   map[mem.Addr][]uint64      // qdisc -> queued skb addrs
	txOwner  map[uint64]*caps.Principal // skb -> principal recorded at EnqueueTx
	txBatch  map[mem.Addr]mem.Addr      // dev -> kernel-owned batch array
	txDenied uint64                     // skbs denied at drain by a revoked owner

	backlogMu sync.Mutex
	backlog   []mem.Addr // skbs handed to the kernel by netif_rx

	sockMu    sync.Mutex
	sockLocks map[mem.Addr]*sync.Mutex // socket -> per-instance op lock

	// The registered function-pointer types of the stack's interface
	// slots, kept from Init so the per-packet and per-syscall indirect
	// calls never repeat the type lookup (bind-time resolution).
	gQdiscEnq       *core.FPtrType
	gQdiscDeq       *core.FPtrType
	gStartXmit      *core.FPtrType
	gStartXmitBatch *core.FPtrType
	gNapiPoll       *core.FPtrType
	gCreate         *core.FPtrType
	gSendmsg        *core.FPtrType
	gRecvmsg        *core.FPtrType
	gBind           *core.FPtrType
	gIoctl          *core.FPtrType
	gRelease        *core.FPtrType
	// gStartXmitStrict is registered by StrictInit (strict.go).
	gStartXmitStrict *core.FPtrType

	// RxDelivered counts packets that reached the kernel via netif_rx.
	// Guarded by backlogMu; read directly only from quiescent test
	// contexts.
	RxDelivered uint64
}

type family struct {
	module     *core.Module
	createSlot mem.Addr // kernel slot holding the create fn pointer
}

// Init builds the stack on a booted kernel, registering layouts, fptr
// types, and exports.
func Init(k *kernel.Kernel) *Stack {
	s := &Stack{
		K:         k,
		families:  make(map[uint64]*family),
		napiPoll:  make(map[mem.Addr]mem.Addr),
		queues:    make(map[mem.Addr][]uint64),
		txOwner:   make(map[uint64]*caps.Principal),
		txBatch:   make(map[mem.Addr]mem.Addr),
		sockLocks: make(map[mem.Addr]*sync.Mutex),
	}
	sys := k.Sys

	s.skb = sys.Layouts.Define(SkBuff,
		layout.F("data", 8),
		layout.F("len", 8),
		layout.F("head", 8),
		layout.F("truesize", 8),
		layout.F("dev", 8),
		layout.F("protocol", 8),
	)
	s.ndev = sys.Layouts.Define(NetDevice,
		layout.F("ops", 8),
		layout.F("qdisc", 8),
		layout.F("flags", 8),
		layout.F("name", 16),
	)
	s.nops = sys.Layouts.Define(NetDevOps,
		layout.F("ndo_open", 8),
		layout.F("ndo_stop", 8),
		layout.F("ndo_start_xmit", 8),
		layout.F("ndo_start_xmit_batch", 8),
	)
	s.sock = sys.Layouts.Define(Socket,
		layout.F("ops", 8),
		layout.F("sk", 8),
		layout.F("type", 8),
		layout.F("state", 8),
	)
	s.pops = sys.Layouts.Define(ProtoOps,
		layout.F("release", 8),
		layout.F("bind", 8),
		layout.F("connect", 8),
		layout.F("sendmsg", 8),
		layout.F("recvmsg", 8),
		layout.F("ioctl", 8),
	)
	s.qdisc = sys.Layouts.Define(QdiscT,
		layout.F("enqueue", 8),
		layout.F("dequeue", 8),
	)

	sys.RegisterConst("NETDEV_TX_BUSY", NetdevTxBusy)

	// skb_caps (Fig. 4 lines 51-54): the capabilities that make up an
	// sk_buff — the struct itself plus its payload buffer.
	sys.RegisterIterator("skb_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		skb := mem.Addr(uint64(args[0]))
		if skb == 0 {
			return nil
		}
		return s.emitSkb(skb, caps.WriteCap(skb, s.skb.Size), emit)
	})

	s.registerBatchIterators()
	s.registerFPtrTypes()
	s.registerExports()
	s.registerBatchExports()
	return s
}

func (s *Stack) registerFPtrTypes() {
	sys := s.K.Sys
	s.gStartXmit = sys.RegisterFPtrType(NdoStartXmit,
		[]core.Param{core.P("skb", "struct sk_buff *"), core.P("dev", "struct net_device *")},
		"principal(dev) pre(transfer(skb_caps(skb))) "+
			"post(if (return == NETDEV_TX_BUSY) transfer(skb_caps(skb)))")
	// The batched transmit interface: one crossing hands the driver a
	// kernel-owned array of n skb pointers. The annotation program
	// walks the array once per batch, transferring each element's
	// WRITE capabilities (struct + payload) with per-element verdicts
	// riding the per-thread check cache; a partial return hands the
	// unconsumed tail's capabilities back, the batch analogue of
	// NETDEV_TX_BUSY.
	// The batched xmit checks the array once per crossing instead of
	// transferring per-element ownership: the kernel retains the skbs
	// (the driver only reads them — zero-copy DMA semantics) and
	// completes consumed elements itself after the crossing returns, so
	// the batch carries no per-segment grant/revoke churn. Per-element
	// WRITE verdicts ride the per-thread check cache in DrainTx.
	s.gStartXmitBatch = sys.RegisterFPtrType(NdoStartXmitBatch,
		[]core.Param{core.P("skbs", "u64 *"), core.P("n", "u64"), core.P("dev", "struct net_device *")},
		"principal(dev) pre(check(skb_array_caps(skbs, n)))")
	sys.RegisterFPtrType(NdoOpen,
		[]core.Param{core.P("dev", "struct net_device *")}, "principal(dev)")
	sys.RegisterFPtrType(NdoStop,
		[]core.Param{core.P("dev", "struct net_device *")}, "principal(dev)")
	s.gNapiPoll = sys.RegisterFPtrType(NapiPollType,
		[]core.Param{core.P("dev", "struct net_device *"), core.P("budget", "int")},
		"principal(dev)")
	s.gQdiscEnq = sys.RegisterFPtrType(QdiscEnq,
		[]core.Param{core.P("qdisc", "struct Qdisc *"), core.P("skb", "struct sk_buff *")}, "")
	s.gQdiscDeq = sys.RegisterFPtrType(QdiscDeq,
		[]core.Param{core.P("qdisc", "struct Qdisc *")}, "")
	s.gCreate = sys.RegisterFPtrType(FamilyCreate,
		[]core.Param{core.P("sock", "struct socket *")},
		"principal(sock) pre(copy(write, sock))")
	s.gRelease = sys.RegisterFPtrType(OpsRelease,
		[]core.Param{core.P("sock", "struct socket *")}, "principal(sock)")
	s.gBind = sys.RegisterFPtrType(OpsBind,
		[]core.Param{core.P("sock", "struct socket *"), core.P("addr", "const void *"), core.P("len", "int")},
		"principal(sock)")
	s.gSendmsg = sys.RegisterFPtrType(OpsSendmsg,
		[]core.Param{core.P("sock", "struct socket *"), core.P("buf", "const void *"),
			core.P("len", "size_t"), core.P("flags", "int")},
		"principal(sock)")
	s.gRecvmsg = sys.RegisterFPtrType(OpsRecvmsg,
		[]core.Param{core.P("sock", "struct socket *"), core.P("buf", "void *"),
			core.P("len", "size_t"), core.P("flags", "int")},
		"principal(sock)")
	s.gIoctl = sys.RegisterFPtrType(OpsIoctl,
		[]core.Param{core.P("sock", "struct socket *"), core.P("cmd", "int"), core.P("arg", "u64")},
		"principal(sock)")
}

func (s *Stack) registerExports() {
	sys := s.K.Sys

	// alloc_etherdev: the module receives WRITE access to the fresh
	// net_device (it must fill in ops etc.) — Guideline 2.
	sys.RegisterKernelFunc("alloc_etherdev", nil,
		"post(if (return != 0) transfer(alloc_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			dev, err := sys.Slab.Alloc(s.ndev.Size)
			if err != nil {
				return 0
			}
			return uint64(dev)
		})

	sys.RegisterKernelFunc("free_netdev",
		[]core.Param{core.P("dev", "struct net_device *")},
		"pre(transfer(alloc_caps(dev)))",
		func(t *core.Thread, args []uint64) uint64 {
			_ = sys.Slab.Free(mem.Addr(args[0]))
			return 0
		})

	// register_netdev: the caller must own the device it registers.
	// The kernel attaches the default pfifo qdisc (Guideline 7: the
	// kernel assigns packet schedulers by writing a pointer into the
	// net_device).
	sys.RegisterKernelFunc("register_netdev",
		[]core.Param{core.P("dev", "struct net_device *")},
		"pre(check(alloc_caps(dev)))",
		func(t *core.Thread, args []uint64) uint64 {
			dev := mem.Addr(args[0])
			q := s.newPfifo()
			if err := sys.AS.WriteU64(dev+mem.Addr(s.ndev.Off("qdisc")), uint64(q)); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			s.regMu.Lock()
			s.devices = append(s.devices, dev)
			s.regMu.Unlock()
			return 0
		})

	// alloc_skb: WRITE capabilities for the skb struct and its payload
	// transfer to the allocating module.
	sys.RegisterKernelFunc("alloc_skb",
		[]core.Param{core.P("size", "size_t")},
		"post(if (return != 0) transfer(skb_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			skb, err := s.AllocSkb(args[0])
			if err != nil {
				return 0
			}
			return uint64(skb)
		})

	sys.RegisterKernelFunc("kfree_skb",
		[]core.Param{core.P("skb", "struct sk_buff *")},
		"pre(transfer(skb_caps(skb)))",
		func(t *core.Thread, args []uint64) uint64 {
			s.FreeSkb(mem.Addr(args[0]))
			return 0
		})

	// netif_rx (Fig. 1 line 42): the driver hands a packet to the
	// kernel. The transfer annotation revokes the driver's (and any
	// other module's) write access so the packet cannot be modified
	// after the kernel accepted it (§3.3).
	sys.RegisterKernelFunc("netif_rx",
		[]core.Param{core.P("skb", "struct sk_buff *")},
		"pre(transfer(skb_caps(skb)))",
		func(t *core.Thread, args []uint64) uint64 {
			s.backlogMu.Lock()
			s.backlog = append(s.backlog, mem.Addr(args[0]))
			s.RxDelivered++
			s.backlogMu.Unlock()
			return 0
		})

	// netif_napi_add (Fig. 1 line 23): the module registers its poll
	// callback. It must own the device and must itself be allowed to
	// call the function it supplies.
	sys.RegisterKernelFunc("netif_napi_add",
		[]core.Param{core.P("dev", "struct net_device *"), core.P("poll", "napi_poll_t")},
		"pre(check(alloc_caps(dev))) pre(check(call, poll))",
		func(t *core.Thread, args []uint64) uint64 {
			dev, poll := mem.Addr(args[0]), args[1]
			slot := sys.Statics.Alloc(8, 8) // kernel-owned slot: fast path
			if err := sys.AS.WriteU64(slot, poll); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			s.regMu.Lock()
			s.napiPoll[dev] = slot
			s.regMu.Unlock()
			return 0
		})

	// sock_register: a protocol module registers its family create
	// function (af_econet, af_rds, af_can do this on init).
	sys.RegisterKernelFunc("sock_register",
		[]core.Param{core.P("fam", "int"), core.P("create", "create_fn_t")},
		"pre(check(call, create))",
		func(t *core.Thread, args []uint64) uint64 {
			// CallerModule, not CurrentModule: this body runs trusted,
			// so the registering module is on the shadow stack.
			m := t.CallerModule()
			slot := sys.Statics.Alloc(8, 8)
			if err := sys.AS.WriteU64(slot, args[1]); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			s.regMu.Lock()
			s.families[args[0]] = &family{module: m, createSlot: slot}
			s.regMu.Unlock()
			return 0
		})
}

// --- sk_buff management (trusted-side helpers) ---

// AllocSkb allocates an sk_buff and its payload buffer in kernel
// context. The payload is also noted in the sk_buff's kernel-private
// payload record (mem.Slab.AllocWithPayload), slab metadata that no
// skb capability covers.
func (s *Stack) AllocSkb(size uint64) (mem.Addr, error) {
	sys := s.K.Sys
	if size == 0 {
		size = 1
	}
	skb, data, err := sys.Slab.AllocWithPayload(s.skb.Size, size)
	if err != nil {
		return 0, err
	}
	must(sys.AS.WriteU64(skb+mem.Addr(s.skb.Off("data")), uint64(data)))
	must(sys.AS.WriteU64(skb+mem.Addr(s.skb.Off("head")), uint64(data)))
	must(sys.AS.WriteU64(skb+mem.Addr(s.skb.Off("truesize")), size))
	must(sys.AS.WriteU64(skb+mem.Addr(s.skb.Off("len")), 0))
	return skb, nil
}

// skbPayload returns the payload AllocSkb allocated for skb, from the
// payload record rather than the module-writable head and truesize
// fields. Every kernel decision about an skb's payload — the
// capabilities its iterators emit, what TX completion revokes, what
// FreeSkb frees — goes through the record, so a transfer always covers
// exactly the buffer the free releases.
func (s *Stack) skbPayload(skb mem.Addr) (mem.Addr, uint64) {
	return s.K.Sys.Slab.Payload(skb)
}

// emitSkb emits hdr, the capability over skb's header, then WRITE over
// the payload AllocSkb allocated for it.
func (s *Stack) emitSkb(skb mem.Addr, hdr caps.Cap, emit func(caps.Cap) error) error {
	if err := emit(hdr); err != nil {
		return err
	}
	if data, size := s.skbPayload(skb); data != 0 && size > 0 {
		return emit(caps.WriteCap(data, size))
	}
	return nil
}

// FreeSkb releases an sk_buff and the payload AllocSkb allocated for
// it.
func (s *Stack) FreeSkb(skb mem.Addr) {
	if skb != 0 {
		s.K.Sys.Slab.FreeWithPayload(skb)
	}
}

// SkbField returns the address of an sk_buff field.
func (s *Stack) SkbField(skb mem.Addr, field string) mem.Addr {
	return skb + mem.Addr(s.skb.Off(field))
}

// DevField returns the address of a net_device field.
func (s *Stack) DevField(dev mem.Addr, field string) mem.Addr {
	return dev + mem.Addr(s.ndev.Off(field))
}

// OpsSlot returns the address of a net_device_ops slot.
func (s *Stack) OpsSlot(ops mem.Addr, field string) mem.Addr {
	return ops + mem.Addr(s.nops.Off(field))
}

// SockField returns the address of a socket field.
func (s *Stack) SockField(sock mem.Addr, field string) mem.Addr {
	return sock + mem.Addr(s.sock.Off(field))
}

// ProtoOpsSlot returns the address of a proto_ops slot.
func (s *Stack) ProtoOpsSlot(ops mem.Addr, field string) mem.Addr {
	return ops + mem.Addr(s.pops.Off(field))
}

// --- qdisc (pfifo) ---

func (s *Stack) newPfifo() mem.Addr {
	sys := s.K.Sys
	q := sys.Statics.Alloc(s.qdisc.Size, 8)
	enq, _ := sys.FuncByName("pfifo_enqueue")
	deq, _ := sys.FuncByName("pfifo_dequeue")
	if enq == nil {
		enq = sys.RegisterKernelFunc("pfifo_enqueue",
			[]core.Param{core.P("qdisc", "struct Qdisc *"), core.P("skb", "struct sk_buff *")}, "",
			func(t *core.Thread, args []uint64) uint64 {
				s.qmu.Lock()
				s.queues[mem.Addr(args[0])] = append(s.queues[mem.Addr(args[0])], args[1])
				s.qmu.Unlock()
				return 0
			})
		deq = sys.RegisterKernelFunc("pfifo_dequeue",
			[]core.Param{core.P("qdisc", "struct Qdisc *")}, "",
			func(t *core.Thread, args []uint64) uint64 {
				q := mem.Addr(args[0])
				s.qmu.Lock()
				defer s.qmu.Unlock()
				lst := s.queues[q]
				if len(lst) == 0 {
					return 0
				}
				skb := lst[0]
				s.queues[q] = popFront(lst)
				return skb
			})
	}
	must(sys.AS.WriteU64(q+mem.Addr(s.qdisc.Off("enqueue")), uint64(enq.Addr)))
	must(sys.AS.WriteU64(q+mem.Addr(s.qdisc.Off("dequeue")), uint64(deq.Addr)))
	return q
}

// --- kernel-side paths (syscalls and dev_queue_xmit) ---

// XmitSkb is dev_queue_xmit: enqueue on the device's qdisc, dequeue, and
// hand the packet to the driver through the module-writable
// ndo_start_xmit slot.
func (s *Stack) XmitSkb(t *core.Thread, dev, skb mem.Addr) (uint64, error) {
	// Fault site: an injected error drops the packet at the TX entry,
	// like a carrier loss between the protocol and the qdisc.
	if err := failpoint.Inject("netstack.xmit"); err != nil {
		return 0, err
	}
	sys := s.K.Sys
	q, err := sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("qdisc")))
	if err != nil || q == 0 {
		return 0, fmt.Errorf("netstack: device %#x has no qdisc", uint64(dev))
	}
	qd := mem.Addr(q)
	if _, err := s.gQdiscEnq.Call(t, qd+mem.Addr(s.qdisc.Off("enqueue")), uint64(qd), uint64(skb)); err != nil {
		return 0, err
	}
	out, err := s.gQdiscDeq.Call(t, qd+mem.Addr(s.qdisc.Off("dequeue")), uint64(qd))
	if err != nil || out == 0 {
		return 0, err
	}
	ops, err := sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("ops")))
	if err != nil || ops == 0 {
		return 0, fmt.Errorf("netstack: device %#x has no ops", uint64(dev))
	}
	slot := mem.Addr(ops) + mem.Addr(s.nops.Off("ndo_start_xmit"))
	return s.gStartXmit.Call(t, slot, out, uint64(dev))
}

// Poll invokes the device's registered NAPI poll callback with a budget,
// as the kernel's softirq loop does (Fig. 1 line 28).
func (s *Stack) Poll(t *core.Thread, dev mem.Addr, budget uint64) (uint64, error) {
	// Fault site: an injected error fails the NAPI poll round before the
	// driver crossing runs.
	if err := failpoint.Inject("netstack.poll"); err != nil {
		return 0, err
	}
	s.regMu.RLock()
	slot, ok := s.napiPoll[dev]
	s.regMu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("netstack: no NAPI context for device %#x", uint64(dev))
	}
	return s.gNapiPoll.Call(t, slot, uint64(dev), budget)
}

// PopRx removes and returns the oldest packet delivered via netif_rx
// (0 if none) — the protocol-layer consumption point.
func (s *Stack) PopRx() mem.Addr {
	s.backlogMu.Lock()
	defer s.backlogMu.Unlock()
	if len(s.backlog) == 0 {
		return 0
	}
	skb := s.backlog[0]
	s.backlog = popFront(s.backlog)
	return skb
}

// popFront drops q's head by shifting the rest down, so q keeps its
// array and the next append reuses it. (Re-slicing past the head would
// give up a slot of capacity per pop and make appends allocate.) Queues
// stay short: a poll round or a drain budget.
func popFront[T any](q []T) []T { return q[:copy(q, q[1:])] }

// BacklogLen returns the number of undelivered rx packets.
func (s *Stack) BacklogLen() int {
	s.backlogMu.Lock()
	defer s.backlogMu.Unlock()
	return len(s.backlog)
}

// --- socket syscalls ---

// Socket implements socket(2): allocates the socket object and calls the
// family's create function (which the module registered) through a
// checked indirect call. The new socket is registered with its own
// per-instance operation lock, the netstack analogue of a VFS mount
// lock.
func (s *Stack) Socket(t *core.Thread, familyID uint64) (_ mem.Addr, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.socket", rerr) }()
	s.regMu.RLock()
	fam, ok := s.families[familyID]
	s.regMu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("netstack: unknown protocol family %d", familyID)
	}
	if fam.module != nil && fam.module.Dead() {
		return 0, core.ErrModuleDead
	}
	sock, err := s.K.Sys.Slab.Alloc(s.sock.Size)
	if err != nil {
		return 0, err
	}
	ret, err := s.gCreate.Call(t, fam.createSlot, uint64(sock))
	if err != nil {
		return 0, err
	}
	if kernel.IsErr(ret) {
		_ = s.K.Sys.Slab.Free(sock)
		return 0, fmt.Errorf("netstack: create failed: errno %d", -int64(ret))
	}
	s.sockMu.Lock()
	s.sockLocks[sock] = &sync.Mutex{}
	s.sockMu.Unlock()
	return sock, nil
}

// lockSock takes a socket's per-instance operation lock and returns the
// unlock. Sockets that predate Socket() (or were already released) get
// a nil lock and run unserialized, preserving the old single-thread
// behavior for hand-built test sockets.
func (s *Stack) lockSock(sock mem.Addr) func() {
	s.sockMu.Lock()
	mu := s.sockLocks[sock]
	s.sockMu.Unlock()
	if mu == nil {
		return func() {}
	}
	mu.Lock()
	return mu.Unlock
}

// sockOpSlot loads sock->ops and returns the address of the named slot.
func (s *Stack) sockOpSlot(sock mem.Addr, op string) (mem.Addr, error) {
	ops, err := s.K.Sys.AS.ReadU64(sock + mem.Addr(s.sock.Off("ops")))
	if err != nil || ops == 0 {
		return 0, fmt.Errorf("netstack: socket %#x has no ops", uint64(sock))
	}
	return mem.Addr(ops) + mem.Addr(s.pops.Off(op)), nil
}

// Sendmsg implements sendmsg(2) for a module socket.
func (s *Stack) Sendmsg(t *core.Thread, sock, buf mem.Addr, n, flags uint64) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.sendmsg", rerr) }()
	defer s.lockSock(sock)()
	slot, err := s.sockOpSlot(sock, "sendmsg")
	if err != nil {
		return 0, err
	}
	return s.gSendmsg.Call(t, slot, uint64(sock), uint64(buf), n, flags)
}

// Recvmsg implements recvmsg(2).
func (s *Stack) Recvmsg(t *core.Thread, sock, buf mem.Addr, n, flags uint64) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.recvmsg", rerr) }()
	defer s.lockSock(sock)()
	slot, err := s.sockOpSlot(sock, "recvmsg")
	if err != nil {
		return 0, err
	}
	return s.gRecvmsg.Call(t, slot, uint64(sock), uint64(buf), n, flags)
}

// Bind implements bind(2).
func (s *Stack) Bind(t *core.Thread, sock, addr mem.Addr, n uint64) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.bind", rerr) }()
	defer s.lockSock(sock)()
	slot, err := s.sockOpSlot(sock, "bind")
	if err != nil {
		return 0, err
	}
	return s.gBind.Call(t, slot, uint64(sock), uint64(addr), n)
}

// Ioctl implements ioctl(2) on a socket — the kernel path both the RDS
// and Econet exploits redirect.
func (s *Stack) Ioctl(t *core.Thread, sock mem.Addr, cmd, arg uint64) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.ioctl", rerr) }()
	defer s.lockSock(sock)()
	slot, err := s.sockOpSlot(sock, "ioctl")
	if err != nil {
		return 0, err
	}
	return s.gIoctl.Call(t, slot, uint64(sock), cmd, arg)
}

// Release implements close(2). After the module's release callback
// runs, the socket's instance principal is discarded along with the
// socket object, so a recycled address cannot inherit stale privileges.
func (s *Stack) Release(t *core.Thread, sock mem.Addr) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.ENETDOWN, "netstack.release", rerr) }()
	unlock := s.lockSock(sock)
	slot, err := s.sockOpSlot(sock, "release")
	if err != nil {
		unlock()
		return 0, err
	}
	ret, err := s.gRelease.Call(t, slot, uint64(sock))
	if err != nil {
		unlock()
		return ret, err
	}
	s.regMu.RLock()
	for _, fam := range s.families {
		if fam.module != nil {
			fam.module.Set.DropInstance(sock)
		}
	}
	s.regMu.RUnlock()
	_ = s.K.Sys.Slab.Free(sock)
	unlock()
	s.sockMu.Lock()
	delete(s.sockLocks, sock)
	s.sockMu.Unlock()
	return ret, nil
}

// Devices returns all registered net devices.
func (s *Stack) Devices() []mem.Addr {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return append([]mem.Addr(nil), s.devices...)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
