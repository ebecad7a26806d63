// Package e1000sim is the simulated e1000 PCI gigabit network driver —
// the module the paper isolates for its netperf evaluation (§8.4).
//
// It exercises every annotated interface of the running example in
// Figures 1 and 4: pci_driver.probe (with principal aliasing between the
// pci_dev and net_device names), pci_enable_device, netif_napi_add,
// ndo_start_xmit with skb capability transfers, and netif_rx.
//
// The "hardware" is a Nic object: a TX descriptor ring in module-owned
// simulated memory that the driver fills with instrumented writes, and
// Go-side frame queues standing in for the PHY. The Nic persists across
// hot reloads (real hardware does not reset when the driver is swapped),
// so a streaming peer wired to OnTx keeps receiving frames while the
// module is reloaded under live traffic.
package e1000sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
	"lxfi/internal/pci"
)

// Intel 82540EM, as in the paper's test machine.
const (
	VendorIntel = 0x8086
	Dev82540EM  = 0x100E
)

// TxRingEntries is the size of the TX descriptor ring.
const TxRingEntries = 64

// descSize is one TX descriptor: payload address (8) + length (8).
const descSize = 16

// RxBatchEntries is the capacity of the module-owned RX skb-pointer
// array the batched poll path hands to alloc_skb_batch.
const RxBatchEntries = netstack.TxBatchMax

// Nic is the simulated hardware behind the driver. Counters are atomics
// (TX workers run concurrently); mu guards the RX frame queue and the
// frame-buffer free list. OnTx is invoked outside the lock so a
// test-harness wire may call InjectRx from inside it.
//
// Frame bytes live in buffers the NIC owns, recycled through one free
// list for both directions: a transmit borrows a buffer for the payload
// it hands OnTx, InjectRx copies each frame into one, and the driver
// hands an RX buffer back once its bytes are in an skb. A buffer has
// one user at a time, so two transmitting threads never share one.
type Nic struct {
	// TxFrames/TxBytes count frames the NIC has put on the wire.
	// Updated atomically; read them after the traffic threads join.
	TxFrames uint64
	TxBytes  uint64
	// OnTx, if set, receives each transmitted frame (the test harness
	// wire). The frame is a NIC buffer, valid only for the duration of
	// the call: a wire that keeps the bytes must copy them.
	OnTx func(frame []byte)
	// IRQs counts raised interrupts.
	IRQs uint64

	batchRx atomic.Bool

	mu   sync.Mutex
	rxq  [][]byte // received frames, oldest first
	free [][]byte // idle frame buffers
}

// InjectRx queues a copy of frame for reception.
func (n *Nic) InjectRx(frame []byte) {
	n.mu.Lock()
	buf := n.bufLocked(len(frame))
	copy(buf, frame)
	n.rxq = append(n.rxq, buf)
	n.mu.Unlock()
}

// bufLocked takes a buffer of length size off the free list. An idle
// buffer too short for size is dropped for a fresh one, so the buffers
// settle at the largest frame size in use.
func (n *Nic) bufLocked(size int) []byte {
	if k := len(n.free) - 1; k >= 0 {
		b := n.free[k]
		n.free[k] = nil
		n.free = n.free[:k]
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// recycle returns frame buffers to the free list.
func (n *Nic) recycle(bufs ...[]byte) {
	n.mu.Lock()
	n.free = append(n.free, bufs...)
	n.mu.Unlock()
}

// transmit is the NIC's TX DMA: it copies the length-byte payload at
// data into a buffer of its own, puts the frame on the wire, and takes
// the buffer back. It reports whether the payload could be read.
func (n *Nic) transmit(t *core.Thread, data mem.Addr, length uint64) bool {
	n.mu.Lock()
	frame := n.bufLocked(int(length))
	n.mu.Unlock()
	ok := t.Read(data, frame) == nil
	if ok {
		atomic.AddUint64(&n.TxFrames, 1)
		atomic.AddUint64(&n.TxBytes, length)
		if n.OnTx != nil {
			n.OnTx(frame)
		}
	}
	n.recycle(frame)
	return ok
}

// RxPending returns the number of frames waiting.
func (n *Nic) RxPending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.rxq)
}

// SetBatchRx selects the poll delivery path: per-packet
// alloc_skb/netif_rx (the default) or the batched
// alloc_skb_batch/netif_rx_batch pair. Lives on the Nic so the setting
// survives a driver reload.
func (n *Nic) SetBatchRx(on bool) { n.batchRx.Store(on) }

// takeRx moves up to len(out) frames from the head of the RX queue into
// out, the driver's array, and returns how many it moved. The queue
// closes up in place and keeps its array.
func (n *Nic) takeRx(out [][]byte) int {
	n.mu.Lock()
	k := copy(out, n.rxq)
	rest := copy(n.rxq, n.rxq[k:])
	clear(n.rxq[rest:])
	n.rxq = n.rxq[:rest]
	n.mu.Unlock()
	return k
}

// requeueFront puts frames back at the head of the RX queue, in order
// (partial batch allocation failure).
func (n *Nic) requeueFront(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	n.mu.Lock()
	n.rxq = slices.Insert(n.rxq, 0, frames...)
	n.mu.Unlock()
}

// nicOf returns the NIC behind a PCI device, creating it on the first
// probe. Reloading the driver swaps the module code, not the hardware,
// so the NIC lives on the device: a reloaded driver finds it there, and
// it is collected with its bus and kernel.
func nicOf(dev *pci.Device) *Nic {
	if n, ok := dev.HW.(*Nic); ok {
		return n
	}
	n := &Nic{}
	dev.HW = n
	return n
}

// Driver is a loaded e1000sim module instance.
type Driver struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gAllocEtherdev   *core.Gate
	gAllocSkb        *core.Gate
	gAllocSkbBatch   *core.Gate
	gKfreeSkb        *core.Gate
	gKmalloc         *core.Gate
	gNetifNapiAdd    *core.Gate
	gNetifRx         *core.Gate
	gNetifRxBatch    *core.Gate
	gPciEnableDevice *core.Gate
	gRegisterNetdev  *core.Gate
	gRequestIrq      *core.Gate
	Bus              *pci.Bus
	Stack            *netstack.Stack
	K                *kernel.Kernel

	// Nic is the hardware behind the bound device, set by probe.
	Nic *Nic

	// Dev is the net_device address after a successful probe.
	Dev mem.Addr
	// PciDev is the bound PCI device.
	PciDev mem.Addr

	ring   mem.Addr      // TX descriptor ring (kmalloc'd, module-owned)
	rxArr  mem.Addr      // RX batch skb-pointer array (kmalloc'd, module-owned)
	txHead atomic.Uint64 // descriptors claimed; xmits on two threads claim different slots
	opened bool
}

// Imports is the kernel symbol table of the module; the loader grants a
// CALL capability for exactly these (§4.2 module initialization).
var Imports = []string{
	"alloc_etherdev", "free_netdev", "register_netdev",
	"alloc_skb", "alloc_skb_batch", "kfree_skb",
	"netif_rx", "netif_rx_batch", "netif_napi_add",
	"pci_enable_device", "pci_disable_device", "request_irq",
	"kmalloc", "kfree", "printk",
	"spin_lock_init", "spin_lock", "spin_unlock",
}

// Load loads the e1000sim module and registers its PCI driver; any
// matching devices on the bus are probed immediately.
func Load(t *core.Thread, k *kernel.Kernel, bus *pci.Bus, stack *netstack.Stack) (*Driver, error) {
	d := &Driver{Bus: bus, Stack: stack, K: k}

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "e1000",
		Imports:  Imports,
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "probe", Type: pci.ProbeType, Impl: d.probe},
			{Name: "xmit", Type: netstack.NdoStartXmit, Impl: d.xmit},
			{Name: "xmit_batch", Type: netstack.NdoStartXmitBatch, Impl: d.xmitBatch},
			{Name: "open", Type: netstack.NdoOpen, Impl: d.open},
			{Name: "stop", Type: netstack.NdoStop, Impl: d.stop},
			{Name: "poll", Type: netstack.NapiPollType, Impl: d.poll},
			{Name: "irq", Type: "irq_handler", Impl: d.irq},
		},
	})
	if err != nil {
		return nil, err
	}
	d.M = m
	d.gAllocEtherdev = m.Gate("alloc_etherdev")
	d.gAllocSkb = m.Gate("alloc_skb")
	d.gAllocSkbBatch = m.Gate("alloc_skb_batch")
	d.gKfreeSkb = m.Gate("kfree_skb")
	d.gKmalloc = m.Gate("kmalloc")
	d.gNetifNapiAdd = m.Gate("netif_napi_add")
	d.gNetifRx = m.Gate("netif_rx")
	d.gNetifRxBatch = m.Gate("netif_rx_batch")
	d.gPciEnableDevice = m.Gate("pci_enable_device")
	d.gRegisterNetdev = m.Gate("register_netdev")
	d.gRequestIrq = m.Gate("request_irq")
	if err := bus.RegisterDriver(t, m, "probe", VendorIntel, Dev82540EM); err != nil {
		return nil, err
	}
	if d.Dev == 0 {
		return nil, fmt.Errorf("e1000sim: no device bound")
	}
	return d, nil
}

// probe is module_pci_probe from Fig. 4: it allocates the net_device,
// aliases the two principal names (pci_dev and net_device) after the
// mandatory lxfi_check, enables the device, installs the ops table, and
// registers with the network and NAPI layers.
func (d *Driver) probe(t *core.Thread, args []uint64) uint64 {
	pcidev := mem.Addr(args[0])

	ndev, err := d.gAllocEtherdev.Call(t)
	if err != nil || ndev == 0 {
		return kernel.Err(kernel.ENOMEM)
	}

	// Fig. 4 lines 72-73: the check makes the alias unforgeable — an
	// adversary cannot reach this code with a pci_dev it does not own.
	if err := t.LxfiCheck(caps.RefCap(pci.PciDev, pcidev)); err != nil {
		return kernel.Err(kernel.EPERM)
	}
	if err := t.PrincAlias(pcidev, mem.Addr(ndev)); err != nil {
		return kernel.Err(kernel.EINVAL)
	}

	if ret, err := d.gPciEnableDevice.Call(t, uint64(pcidev)); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EPERM)
	}
	// The device is on the bus (pci_enable_device found it); bind its
	// NIC before register_netdev, netif_napi_add and request_irq publish
	// the handlers that use it.
	d.Nic = nicOf(d.Bus.DeviceAt(pcidev))

	// Install the ops table in the module's data section and point the
	// net_device at it (Fig. 1 line 36).
	mod := t.CurrentModule()
	ops := mod.Data
	st := d.Stack
	if err := t.WriteU64(st.OpsSlot(ops, "ndo_start_xmit"), uint64(mod.Funcs["xmit"].Addr)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(st.OpsSlot(ops, "ndo_start_xmit_batch"), uint64(mod.Funcs["xmit_batch"].Addr)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(st.OpsSlot(ops, "ndo_open"), uint64(mod.Funcs["open"].Addr)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(st.OpsSlot(ops, "ndo_stop"), uint64(mod.Funcs["stop"].Addr)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(st.DevField(mem.Addr(ndev), "ops"), uint64(ops)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}

	// TX descriptor ring (device-owned memory, Guideline 2).
	ring, err := d.gKmalloc.Call(t, TxRingEntries*descSize)
	if err != nil || ring == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	d.ring = mem.Addr(ring)

	// RX batch array: the pointer array the kernel fills on
	// alloc_skb_batch. Module-owned so the crossing's write check pins
	// API integrity.
	rxArr, err := d.gKmalloc.Call(t, RxBatchEntries*8)
	if err != nil || rxArr == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	d.rxArr = mem.Addr(rxArr)

	if ret, err := d.gRegisterNetdev.Call(t, ndev); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EINVAL)
	}
	// Fig. 1 line 37: netif_napi_add(ndev, napi, my_poll_cb).
	if ret, err := d.gNetifNapiAdd.Call(t, ndev, uint64(mod.Funcs["poll"].Addr)); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EINVAL)
	}
	if ret, err := d.gRequestIrq.Call(t, uint64(pcidev), uint64(mod.Funcs["irq"].Addr)); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EINVAL)
	}

	d.Dev = mem.Addr(ndev)
	d.PciDev = pcidev
	return 0
}

// txOne writes one TX descriptor for the skb and lets the "hardware"
// DMA the payload onto the wire. Shared by the per-packet and batched
// xmit paths.
func (d *Driver) txOne(t *core.Thread, skb mem.Addr) bool {
	st := d.Stack
	data, _ := t.ReadU64(st.SkbField(skb, "data"))
	length, _ := t.ReadU64(st.SkbField(skb, "len"))

	// Write the descriptor through the capability system.
	slot := d.ring + mem.Addr(((d.txHead.Add(1)-1)%TxRingEntries)*descSize)
	if err := t.WriteU64(slot, data); err != nil {
		return false
	}
	if err := t.WriteU64(slot+8, length); err != nil {
		return false
	}

	// "DMA": the NIC reads the payload and puts the frame on the wire.
	return d.Nic.transmit(t, mem.Addr(data), length)
}

// xmit is ndo_start_xmit: by the time it runs, the transfer annotation
// has moved the skb capabilities to this device's principal. The driver
// writes a TX descriptor (instrumented stores into its ring), lets the
// "hardware" DMA the payload onto the wire, and frees the skb.
func (d *Driver) xmit(t *core.Thread, args []uint64) uint64 {
	skb := mem.Addr(args[0])
	if !d.txOne(t, skb) {
		return ^uint64(0)
	}
	if _, err := d.gKfreeSkb.Call(t, uint64(skb)); err != nil {
		return ^uint64(0)
	}
	return 0
}

// xmitBatch is ndo_start_xmit_batch: one crossing delivers a whole
// qdisc drain. The pre-transfer annotation moved every skb's
// capabilities to this device's principal; the driver walks the
// kernel-owned pointer array (reads are unmediated) and transmits each
// element. Consumed skbs are completed kernel-side after the crossing
// returns — no per-skb kfree_skb crossing — and a partial return hands
// the tail's capabilities back through the post annotation.
func (d *Driver) xmitBatch(t *core.Thread, args []uint64) uint64 {
	arr, n := mem.Addr(args[0]), args[1]
	var consumed uint64
	for ; consumed < n; consumed++ {
		w, err := t.ReadU64(arr + mem.Addr(consumed*8))
		if err != nil || w == 0 {
			break
		}
		if !d.txOne(t, mem.Addr(w)) {
			break
		}
	}
	return consumed
}

// poll is the NAPI poll callback: it delivers up to budget received
// frames to the kernel — per-packet via alloc_skb + netif_rx, or, when
// the NIC is in batch mode, through one alloc_skb_batch + netif_rx_batch
// pair per poll round.
func (d *Driver) poll(t *core.Thread, args []uint64) uint64 {
	budget := args[1]
	if d.Nic.batchRx.Load() {
		return d.pollBatch(t, budget)
	}
	st := d.Stack
	var done uint64
	var frames [1][]byte
	for done < budget {
		if d.Nic.takeRx(frames[:]) == 0 {
			break
		}
		frame := frames[0]

		skb, err := d.gAllocSkb.Call(t, uint64(len(frame)))
		if err != nil || skb == 0 {
			d.Nic.recycle(frame)
			return done
		}
		data, _ := t.ReadU64(st.SkbField(mem.Addr(skb), "head"))
		err = t.Write(mem.Addr(data), frame)
		d.Nic.recycle(frame)
		if err != nil {
			return done
		}
		if err := t.WriteU64(st.SkbField(mem.Addr(skb), "len"), uint64(len(frame))); err != nil {
			return done
		}
		if err := t.WriteU64(st.SkbField(mem.Addr(skb), "dev"), uint64(d.Dev)); err != nil {
			return done
		}
		if ret, err := d.gNetifRx.Call(t, skb); err != nil || kernel.IsErr(ret) {
			return done
		}
		done++
	}
	return done
}

// pollBatch delivers up to budget frames through two crossings total:
// alloc_skb_batch fills the module's pointer array with fresh skbs
// (capabilities transferred per-batch by the post annotation), the
// driver copies payloads in, and netif_rx_batch hands the whole array
// to the protocol backlog (capabilities transferred back per-batch).
func (d *Driver) pollBatch(t *core.Thread, budget uint64) uint64 {
	if budget > RxBatchEntries {
		budget = RxBatchEntries
	}
	var taken [RxBatchEntries][]byte
	frames := taken[:d.Nic.takeRx(taken[:budget])]
	if len(frames) == 0 {
		return 0
	}
	maxLen := 0
	for _, f := range frames {
		if len(f) > maxLen {
			maxLen = len(f)
		}
	}

	got, err := d.gAllocSkbBatch.Call(t, uint64(d.rxArr), uint64(len(frames)), uint64(maxLen))
	if err != nil || got == 0 {
		d.Nic.requeueFront(frames)
		return 0
	}
	if got < uint64(len(frames)) {
		d.Nic.requeueFront(frames[got:])
		frames = frames[:got]
	}

	filled := d.fillRx(t, frames)
	d.Nic.recycle(frames...)
	if !filled {
		return 0
	}

	accepted, err := d.gNetifRxBatch.Call(t, uint64(d.rxArr), uint64(len(frames)))
	if err != nil {
		return 0
	}
	return accepted
}

// fillRx copies each frame into the skb at the same index of the RX
// batch array and stamps its length and device.
func (d *Driver) fillRx(t *core.Thread, frames [][]byte) bool {
	st := d.Stack
	for i, frame := range frames {
		w, err := t.ReadU64(d.rxArr + mem.Addr(i*8))
		if err != nil || w == 0 {
			return false
		}
		skb := mem.Addr(w)
		data, _ := t.ReadU64(st.SkbField(skb, "head"))
		if err := t.Write(mem.Addr(data), frame); err != nil {
			return false
		}
		if err := t.WriteU64(st.SkbField(skb, "len"), uint64(len(frame))); err != nil {
			return false
		}
		if err := t.WriteU64(st.SkbField(skb, "dev"), uint64(d.Dev)); err != nil {
			return false
		}
	}
	return true
}

func (d *Driver) open(t *core.Thread, args []uint64) uint64 {
	d.opened = true
	return 0
}

func (d *Driver) stop(t *core.Thread, args []uint64) uint64 {
	d.opened = false
	return 0
}

func (d *Driver) irq(t *core.Thread, args []uint64) uint64 {
	atomic.AddUint64(&d.Nic.IRQs, 1)
	return 0
}

// Opened reports whether ndo_open has run.
func (d *Driver) Opened() bool { return d.opened }
