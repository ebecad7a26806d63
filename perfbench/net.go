package main

import (
	"encoding/binary"
	"fmt"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	_ "lxfi/internal/modules/all"
	"lxfi/internal/modules/e1000sim"
	"lxfi/internal/netstack"
	"lxfi/internal/pci"
)

// Wire shapes of the two network workloads.
const (
	// streamPayload is one MTU-sized TCP payload; every segment carries an
	// 8-byte sequence header in front of it.
	streamPayload  = 1448
	streamSegBytes = 8 + streamPayload
	streamWindow   = 32 // sender window, in segments
	streamBudget   = 8  // EnqueueTx/DrainTx and Poll batch budget
	streamAckEvery = 4  // the peer acks cumulatively every this many segments
	// streamTransfer is the unit the window runs whole: every transfer
	// ends fully acked, so per-op counters do not depend on where the
	// deadline fell.
	streamTransfer = 1024

	rrBytes = 64 // request and response size
)

// netRig is a booted kernel with the netstack and the e1000sim driver
// loaded through the module loader.
type netRig struct {
	k   *kernel.Kernel
	st  *netstack.Stack
	th  *core.Thread
	drv *e1000sim.Driver
}

func bootNet(mode core.Mode) (*netRig, setupInfo, error) {
	var si setupInfo
	t0 := nowNs()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bus := pci.Init(k)
	st := netstack.Init(k)
	bus.AddDevice(e1000sim.VendorIntel, e1000sim.Dev82540EM)
	th := k.Sys.NewThread("perfbench")
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Bus: bus, Net: st})
	tl := nowNs()
	inst, err := ld.Load(th, "e1000")
	si.loadNs = nowNs() - tl
	if err != nil {
		k.Shutdown()
		return nil, si, fmt.Errorf("load e1000: %w", err)
	}
	si.totalNs = nowNs() - t0
	return &netRig{k: k, st: st, th: th, drv: inst.(*e1000sim.Driver)}, si, nil
}

func (r *netRig) sys() *core.System { return r.k.Sys }
func (r *netRig) close()            { r.k.Shutdown() }

func (r *netRig) counters(c *counters) {
	c.irqs = r.drv.Nic.IRQs
	c.txDenied = r.st.TxDenied()
}

// --- stream ---

// streamInputs is what the seed decides for stream: the initial sequence
// number, as a TCP sender picks one.
type streamInputs struct{ isn uint64 }

// streamPeer is the remote end of the wire. It checks that segments arrive
// complete and in order and acks cumulatively from one preallocated frame
// (InjectRx copies it).
type streamPeer struct {
	nic      *e1000sim.Nic
	isn      uint64
	expected uint64 // next absolute sequence number
	bad      uint64 // short, reordered or duplicated segments
	ack      [8]byte
}

func (p *streamPeer) onTx(frame []byte) {
	if len(frame) != streamSegBytes || binary.LittleEndian.Uint64(frame) != p.expected {
		p.bad++
		return
	}
	p.expected++
	if (p.expected-p.isn)%streamAckEvery == 0 {
		binary.LittleEndian.PutUint64(p.ack[:], p.expected)
		p.nic.InjectRx(p.ack[:])
	}
}

type streamBench struct {
	*netRig
	peer  *streamPeer
	owner *caps.Principal
	isn   uint64
	// next and acked count segments from the start of the run.
	next, acked uint64
	sendNs      [2 * streamWindow]int64
	rxMax       int
	drains      uint64
	drained     uint64
}

func bootStream(mode core.Mode, in *streamInputs) (bench, setupInfo, error) {
	r, si, err := bootNet(mode)
	if err != nil {
		return nil, si, err
	}
	b := &streamBench{netRig: r, isn: in.isn}
	b.peer = &streamPeer{nic: r.drv.Nic, isn: in.isn, expected: in.isn}
	r.drv.Nic.OnTx = b.peer.onTx
	r.drv.Nic.SetBatchRx(true)
	// The skbs are owned by the device principal, as a module-originated
	// packet would be, so DrainTx re-validates every element's WRITE
	// capability through the check cache before the batch crossing.
	b.owner = r.drv.M.Set.Instance(r.drv.Dev)
	return b, si, nil
}

// window runs whole transfers until the deadline (or o.maxOps segments).
func (b *streamBench) window(o runOpts, p *Pass) error {
	if o.trace {
		b.th.EnableTrace() // feeds the monitor's sampled crossing latencies
	}
	tp := p.thread(0)
	start := nowNs()
	deadline := start + int64(o.window)
	tp.begin(start, o.window)
	from, drains, drained := b.acked, b.drains, b.drained
	for {
		if err := b.transfer(tp); err != nil {
			return err
		}
		if o.maxOps > 0 && b.acked-from >= o.maxOps {
			break
		}
		if nowNs() >= deadline && o.maxOps == 0 {
			break
		}
	}
	p.elapsedNs = nowNs() - start
	p.rxPendingMax = b.rxMax
	p.drains, p.drained = b.drains-drains, b.drained-drained
	return nil
}

// transfer sends streamTransfer segments under the window and returns once
// all of them are acked. An op is one segment; its latency runs from its
// enqueue to the cumulative ack that covers it.
func (b *streamBench) transfer(tp *threadPass) error {
	tr := tp.tr
	st, t, dev, as := b.st, b.th, b.drv.Dev, b.k.Sys.AS
	total := b.next + streamTransfer
	queued := 0
	drain := func() error {
		for queued > 0 {
			t0 := nowNs()
			tr.Begin(spanNetDrain)
			consumed, denied, err := st.DrainTx(t, dev, streamBudget)
			tr.End()
			t1 := nowNs()
			tp.at(t1).cls[clsWrite].Record(t1 - t0)
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if denied != 0 || consumed == 0 {
				return fmt.Errorf("drain: consumed %d, denied %d of %d queued", consumed, denied, queued)
			}
			b.drains++
			b.drained += uint64(consumed)
			queued -= consumed
		}
		return nil
	}
	for b.acked < total {
		tr.Begin(spanOp)
		sent := b.next
		for b.next < total && b.next-b.acked < streamWindow {
			t0 := nowNs()
			tr.Begin(spanNetAlloc)
			skb, err := st.AllocSkb(streamSegBytes)
			tr.End()
			if err != nil {
				return fmt.Errorf("alloc_skb: %w", err)
			}
			tr.Begin(spanMemRead)
			head, err := as.ReadU64(st.SkbField(skb, "head"))
			tr.End()
			if err != nil {
				return err
			}
			tr.Begin(spanMemWrite)
			err = as.WriteU64(mem.Addr(head), b.isn+b.next)
			if err == nil {
				err = as.WriteU64(st.SkbField(skb, "len"), streamSegBytes)
			}
			tr.End()
			if err != nil {
				return err
			}
			tr.Begin(spanCapsGrant)
			b.k.Sys.Caps.Grant(b.owner, caps.WriteCap(skb, st.SkbSize()))
			tr.End()
			tr.Begin(spanNetEnqueue)
			err = st.EnqueueTx(t, dev, skb, b.owner)
			tr.End()
			if err != nil {
				return fmt.Errorf("enqueue: %w", err)
			}
			t1 := nowNs()
			tp.at(t1).cls[clsMeta].Record(t1 - t0)
			b.sendNs[b.next%uint64(len(b.sendNs))] = t1
			b.next++
			tp.attempted++
			if queued++; queued == streamBudget {
				if err := drain(); err != nil {
					return err
				}
			}
		}
		if err := drain(); err != nil {
			return err
		}

		// Ack round: NAPI polls the peer's acks into the backlog, then the
		// socket layer reads the highest cumulative ack.
		t0 := nowNs()
		if n := b.drv.Nic.RxPending(); n > b.rxMax {
			b.rxMax = n
		}
		for b.drv.Nic.RxPending() > 0 {
			tr.Begin(spanNetPoll)
			_, err := st.Poll(t, dev, streamBudget)
			tr.End()
			if err != nil {
				return fmt.Errorf("poll: %w", err)
			}
		}
		acked := b.acked
		for {
			tr.Begin(spanNetPopFree)
			skb := st.PopRx()
			tr.End()
			if skb == 0 {
				break
			}
			tr.Begin(spanMemRead)
			head, err := as.ReadU64(st.SkbField(skb, "head"))
			var cum uint64
			if err == nil {
				cum, err = as.ReadU64(mem.Addr(head))
			}
			tr.End()
			tr.Begin(spanNetPopFree)
			st.FreeSkb(skb)
			tr.End()
			if err != nil {
				return err
			}
			if rel := cum - b.isn; rel > acked && rel <= b.next {
				acked = rel
			}
		}
		now := nowNs()
		sl := tp.at(now)
		sl.cls[clsRead].Record(now - t0)
		for s := b.acked; s < acked; s++ {
			sl.all.Record(now - b.sendNs[s%uint64(len(b.sendNs))])
		}
		sl.ops += acked - b.acked
		sl.bytes += (acked - b.acked) * streamPayload
		progress := acked != b.acked || b.next != sent
		b.acked = acked
		tr.End()
		if !progress {
			return fmt.Errorf("stream stalled at ack %d of %d sent", b.acked, b.next)
		}
	}
	return nil
}

// check verifies complete, in-order delivery of every segment sent.
func (b *streamBench) check(p *Pass) error {
	if b.peer.bad != 0 {
		return fmt.Errorf("stream: %d segments short or out of order", b.peer.bad)
	}
	if got := b.peer.expected - b.isn; got != b.next || b.acked != b.next {
		return fmt.Errorf("stream: sent %d, delivered %d, acked %d", b.next, got, b.acked)
	}
	return nil
}

// --- rr ---

// rrInputs is what the seed decides for rr: the first request sequence
// number and the key the peer folds into every echo.
type rrInputs struct{ isn, key uint64 }

// rrPeer answers each 64-byte request with a 64-byte response carrying the
// request's sequence number XOR the key, from one preallocated frame.
type rrPeer struct {
	nic  *e1000sim.Nic
	key  uint64
	bad  uint64
	resp [rrBytes]byte
}

func (p *rrPeer) onTx(frame []byte) {
	if len(frame) != rrBytes {
		p.bad++
		return
	}
	binary.LittleEndian.PutUint64(p.resp[:], binary.LittleEndian.Uint64(frame)^p.key)
	p.nic.InjectRx(p.resp[:])
}

type rrBench struct {
	*netRig
	peer *rrPeer
	isn  uint64
	n    uint64 // transactions started
}

func bootRR(mode core.Mode, in *rrInputs) (bench, setupInfo, error) {
	r, si, err := bootNet(mode)
	if err != nil {
		return nil, si, err
	}
	b := &rrBench{netRig: r, isn: in.isn}
	b.peer = &rrPeer{nic: r.drv.Nic, key: in.key}
	r.drv.Nic.OnTx = b.peer.onTx
	return b, si, nil
}

// window runs transactions back to back until the deadline (or o.maxOps).
// A transaction is: build the request skb (meta), transmit it through
// per-packet XmitSkb (write), poll the response in and check the echo
// (read).
func (b *rrBench) window(o runOpts, p *Pass) error {
	st, t, dev, as := b.st, b.th, b.drv.Dev, b.k.Sys.AS
	if o.trace {
		b.th.EnableTrace() // feeds the monitor's sampled crossing latencies
	}
	tp := p.thread(0)
	tr := tp.tr
	start := nowNs()
	deadline := start + int64(o.window)
	tp.begin(start, o.window)
	for {
		tr.Begin(spanOp)
		seq := b.isn + b.n
		b.n++
		tp.attempted++
		t0 := nowNs()
		tr.Begin(spanNetAlloc)
		skb, err := st.AllocSkb(rrBytes)
		tr.End()
		if err != nil {
			return fmt.Errorf("alloc_skb: %w", err)
		}
		tr.Begin(spanMemRead)
		head, err := as.ReadU64(st.SkbField(skb, "head"))
		tr.End()
		if err != nil {
			return err
		}
		tr.Begin(spanMemWrite)
		err = as.WriteU64(mem.Addr(head), seq)
		if err == nil {
			err = as.WriteU64(st.SkbField(skb, "len"), rrBytes)
		}
		tr.End()
		if err != nil {
			return err
		}
		t1 := nowNs()
		tr.Begin(spanNetXmit)
		ret, err := st.XmitSkb(t, dev, skb)
		tr.End()
		if err != nil || ret != 0 {
			return fmt.Errorf("xmit: ret %d: %v", int64(ret), err)
		}
		t2 := nowNs()
		tr.Begin(spanNetPoll)
		_, err = st.Poll(t, dev, 1)
		tr.End()
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		tr.Begin(spanNetPopFree)
		rskb := st.PopRx()
		tr.End()
		var echo, rlen uint64
		if rskb != 0 {
			tr.Begin(spanMemRead)
			rhead, rerr := as.ReadU64(st.SkbField(rskb, "head"))
			if rerr == nil {
				echo, rerr = as.ReadU64(mem.Addr(rhead))
			}
			if rerr == nil {
				rlen, rerr = as.ReadU64(st.SkbField(rskb, "len"))
			}
			tr.End()
			tr.Begin(spanNetPopFree)
			st.FreeSkb(rskb)
			tr.End()
			if rerr != nil {
				return rerr
			}
		}
		t3 := nowNs()
		tr.End()
		sl := tp.at(t3)
		if rskb == 0 || rlen != rrBytes || echo != seq^b.peer.key {
			tp.failed++
		} else {
			sl.ops++
			sl.bytes += 2 * rrBytes
		}
		sl.cls[clsMeta].Record(t1 - t0)
		sl.cls[clsWrite].Record(t2 - t1)
		sl.cls[clsRead].Record(t3 - t2)
		sl.all.Record(t3 - t0)
		if o.maxOps > 0 {
			if tp.attempted >= o.maxOps {
				break
			}
		} else if t3 >= deadline {
			break
		}
	}
	p.elapsedNs = nowNs() - start
	return nil
}

func (b *rrBench) check(p *Pass) error {
	if b.peer.bad != 0 {
		return fmt.Errorf("rr: %d malformed requests on the wire", b.peer.bad)
	}
	if n := b.st.BacklogLen(); n != 0 {
		return fmt.Errorf("rr: %d unread responses", n)
	}
	return nil
}
