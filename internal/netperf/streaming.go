package netperf

// Streaming phase: a windowed, TCP-like bulk transfer over e1000sim —
// the workload class where the paper's Fig. 12 shows enforcement
// disappearing into the noise (TCP sustains line rate) while per-packet
// tests pay 2.2–3.7x CPU. The sender pushes MTU-sized segments with an
// 8-byte sequence header under a fixed window; a peer wired to the
// NIC's TX side verifies in-order delivery and returns cumulative acks,
// which flow back through the NAPI poll path.
//
// The phase runs the transfer both ways on each build: per-packet (one
// ndo_start_xmit crossing per segment, one alloc_skb + netif_rx pair
// per ack) and batched (EnqueueTx/DrainTx with a budget on TX,
// alloc_skb_batch/netif_rx_batch on RX), reporting bytes/sec, measured
// crossings per byte for both paths, and the enforced/stock CPU ratio —
// the Fig. 12 asymmetry, reproduced rather than transcribed.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

const (
	// StreamSegBytes is one streaming segment on the wire: an 8-byte
	// sequence header plus an MTU-sized TCP payload.
	StreamSegBytes = 8 + TCPPayload

	// StreamWindow is the sender window in segments.
	StreamWindow = 32

	// StreamBatchBudget is the TX drain / RX poll batch budget — the
	// "B" of the crossings-per-byte target.
	StreamBatchBudget = 8

	// StreamAckEvery is the peer's delayed-ack cadence: one cumulative
	// ack per this many segments, as a TCP receiver coalesces acks.
	// Transfers are rounded up to a multiple of it so the final segment
	// always draws the ack that closes the window.
	StreamAckEvery = 4

	streamReloads = 2
)

// roundStreamSegs rounds a segment count up to the ack cadence.
func roundStreamSegs(n int) int {
	return (n + StreamAckEvery - 1) / StreamAckEvery * StreamAckEvery
}

// StreamingCosts holds the streaming phase results.
type StreamingCosts struct {
	Segments    int
	Window      int
	BatchBudget int

	// BytesPerSec is batched-path goodput per build.
	BytesPerSec map[core.Mode]float64
	// CPURatio is the batched transfer's median enforced time over its
	// median stock time.
	CPURatio float64

	// Crossings per byte under enforcement, per data path.
	PerPktCrossingsPerByte float64
	BatchCrossingsPerByte  float64

	// Reload sub-phase: reloads performed per mode while a transfer
	// streamed, and the delivery failures observed (must be zero).
	Reloads   int
	Dropped   uint64
	Reordered uint64
}

// streamPeer is the remote end of the wire: it consumes frames from the
// NIC's TX side, tracks sequence continuity, and injects cumulative
// acks back into the NIC's RX queue from one ack frame of its own
// (InjectRx copies it).
type streamPeer struct {
	rig       *Rig
	expected  uint64
	received  uint64
	reordered uint64
	ack       [8]byte
}

func (p *streamPeer) onTx(frame []byte) {
	if len(frame) < 8 {
		return
	}
	seq := binary.LittleEndian.Uint64(frame[:8])
	if seq == p.expected {
		p.expected++
	} else {
		atomic.AddUint64(&p.reordered, 1)
		if seq >= p.expected {
			p.expected = seq + 1
		}
	}
	p.received++
	// Delayed ack: one cumulative ack per StreamAckEvery segments.
	if p.expected%StreamAckEvery == 0 {
		binary.LittleEndian.PutUint64(p.ack[:], p.expected)
		p.rig.Drv.Nic.InjectRx(p.ack[:])
	}
}

// reset rewinds the peer for a fresh transfer (sequence numbers restart
// at zero).
func (p *streamPeer) reset() { p.expected, p.received, p.reordered = 0, 0, 0 }

// attachPeer wires a fresh peer to the rig's NIC.
func attachPeer(rig *Rig) *streamPeer {
	p := &streamPeer{rig: rig}
	rig.Drv.Nic.OnTx = p.onTx
	return p
}

// streamTransfer pushes `segments` segments through the device under a
// fixed window, draining acks as they arrive. In batch mode segments
// queue on the qdisc and drain through ndo_start_xmit_batch; otherwise
// each segment takes the per-packet XmitSkb path.
func (r *Rig) streamTransfer(t *core.Thread, segments int, batch bool) error {
	st := r.Stack
	dev := r.Drv.Dev
	as := r.K.Sys.AS
	total := uint64(segments)
	var next, acked uint64
	queued := 0

	drain := func() error {
		for queued > 0 {
			consumed, _, err := st.DrainTx(t, dev, StreamBatchBudget)
			if err != nil {
				return err
			}
			if consumed == 0 {
				return fmt.Errorf("netperf: streaming drain stalled with %d queued", queued)
			}
			queued -= consumed
		}
		return nil
	}

	rounds := 0
	for acked < total {
		if rounds++; rounds > segments*4+64 {
			return fmt.Errorf("netperf: streaming stalled at ack %d/%d", acked, total)
		}
		for next < total && next-acked < StreamWindow {
			skb, err := st.AllocSkb(StreamSegBytes)
			if err != nil {
				return err
			}
			data, err := as.ReadU64(st.SkbField(skb, "head"))
			if err != nil {
				return err
			}
			if err := as.WriteU64(mem.Addr(data), next); err != nil {
				return err
			}
			if err := as.WriteU64(st.SkbField(skb, "len"), StreamSegBytes); err != nil {
				return err
			}
			if batch {
				if err := st.EnqueueTx(t, dev, skb, nil); err != nil {
					return err
				}
				if queued++; queued >= StreamBatchBudget {
					if err := drain(); err != nil {
						return err
					}
				}
			} else {
				ret, err := st.XmitSkb(t, dev, skb)
				if err != nil {
					return err
				}
				if ret != 0 {
					return fmt.Errorf("netperf: streaming xmit returned %d", int64(ret))
				}
			}
			next++
		}
		if batch {
			if err := drain(); err != nil {
				return err
			}
		}
		// Drain the ack flow: NAPI poll moves the peer's cumulative acks
		// into the protocol backlog, then the "socket layer" reads them.
		for r.Drv.Nic.RxPending() > 0 {
			if _, err := st.Poll(t, dev, StreamBatchBudget); err != nil {
				return err
			}
		}
		for {
			skb := st.PopRx()
			if skb == 0 {
				break
			}
			data, err := as.ReadU64(st.SkbField(skb, "head"))
			if err != nil {
				return err
			}
			cum, err := as.ReadU64(mem.Addr(data))
			if err != nil {
				return err
			}
			if cum > acked {
				acked = cum
			}
			st.FreeSkb(skb)
		}
	}
	return nil
}

// runStream executes one verified transfer and returns its wall time.
func runStream(rig *Rig, peer *streamPeer, segments int, batch bool) (time.Duration, error) {
	segments = roundStreamSegs(segments)
	peer.reset()
	rig.Drv.Nic.SetBatchRx(batch)
	start := time.Now()
	if err := rig.streamTransfer(rig.Th, segments, batch); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if peer.received != uint64(segments) {
		return 0, fmt.Errorf("netperf: streaming dropped %d of %d segments",
			uint64(segments)-peer.received, segments)
	}
	if n := atomic.LoadUint64(&peer.reordered); n != 0 {
		return 0, fmt.Errorf("netperf: streaming reordered %d segments", n)
	}
	return elapsed, nil
}

// MeasureStreaming runs the streaming phase: batched transfers timed on
// a stock and an enforced rig booted side by side and sampled with
// benchio.Interleave, crossings/byte for both data paths under
// enforcement, and the reload-under-streaming sub-phase.
func MeasureStreaming(segments int) (*StreamingCosts, error) {
	segments = roundStreamSegs(segments)
	out := &StreamingCosts{
		Segments:    segments,
		Window:      StreamWindow,
		BatchBudget: StreamBatchBudget,
		BytesPerSec: make(map[core.Mode]float64),
		Reloads:     streamReloads,
	}
	bytes := float64(segments) * StreamSegBytes

	stock, err := NewRig(core.Off)
	if err != nil {
		return nil, err
	}
	defer stock.K.Shutdown()
	lxfi, err := NewRig(core.Enforce)
	if err != nil {
		return nil, err
	}
	defer lxfi.K.Shutdown()
	run := func(rig *Rig, peer *streamPeer) func() (float64, error) {
		return func() (float64, error) {
			elapsed, err := runStream(rig, peer, segments, true)
			return elapsed.Seconds(), err
		}
	}
	peer := attachPeer(lxfi)
	secs, err := benchio.Interleave(run(stock, attachPeer(stock)), run(lxfi, peer))
	if err != nil {
		return nil, err
	}
	out.BytesPerSec[core.Off] = bytes / secs[0]
	out.BytesPerSec[core.Enforce] = bytes / secs[1]
	out.CPURatio = secs[1] / secs[0]

	// Crossings per byte, measured over one transfer per path.
	for _, batch := range []bool{false, true} {
		before := lxfi.K.Sys.Mon.Stats.Snapshot()
		if _, err := runStream(lxfi, peer, segments, batch); err != nil {
			return nil, err
		}
		d := lxfi.K.Sys.Mon.Stats.Snapshot().Sub(before)
		perByte := float64(d.FuncEntries) / bytes
		if batch {
			out.BatchCrossingsPerByte = perByte
		} else {
			out.PerPktCrossingsPerByte = perByte
		}
	}
	if n := len(lxfi.K.Sys.Mon.Violations()); n != 0 {
		return nil, fmt.Errorf("netperf: streaming (%s): %d violations: %v",
			core.Enforce, n, lxfi.K.Sys.Mon.LastViolation())
	}

	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		dropped, reordered, err := streamAcrossReload(mode, segments)
		if err != nil {
			return nil, err
		}
		out.Dropped += dropped
		out.Reordered += reordered
	}
	return out, nil
}

// streamAcrossReload runs a batched transfer on a worker thread while
// the main thread hot-reloads the e1000 driver, and reports delivery
// failures. The NIC (and with it the peer's wire and in-flight ack
// queue) survives the reload; stale crossings park at the quiesced
// gates and redirect to the successor generation, so the stream must
// come through complete and in order.
func streamAcrossReload(mode core.Mode, segments int) (dropped, reordered uint64, err error) {
	segments = roundStreamSegs(segments)
	rig, err := NewRig(mode)
	if err != nil {
		return 0, 0, err
	}
	defer rig.K.Shutdown()
	peer := attachPeer(rig)
	peer.reset()
	rig.Drv.Nic.SetBatchRx(true)

	var werr error
	done := make(chan struct{})
	h := rig.K.Sys.Spawn("netperf-stream", func(t *core.Thread) {
		defer close(done)
		werr = rig.streamTransfer(t, segments, true)
	})

	// Reload only while the transfer is genuinely in flight.
	for i := 0; i < streamReloads; i++ {
		if _, err := rig.Ld.Reload(rig.Th, "e1000"); err != nil {
			<-done
			h.Join()
			return 0, 0, fmt.Errorf("netperf: streaming reload %d (%s): %w", i, mode, err)
		}
		select {
		case <-done:
		default:
		}
	}
	<-done
	h.Join()
	if werr != nil {
		return 0, 0, fmt.Errorf("netperf: streaming under reload (%s): %w", mode, werr)
	}
	if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
		return 0, 0, fmt.Errorf("netperf: streaming under reload (%s): %d violations: %v",
			mode, n, rig.K.Sys.Mon.LastViolation())
	}
	if peer.received < uint64(segments) {
		dropped = uint64(segments) - peer.received
	}
	return dropped, atomic.LoadUint64(&peer.reordered), nil
}

// CrossingsReduction is how many times fewer crossings per byte the
// batched path takes than the per-packet one.
func (s *StreamingCosts) CrossingsReduction() float64 {
	if s.BatchCrossingsPerByte <= 0 {
		return 0
	}
	return s.PerPktCrossingsPerByte / s.BatchCrossingsPerByte
}

// FormatStreaming renders the streaming phase lines.
func FormatStreaming(s *StreamingCosts) string {
	return fmt.Sprintf(
		"%-20s %9.1f MB/s %9.1f MB/s %7.2fx  (window %d, budget %d)\n"+
			"%-20s %9.4f /KB %10.4f /KB %7.1fx fewer crossings\n"+
			"%-20s %d reloads under stream: %d dropped, %d reordered\n",
		"streaming", s.BytesPerSec[core.Off]/1e6, s.BytesPerSec[core.Enforce]/1e6, s.CPURatio,
		s.Window, s.BatchBudget,
		"  crossings", s.PerPktCrossingsPerByte*1024, s.BatchCrossingsPerByte*1024, s.CrossingsReduction(),
		"  reload", s.Reloads*2, s.Dropped, s.Reordered)
}
