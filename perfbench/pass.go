package main

import (
	"fmt"
	"runtime"
	"time"

	"lxfi/internal/core"
)

// runOpts sets how one pass runs.
type runOpts struct {
	window time.Duration
	// maxOps, when non-zero, ends the window after this many ops per
	// thread instead of at the deadline (tests use it for exact counts).
	maxOps uint64
	trace  bool
}

// nSlices is how many equal slices an untraced window is cut into; the
// end-to-end metrics are the median over the slices.
const nSlices = 20

// Op classes: each workload splits its ops into data in, data out and
// control (see README.md).
const (
	clsRead = iota
	clsWrite
	clsMeta
	nClasses
)

// slice is what one thread measured in one slice of the window.
type slice struct {
	all   Hist
	cls   [nClasses]Hist
	ops   uint64
	bytes uint64 // payload bytes delivered
}

func (s *slice) merge(o *slice) {
	s.all.Merge(&o.all)
	for c := range s.cls {
		s.cls[c].Merge(&o.cls[c])
	}
	s.ops += o.ops
	s.bytes += o.bytes
}

// threadPass is one client thread's measurements. A thread writes only
// its own threadPass, so the window needs no locking.
type threadPass struct {
	sl                [nSlices]slice
	tr                *Tracer // nil when untraced
	attempted, failed uint64
	start, sliceLen   int64
}

// begin starts the thread's window at start.
func (tp *threadPass) begin(start int64, window time.Duration) {
	tp.start, tp.sliceLen = start, int64(window)/nSlices+1
}

// at returns the slice time t falls in; time past the deadline counts
// in the last slice.
func (tp *threadPass) at(t int64) *slice {
	j := (t - tp.start) / tp.sliceLen
	if j < 0 {
		j = 0
	} else if j >= nSlices {
		j = nSlices - 1
	}
	return &tp.sl[j]
}

// Pass is one timed window on one freshly booted rig. Every Pass is
// allocated before set-up, so the harness's own buffers stay out of the
// heap figure.
type Pass struct {
	thr       [fsThreads]threadPass
	traces    [fsThreads]Tracer
	elapsedNs int64
	active    int

	// Layer state the workloads fill in.
	overlap      float64
	rxPendingMax int
	drains       uint64
	drained      uint64

	d        counters // counter deltas over the window
	crossP50 float64  // sampled crossing latency p50, ns (traced only)
	setup    setupInfo
}

func (p *Pass) thread(i int) *threadPass { return &p.thr[i] }

// reset clears the pass for reuse, enabling span recording if traced.
func (p *Pass) reset(trace bool, active int) {
	*p = Pass{active: active}
	if trace {
		for i := range p.thr {
			p.thr[i].tr = &p.traces[i]
		}
	}
}

// merged is a pass folded over its active threads.
type merged struct {
	total             slice
	slices            [nSlices]slice
	attempted, failed uint64
	tr                *Tracer // nil when untraced
}

func (p *Pass) merged() *merged {
	m := &merged{}
	for i := 0; i < p.active; i++ {
		t := &p.thr[i]
		for j := range t.sl {
			m.slices[j].merge(&t.sl[j])
			m.total.merge(&t.sl[j])
		}
		m.attempted += t.attempted
		m.failed += t.failed
		if t.tr != nil {
			if m.tr == nil {
				m.tr = &Tracer{}
			}
			m.tr.Merge(t.tr)
		}
	}
	return m
}

// sliceSeconds is the length of slice j; the last slice runs to the end
// of the window.
func (p *Pass) sliceSeconds(j int) float64 {
	l := p.thr[0].sliceLen
	if j == nSlices-1 {
		return float64(p.elapsedNs-int64(j)*l) / 1e9
	}
	return float64(l) / 1e9
}

func (p *Pass) seconds() float64 { return float64(p.elapsedNs) / 1e9 }

// ops counts the ops completed in the window.
func (p *Pass) ops() uint64 {
	var n uint64
	for i := 0; i < p.active; i++ {
		for j := range p.thr[i].sl {
			n += p.thr[i].sl[j].ops
		}
	}
	return n
}

// setupInfo is one rig's set-up: the whole of it, and the module loads
// and mounts inside it.
type setupInfo struct {
	totalNs int64
	loadNs  int64
	mountNs []int64
}

// counters is the public layer state read before and after a window.
type counters struct {
	mon                                core.Snapshot
	epoch                              uint64
	mallocs, allocBytes                uint64
	numGC                              uint32
	irqs, txDenied                     uint64
	dcacheHits, dcacheMiss             uint64
	pageFills, pageWrites, evictWrites uint64
	bytesWritten, secReads, secWrites  uint64
}

func (c counters) sub(o counters) counters {
	return counters{
		mon:          c.mon.Sub(o.mon),
		epoch:        c.epoch - o.epoch,
		mallocs:      c.mallocs - o.mallocs,
		allocBytes:   c.allocBytes - o.allocBytes,
		numGC:        c.numGC - o.numGC,
		irqs:         c.irqs - o.irqs,
		txDenied:     c.txDenied - o.txDenied,
		dcacheHits:   c.dcacheHits - o.dcacheHits,
		dcacheMiss:   c.dcacheMiss - o.dcacheMiss,
		pageFills:    c.pageFills - o.pageFills,
		pageWrites:   c.pageWrites - o.pageWrites,
		evictWrites:  c.evictWrites - o.evictWrites,
		bytesWritten: c.bytesWritten - o.bytesWritten,
		secReads:     c.secReads - o.secReads,
		secWrites:    c.secWrites - o.secWrites,
	}
}

// bench is one booted rig running one workload.
type bench interface {
	sys() *core.System
	counters(c *counters)
	window(o runOpts, p *Pass) error
	check(p *Pass) error
	close()
}

func readCounters(b bench) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sys := b.sys()
	c := counters{mon: sys.Mon.Stats.Snapshot(), epoch: sys.Caps.Epoch(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC}
	b.counters(&c)
	return c
}

// measure runs one pass on a booted rig: a warm-up window, then the timed
// window, with layer counters read around it. The rig is left open.
func measure(b bench, o runOpts, warm time.Duration, p, scratch *Pass) error {
	scratch.reset(false, p.active)
	if err := b.window(runOpts{window: warm, maxOps: o.maxOps}, scratch); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	before := readCounters(b)
	if err := b.window(o, p); err != nil {
		return err
	}
	p.d = readCounters(b).sub(before)
	sys := b.sys()
	if o.trace {
		p.crossP50 = sampledP50(sys.Metrics())
	}
	if n := len(sys.Mon.Violations()); n != 0 {
		return fmt.Errorf("%d monitor violations, last: %v", n, sys.Mon.LastViolation())
	}
	if p.d.txDenied != 0 {
		return fmt.Errorf("netstack denied %d skbs", p.d.txDenied)
	}
	return b.check(p)
}

// sampledP50 interpolates the median of the monitor's log2 crossing-latency
// histogram (bucket i holds latencies in (LeNs/2, LeNs]).
func sampledP50(m core.MetricsSnapshot) float64 {
	if m.LatencySamples == 0 {
		return 0
	}
	rank := 0.5 * float64(m.LatencySamples)
	var seen float64
	for _, bk := range m.Latency {
		if seen+float64(bk.Count) >= rank {
			lo, hi := float64(bk.LeNs)/2, float64(bk.LeNs)
			return lo + (hi-lo)*(rank-seen)/float64(bk.Count)
		}
		seen += float64(bk.Count)
	}
	return 0
}
