package core

// Flight-recorder wiring: how the crossing engine feeds internal/trace.
//
// A thread's ring (t.rec) is per-CPU context like the shadow stack and
// check cache — unsynchronized, owner-written. Tracing costs one nil
// check per crossing when off; when on, one ~112-byte struct store per
// crossing plus, on the latency-sampling grid, two monotonic clock
// reads and one atomic histogram add. The shared Metrics registry is
// only touched from the hot path for those sampled observations.
//
// Lock order: the ring takes no locks at all; Metrics.Latency is
// atomic and Metrics' violation-map mutex is a leaf acquired only on
// the cold violation path (never while any monitor, caps, or vfs lock
// is wanted afterwards).

import (
	"lxfi/internal/caps"
	"lxfi/internal/mem"
	"lxfi/internal/trace"
)

// EnableTracing attaches a flight-recorder ring to every thread the
// system creates from now on. Threads that already exist are left
// untouched: attaching to a live thread would race with its owning
// goroutine, so callers enable tracing before spawning the threads
// they care about (or use Thread.EnableTrace on a thread they own).
func (s *System) EnableTracing() { s.tracing.Store(true) }

// EnableTrace attaches a fresh default-sized ring to the thread and
// returns it. Owner-only, like every other mutation of per-thread
// state.
func (t *Thread) EnableTrace() *trace.Ring {
	t.rec = trace.NewRing(trace.DefaultEvents, trace.DefaultSampleEvery)
	return t.rec
}

// TraceRing returns the thread's flight-recorder ring (nil when
// tracing is off). Reading the ring is only safe from the owning
// goroutine or once the thread is quiesced (joined, or inside a hook
// that runs on the thread itself, like Monitor.OnViolationThread).
func (t *Thread) TraceRing() *trace.Ring { return t.rec }

// traceCtx carries a crossing's entry-side recorder state from
// traceBegin to traceEnd.
type traceCtx struct {
	checks  uint64
	misses  uint64
	t0      int64
	sampled bool
}

// traceBegin opens a crossing event: it snapshots the thread's
// lifetime check counters (so the exit side can attribute the delta to
// this crossing) and stamps the clock if the event falls on the
// latency-sampling grid. Callers have already checked t.rec != nil.
func (t *Thread) traceBegin() (c traceCtx) {
	c.checks = t.lifeChecks + t.pendChecks
	c.misses = t.lifeMisses + t.pendMisses
	if t.rec.Sampled() {
		c.sampled = true
		c.t0 = trace.Now()
	}
	return c
}

// traceEnd records a completed crossing. Failed crossings do not come
// here — their violation event (traceViolation) is the record.
func (t *Thread) traceEnd(kind trace.Kind, name string, m *Module, p *caps.Principal, addr mem.Addr, c traceCtx) {
	lat := int64(-1)
	if c.sampled {
		lat = trace.Now() - c.t0
		t.mon.Metrics.Latency.Observe(lat)
	}
	e := t.rec.Next()
	e.Kind = kind
	e.Name = name
	e.Module = moduleName(m)
	e.Prin = prinRef(p)
	e.Addr = uint64(addr)
	e.Epoch = t.csys.Epoch()
	e.Checks = sat16(t.lifeChecks + t.pendChecks - c.checks)
	e.Misses = sat16(t.lifeMisses + t.pendMisses - c.misses)
	e.LatencyNs = lat
}

// traceViolation records a violation event on the thread's ring (the
// guard verdict side of the recorder). Latency is never sampled here —
// the violation path is cold and has no matching entry stamp.
func (t *Thread) traceViolation(v *Violation, p *caps.Principal) {
	if t.rec == nil {
		return
	}
	t.rec.Record(trace.Event{
		Kind:      trace.KindViolation,
		Denied:    true,
		Name:      v.Op,
		Module:    v.Module,
		Prin:      prinRef(p),
		Addr:      uint64(v.Addr),
		Epoch:     t.csys.Epoch(),
		LatencyNs: -1,
		Detail:    v.Detail,
	})
}

// prinRef wraps a principal for event storage without allocating: a
// plain *caps.Principal in a pre-declared interface type is a
// pointer-shaped iface, and a nil pointer must stay a nil interface so
// snapshots can detect kernel context.
func prinRef(p *caps.Principal) trace.PrincipalRef {
	if p == nil {
		return nil
	}
	return p
}

func sat16(v uint64) uint16 {
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}
