// Crossing microbenchmark: the capability-check engine measured on its
// own, the way Figure 11 measures whole workloads. Four phases cover
// the hot path's regimes:
//
//   - "check cold": every probe misses the per-thread cache (the
//     addresses cycle through a working set far larger than the cache),
//     so each check pays the sharded interval-index lookup.
//   - "check cached": one address probed repeatedly — the per-thread
//     epoch-validated cache answers without locks or allocation. The
//     allocs column is the acceptance gate: 0 allocs/op.
//   - "check contended": one worker thread per shard-spread region,
//     all hammering table checks simultaneously. Under the old global
//     RWMutex this serialized on one lock word; sharded tables keep
//     the workers on distinct locks.
//   - "revoke storm": grant → check(allow) → revoke → check(deny)
//     cycles. Measures the epoch-bump invalidation cost and asserts the
//     security property the cache must never break: a revoked WRITE is
//     never served from a stale cache entry.
//   - "crossing gate": a full module→kernel crossing (wrapper entry,
//     compiled pre/post action programs, shadow stack) through a Gate
//     bound at load time. The acceptance gate: 0 allocs/op.
//   - "crossing named": the same crossing through the string-keyed
//     CallKernel path — the bind-time-resolution delta made visible.
//     Its arguments ride the same crossing stack, so it is held to
//     the same 0 allocs/op.
//   - "crossing batch": one crossing whose annotation checks an
//     8-element pointer array through a capability iterator — the
//     netstack batch-gate shape. Per-element WRITE verdicts ride the
//     per-thread check cache, so the acceptance gate is the same
//     0 allocs/op the scalar crossing holds.
//   - "reload": a full hot reload of a registry module (quiesce,
//     capability snapshot, swap, migration, gate re-bind) with a live
//     instance but no traffic in flight — the service-interruption floor.
//
// The contended row also reports scaling_ratio: its aggregate ns/op
// across the 8 workers divided by the single-thread cached ns/op, so
// shard scaling is pinned as a ratio instead of an absolute number
// that shifts with the runner's core count.
//
// Each phase runs under both builds (stock and enforced), mirroring the
// Figure 11 rows, and the report lands in BENCH_crossings.json for the
// CI perf gate.
package microbench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lxfi/internal/benchio"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	_ "lxfi/internal/modules/all"
	"lxfi/internal/modules/econet"
	"lxfi/internal/netstack"
)

// CrossingRow is one phase of the crossing benchmark.
type CrossingRow struct {
	Op          string
	StockNs     float64
	LxfiNs      float64
	OverheadPct float64
	// AllocsPerOp is the enforced build's heap allocations per op, read
	// from MemStats only by the phases with AllocsMeasured set.
	AllocsPerOp    float64
	AllocsMeasured bool
	Workers        int
	// ScalingRatio is set on the contended phase only: aggregate
	// contended ns/op divided by single-thread cached ns/op, per build.
	// ~1.0 means the shards scale; the old global lock sat well above.
	ScalingRatio      float64
	StockScalingRatio float64
	// TraceOverheadPct is set on the traced phase only: its enforced
	// ns/op against the untraced "crossing gate" row, i.e. the flight
	// recorder's cost.
	TraceOverheadPct float64
}

// crossRig is one booted check-engine bench: a module whose functions
// run tight check loops in module context, so the measured guard is the
// real LxfiCheck path (cache probe inlined into the guard).
type crossRig struct {
	sys *core.System
	th  *core.Thread
	tht *core.Thread // flight-recorder ring attached ("crossing traced")
	m   *core.Module
	p   *caps.Principal

	base mem.Addr
}

// sinkArgBytes is the window the crossing phases' kernel sink checks.
const sinkArgBytes = 8

// coldSet is the cold phase's working set: 4096 distinct 8-byte probes
// share the 64 cache slots, so a slot is always overwritten long before
// its address comes around again.
const coldSet = 4096

// contendedWorkers is the worker count of the contended phase.
const contendedWorkers = 8

// batchElems is the array length of the batched-crossing phase.
const batchElems = 8

func newCrossRig(mode core.Mode) (*crossRig, error) {
	sys := core.NewSystem()
	sys.Mon.SetMode(mode)
	r := &crossRig{sys: sys, th: sys.NewThread("crossings")}
	r.tht = sys.NewThread("crossings-traced")
	r.tht.EnableTrace()
	// xbench_sink is the crossing phases' annotated kernel export: the
	// wrapper runs one compiled pre and one compiled post action per
	// call, the shape of a typical checked export (spin_lock,
	// copy_from_user) without side effects that would grow state.
	sys.RegisterKernelFunc("xbench_sink",
		[]core.Param{core.P("p", "void *"), core.P("n", "u64")},
		"pre(check(write, p, 8)) post(if (return == 0) check(write, p, 8))",
		func(t *core.Thread, a []uint64) uint64 { return 0 })
	// xbench_batch_caps(arr, n): the WRITE capability of each 8-byte
	// target named by an n-element pointer array — the skb_array_caps
	// shape with scalar elements.
	sys.RegisterIterator("xbench_batch_caps",
		func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
			arr, n := mem.Addr(uint64(args[0])), args[1]
			for i := int64(0); i < n && i < batchElems; i++ {
				w, err := sys.AS.ReadU64(arr + mem.Addr(i*8))
				if err != nil || w == 0 {
					continue
				}
				if err := emit(caps.WriteCap(mem.Addr(w), 8)); err != nil {
					return err
				}
			}
			return nil
		})
	// xbench_batch_sink is the batched crossing: one wrapper entry whose
	// pre action walks the array and checks every element.
	sys.RegisterKernelFunc("xbench_batch_sink",
		[]core.Param{core.P("arr", "u64 *"), core.P("n", "u64")},
		"pre(check(xbench_batch_caps(arr, n)))",
		func(t *core.Thread, a []uint64) uint64 { return 0 })
	var gSink, gBatchSink *core.Gate // bound after load
	m, err := sys.LoadModule(core.ModuleSpec{
		Name:     "xbench",
		Imports:  []string{"xbench_sink", "xbench_batch_sink"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			// checks: n repeated probes of one (addr, 8) WRITE — the
			// cached regime.
			{Name: "checks", Params: []core.Param{core.P("n", "u64"), core.P("addr", "u64")},
				Impl: func(t *core.Thread, a []uint64) uint64 {
					c := caps.WriteCap(mem.Addr(a[1]), 8)
					for i := uint64(0); i < a[0]; i++ {
						if t.LxfiCheck(c) != nil {
							return 1
						}
					}
					return 0
				}},
			// crossgate: n full crossings into xbench_sink through the
			// bound gate (lookup-free, allocation-free).
			{Name: "crossgate", Params: []core.Param{core.P("n", "u64"), core.P("addr", "u64")},
				Impl: func(t *core.Thread, a []uint64) uint64 {
					for i := uint64(0); i < a[0]; i++ {
						if ret, err := gSink.Call(t, a[1], sinkArgBytes); err != nil || ret != 0 {
							return 1
						}
					}
					return 0
				}},
			// crossnamed: the same crossings through the string-keyed
			// CallKernel path (per-call symbol lookup).
			{Name: "crossnamed", Params: []core.Param{core.P("n", "u64"), core.P("addr", "u64")},
				Impl: func(t *core.Thread, a []uint64) uint64 {
					for i := uint64(0); i < a[0]; i++ {
						if ret, err := t.CallKernel("xbench_sink", a[1], sinkArgBytes); err != nil || ret != 0 {
							return 1
						}
					}
					return 0
				}},
			// crossbatch: n batched crossings into xbench_batch_sink. The
			// module fills an array in its own data section with
			// batchElems granted addresses, then crosses once per
			// iteration — the annotation checks all 8 elements per call.
			{Name: "crossbatch", Params: []core.Param{core.P("n", "u64"), core.P("addr", "u64")},
				Impl: func(t *core.Thread, a []uint64) uint64 {
					arr := t.CurrentModule().Data + 512
					for i := uint64(0); i < batchElems; i++ {
						if t.WriteU64(arr+mem.Addr(i*8), a[1]+i*8) != nil {
							return 1
						}
					}
					for i := uint64(0); i < a[0]; i++ {
						if ret, err := gBatchSink.Call(t, uint64(arr), batchElems); err != nil || ret != 0 {
							return 1
						}
					}
					return 0
				}},
			// checkscold: n probes cycling through the cold working set.
			{Name: "checkscold", Params: []core.Param{core.P("n", "u64"), core.P("base", "u64")},
				Impl: func(t *core.Thread, a []uint64) uint64 {
					base := mem.Addr(a[1])
					for i := uint64(0); i < a[0]; i++ {
						c := caps.WriteCap(base+mem.Addr((i%coldSet)*8), 8)
						if t.LxfiCheck(c) != nil {
							return 1
						}
					}
					return 0
				}},
		},
	})
	if err != nil {
		return nil, err
	}
	gSink = m.Gate("xbench_sink")
	gBatchSink = m.Gate("xbench_batch_sink")
	r.m, r.p = m, m.Set.Shared()
	// One 32 KiB region for the cold set, plus one page per contended
	// worker two pages apart so the workers' probes land on distinct
	// 4 KiB buckets (and therefore distinct shards when the host has
	// them).
	r.base = mem.Addr(0xffff8800_0100_0000)
	sys.Caps.Grant(r.p, caps.WriteCap(r.base, coldSet*8))
	for w := 0; w < contendedWorkers; w++ {
		sys.Caps.Grant(r.p, caps.WriteCap(r.workerAddr(w), mem.PageSize))
	}
	return r, nil
}

func (r *crossRig) workerAddr(w int) mem.Addr {
	return r.base + mem.Addr(1<<20) + mem.Addr(w)*2*mem.PageSize
}

// timeChecks runs one module check loop and returns (ns/op, allocs/op).
func (r *crossRig) timeChecks(fn string, n int, addr mem.Addr) (float64, float64, error) {
	return r.timeChecksOn(r.th, fn, n, addr)
}

// timeChecksOn is timeChecks on a caller-chosen thread (the traced
// phase runs the same loop on the ring-equipped thread).
func (r *crossRig) timeChecksOn(th *core.Thread, fn string, n int, addr mem.Addr) (float64, float64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ret, err := th.CallModule(r.m, fn, uint64(n), uint64(addr))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil || ret != 0 {
		return 0, 0, fmt.Errorf("microbench: %s loop failed: ret=%d err=%v", fn, ret, err)
	}
	nsOp := float64(elapsed.Nanoseconds()) / float64(n)
	allocsOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return nsOp, allocsOp, nil
}

// timeContended runs the check loop on contendedWorkers spawned kernel
// threads at shard-spread addresses and returns aggregate ns/op.
func (r *crossRig) timeContended(perWorker int) (float64, error) {
	start := make(chan struct{})
	errs := make([]error, contendedWorkers)
	handles := make([]*core.ThreadHandle, contendedWorkers)
	for w := 0; w < contendedWorkers; w++ {
		w := w
		handles[w] = r.sys.Spawn(fmt.Sprintf("xbench-w%d", w), func(t *core.Thread) {
			<-start
			ret, err := t.CallModule(r.m, "checks", uint64(perWorker), uint64(r.workerAddr(w)))
			if err != nil || ret != 0 {
				errs[w] = fmt.Errorf("worker %d: ret=%d err=%v", w, ret, err)
			}
		})
	}
	begin := time.Now()
	close(start)
	for _, h := range handles {
		h.Join()
	}
	span := time.Since(begin)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(span.Nanoseconds()) / float64(perWorker*contendedWorkers), nil
}

// timeRevokeStorm interleaves grant/check/revoke/check cycles through a
// thread's cached check path, asserting that a revoked capability is
// never served from the cache. Returns ns per grant+revoke cycle.
func (r *crossRig) timeRevokeStorm(n int) (float64, error) {
	p := r.p
	th := r.th
	addr := r.base + mem.Addr(2<<20)
	start := time.Now()
	for i := 0; i < n; i++ {
		c := caps.WriteCap(addr+mem.Addr(i%16)*256, 64)
		r.sys.Caps.Grant(p, c)
		if !th.CheckCached(p, c) {
			return 0, fmt.Errorf("microbench: granted cap not visible at iter %d", i)
		}
		r.sys.Caps.RevokeAll(c)
		if th.CheckCached(p, c) {
			return 0, fmt.Errorf("microbench: SECURITY: revoked cap served (stale cache?) at iter %d", i)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// reloadsPerRound is how many back-to-back hot reloads the "reload"
// phase times per round.
const reloadsPerRound = 8

// timeReload measures the full hot-reload latency of a registry module
// (econet on a minimal netstack kernel, with one live socket instance so
// the snapshot and capability migration have real work): quiesce,
// snapshot, swap, migrate, gate re-bind. No traffic is in flight — this
// is the latency floor the fsperf/netperf reload-under-traffic phases
// build on.
func timeReload(mode core.Mode) (float64, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	st := netstack.Init(k)
	th := k.Sys.NewThread("reload-bench")
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Net: st})
	if _, err := ld.Load(th, "econet"); err != nil {
		return 0, err
	}
	if _, err := st.Socket(th, econet.Family); err != nil {
		return 0, err
	}
	if _, err := ld.Reload(th, "econet"); err != nil { // warmup
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reloadsPerRound; i++ {
		if _, err := ld.Reload(th, "econet"); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reloadsPerRound), nil
}

// MeasureCrossings runs all phases under both builds.
func MeasureCrossings(iters int) ([]CrossingRow, error) {
	rows, _, err := MeasureCrossingsWithMetrics(iters)
	return rows, err
}

// MeasureCrossingsWithMetrics is MeasureCrossings plus a snapshot of
// the enforced rig's metrics registry after the run (the -metrics flag
// of cmd/lxfi-microbench).
func MeasureCrossingsWithMetrics(iters int) ([]CrossingRow, *core.MetricsSnapshot, error) {
	if iters < coldSet {
		iters = coldSet
	}
	rows := []CrossingRow{
		{Op: "check cold", Workers: 1, AllocsMeasured: true},
		{Op: "check cached", Workers: 1, AllocsMeasured: true},
		{Op: "check contended", Workers: contendedWorkers},
		{Op: "revoke storm", Workers: 1},
		{Op: "crossing gate", Workers: 1, AllocsMeasured: true},
		{Op: "crossing named", Workers: 1, AllocsMeasured: true},
		{Op: "crossing batch", Workers: 1, AllocsMeasured: true},
		{Op: "crossing traced", Workers: 1, AllocsMeasured: true},
		{Op: "reload", Workers: 1},
	}
	var metrics *core.MetricsSnapshot
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r, err := newCrossRig(mode)
		if err != nil {
			return nil, nil, err
		}
		set := func(i int, ns, allocs float64) {
			if mode == core.Off {
				rows[i].StockNs = ns
			} else {
				rows[i].LxfiNs = ns
				rows[i].AllocsPerOp = allocs
			}
		}
		// Warmup, then best-of-rounds like the other benches. The traced
		// thread warms up too so its ring and caches are hot.
		if _, _, err := r.timeChecks("checks", iters/10+1, r.workerAddr(0)); err != nil {
			return nil, nil, err
		}
		if _, _, err := r.timeChecksOn(r.tht, "crossgate", iters/10+1, r.workerAddr(0)); err != nil {
			return nil, nil, err
		}
		const rounds = 3
		type phase struct {
			idx int
			run func() (float64, float64, error)
		}
		phases := []phase{
			{0, func() (float64, float64, error) { return r.timeChecks("checkscold", iters, r.base) }},
			{1, func() (float64, float64, error) { return r.timeChecks("checks", iters, r.workerAddr(0)) }},
			{2, func() (float64, float64, error) {
				ns, err := r.timeContended(iters / contendedWorkers)
				return ns, 0, err
			}},
			{3, func() (float64, float64, error) { ns, err := r.timeRevokeStorm(iters / 4); return ns, 0, err }},
			{4, func() (float64, float64, error) { return r.timeChecks("crossgate", iters, r.workerAddr(0)) }},
			{5, func() (float64, float64, error) { return r.timeChecks("crossnamed", iters, r.workerAddr(0)) }},
			{6, func() (float64, float64, error) { return r.timeChecks("crossbatch", iters, r.workerAddr(0)) }},
			{8, func() (float64, float64, error) { ns, err := timeReload(mode); return ns, 0, err }},
		}
		for _, ph := range phases {
			best, bestAllocs := 0.0, 0.0
			for round := 0; round < rounds; round++ {
				ns, allocs, err := ph.run()
				if err != nil {
					return nil, nil, err
				}
				if best == 0 || ns < best {
					best, bestAllocs = ns, allocs
				}
			}
			set(ph.idx, best, bestAllocs)
		}
		// The traced phase is measured in untraced/traced pairs run
		// back to back, so clock-frequency drift between rounds hits
		// both sides alike; the recorder's cost is the ratio of the two
		// bests, not the gap between measurements taken minutes apart.
		bestPlain, bestTraced, bestAllocs := 0.0, 0.0, 0.0
		for round := 0; round < rounds; round++ {
			plain, _, err := r.timeChecks("crossgate", iters, r.workerAddr(0))
			if err != nil {
				return nil, nil, err
			}
			ns, allocs, err := r.timeChecksOn(r.tht, "crossgate", iters, r.workerAddr(0))
			if err != nil {
				return nil, nil, err
			}
			if bestPlain == 0 || plain < bestPlain {
				bestPlain = plain
			}
			if bestTraced == 0 || ns < bestTraced {
				bestTraced, bestAllocs = ns, allocs
			}
		}
		set(7, bestTraced, bestAllocs)
		if mode == core.Enforce {
			if bestPlain > 0 {
				rows[7].TraceOverheadPct = 100 * (bestTraced - bestPlain) / bestPlain
			}
			m := r.sys.Metrics()
			metrics = &m
		}
	}
	for i := range rows {
		if rows[i].StockNs > 0 {
			rows[i].OverheadPct = 100 * (rows[i].LxfiNs - rows[i].StockNs) / rows[i].StockNs
		}
	}
	// The contended phase as a scaling ratio against the single-thread
	// cached phase (ROADMAP PR-4 follow-up): stable across runners with
	// different absolute speeds.
	if rows[1].LxfiNs > 0 {
		rows[2].ScalingRatio = rows[2].LxfiNs / rows[1].LxfiNs
	}
	if rows[1].StockNs > 0 {
		rows[2].StockScalingRatio = rows[2].StockNs / rows[1].StockNs
	}
	return rows, metrics, nil
}

// CrossingsJSON serializes the phases as the BENCH_crossings.json
// report, each number with its gate.
func CrossingsJSON(rows []CrossingRow, iters int) ([]byte, error) {
	r := benchio.NewReport("crossings", map[string]any{
		"iters":      iters,
		"shards":     caps.NewSystem().ShardCount(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	})
	for _, row := range rows {
		timing, allocs := benchio.Timing, benchio.AllocFree
		switch row.Op {
		case "check contended":
			r.Record(row.Op+"/scaling_ratio", row.ScalingRatio, benchio.Positive)
			r.Record(row.Op+"/stock_scaling_ratio", row.StockScalingRatio, benchio.Gate{})
		case "crossing traced":
			// The flight recorder's budget over the untraced crossing.
			r.Record(row.Op+"/trace_overhead_pct", row.TraceOverheadPct, benchio.AtMost(10))
		case "reload":
			timing = benchio.Reload
		}
		r.Pair(row.Op, row.StockNs, row.LxfiNs, timing)
		r.Record(row.Op+"/workers", float64(row.Workers), benchio.Gate{})
		if row.AllocsMeasured {
			r.Record(row.Op+"/allocs_per_op", row.AllocsPerOp, allocs)
		}
	}
	return r.JSON()
}

// FormatCrossings renders the crossing table.
func FormatCrossings(rows []CrossingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %12s %8s %9s\n",
		"phase", "stock ns/op", "lxfi ns/op", "overhead", "allocs/op", "workers", "x cached")
	for _, r := range rows {
		ratio := ""
		if r.ScalingRatio > 0 {
			ratio = fmt.Sprintf("%9.2f", r.ScalingRatio)
		}
		allocs := "-"
		if r.AllocsMeasured {
			allocs = fmt.Sprintf("%.4f", r.AllocsPerOp)
		}
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f %9.0f%% %12s %8d %s\n",
			r.Op, r.StockNs, r.LxfiNs, r.OverheadPct, allocs, r.Workers, ratio)
	}
	return b.String()
}
