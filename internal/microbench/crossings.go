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
// Figure 11 rows: the two rigs boot side by side and benchio.Interleave
// samples every phase on both. The report lands in BENCH_crossings.json
// for the CI perf gate.
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
	// ns/op against an untraced gate crossing sampled next to it, i.e.
	// the flight recorder's cost.
	TraceOverheadPct float64
}

// crossRig is one booted check-engine bench: a module whose functions
// run tight check loops in module context, so the measured guard is the
// real LxfiCheck path (cache probe inlined into the guard).
type crossRig struct {
	sys  *core.System
	mode core.Mode
	th   *core.Thread
	tht  *core.Thread // flight-recorder ring attached ("crossing traced")
	m    *core.Module
	p    *caps.Principal

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
	r := &crossRig{sys: sys, mode: mode, th: sys.NewThread("crossings")}
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

// timeChecks runs one module check loop on th and returns (ns/op,
// allocs/op).
func (r *crossRig) timeChecks(th *core.Thread, fn string, n int, addr mem.Addr) (float64, float64, error) {
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

// reloadsPerSample is how many back-to-back hot reloads the "reload"
// phase times per sample.
const reloadsPerSample = 8

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
	for i := 0; i < reloadsPerSample; i++ {
		if _, err := ld.Reload(th, "econet"); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reloadsPerSample), nil
}

// loop runs one phase's timed loop of iters ops on r and returns ns/op
// and allocs/op (zero for the phases that do not read MemStats).
func (r *crossRig) loop(op string, iters int) (float64, float64, error) {
	var ns float64
	var err error
	switch op {
	case "check cold":
		return r.timeChecks(r.th, "checkscold", iters, r.base)
	case "check cached":
		return r.timeChecks(r.th, "checks", iters, r.workerAddr(0))
	case "check contended":
		ns, err = r.timeContended(iters / contendedWorkers)
	case "revoke storm":
		ns, err = r.timeRevokeStorm(iters / 4)
	case "crossing gate":
		return r.timeChecks(r.th, "crossgate", iters, r.workerAddr(0))
	case "crossing named":
		return r.timeChecks(r.th, "crossnamed", iters, r.workerAddr(0))
	case "crossing batch":
		return r.timeChecks(r.th, "crossbatch", iters, r.workerAddr(0))
	case "crossing traced":
		return r.timeChecks(r.tht, "crossgate", iters, r.workerAddr(0))
	case "reload":
		ns, err = timeReload(r.mode)
	default:
		err = fmt.Errorf("microbench: no phase %q", op)
	}
	return ns, 0, err
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
	stock, err := newCrossRig(core.Off)
	if err != nil {
		return nil, nil, err
	}
	lxfi, err := newCrossRig(core.Enforce)
	if err != nil {
		return nil, nil, err
	}
	// run is one phase on one rig for benchio.Interleave; a non-nil
	// allocs collects every call's allocs/op.
	run := func(r *crossRig, op string, allocs *[]float64) func() (float64, error) {
		return func() (float64, error) {
			ns, a, err := r.loop(op, iters)
			if allocs != nil {
				*allocs = append(*allocs, a)
			}
			return ns, err
		}
	}
	for i := range rows {
		row := &rows[i]
		var allocs []float64
		runs := []func() (float64, error){run(stock, row.Op, nil), run(lxfi, row.Op, &allocs)}
		if row.Op == "crossing traced" {
			// The flight recorder's cost is measured against an
			// untraced gate crossing that sits next to the traced one
			// in every round, so host drift hits both alike.
			runs = append(runs, run(lxfi, "crossing gate", nil))
		}
		ns, err := benchio.Interleave(runs...)
		if err != nil {
			return nil, nil, err
		}
		row.StockNs, row.LxfiNs = ns[0], ns[1]
		row.OverheadPct = benchio.Overhead(row.StockNs, row.LxfiNs)
		row.AllocsPerOp = benchio.Median(allocs[1:]) // allocs[0] is the warm-up's
		if len(ns) == 3 {
			row.TraceOverheadPct = benchio.Overhead(ns[2], row.LxfiNs)
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
	m := lxfi.sys.Metrics()
	return rows, &m, nil
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
