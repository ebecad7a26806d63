package main

import "sort"

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct{ name, unit, better string }

// e2eDefs are the end-to-end metrics, measured with tracing off. Every
// workload reports all of them; the README maps each one onto the
// workload's ops.
var e2eDefs = []metricDef{
	{"goodput_MBps", "MB/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"meta_p50_us", "us", "lower"},
	{"meta_p99_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_MiB", "MiB", "lower"},
}

// layerDefs are the per-layer metrics of the traced run. A layer a
// workload does not exercise reports 0.
var layerDefs = []metricDef{
	{"core.crossings_per_op", "1/op", "lower"},
	{"core.annotation_actions_per_op", "1/op", "lower"},
	{"core.principal_switches_per_op", "1/op", "lower"},
	{"core.ind_calls_per_op", "1/op", "lower"},
	{"core.ind_cache_hit_ratio", "ratio", "higher"},
	{"core.mem_write_checks_per_op", "1/op", "lower"},
	{"core.sampled_crossing_p50_ns", "ns", "lower"},
	{"core.monitor_us_per_op", "us", "lower"},
	{"core.overhead_ratio", "ratio", "lower"},
	{"core.ns_per_crossing", "ns", "lower"},
	{"caps.grants_per_op", "1/op", "lower"},
	{"caps.revokes_per_op", "1/op", "lower"},
	{"caps.checks_per_op", "1/op", "lower"},
	{"caps.check_cache_hit_ratio", "ratio", "higher"},
	{"caps.epoch_bumps_per_op", "1/op", "lower"},
	{"caps.grant_us", "us", "lower"},
	{"netstack.alloc_us", "us", "lower"},
	{"netstack.xmit_us", "us", "lower"},
	{"netstack.poll_us", "us", "lower"},
	{"netstack.pop_free_us", "us", "lower"},
	{"netstack.enqueue_us", "us", "lower"},
	{"netstack.drain_us", "us", "lower"},
	{"netstack.skbs_per_drain", "1/drain", "higher"},
	{"netstack.tx_denied", "count", "lower"},
	{"mem.as_write_us", "us", "lower"},
	{"mem.as_read_us", "us", "lower"},
	{"e1000sim.irqs_per_op", "1/op", "lower"},
	{"e1000sim.rx_pending_max", "count", "lower"},
	{"vfs.read_us", "us", "lower"},
	{"vfs.write_us", "us", "lower"},
	{"vfs.stat_us", "us", "lower"},
	{"vfs.create_us", "us", "lower"},
	{"vfs.rename_us", "us", "lower"},
	{"vfs.unlink_us", "us", "lower"},
	{"vfs.sync_us", "us", "lower"},
	{"vfs.dcache_hit_ratio", "ratio", "higher"},
	{"vfs.page_fills_per_read", "1/read", "lower"},
	{"vfs.evict_writes_per_op", "1/op", "lower"},
	{"vfs.page_writes_per_op", "1/op", "lower"},
	{"vfs.mount_ms", "ms", "lower"},
	{"blockdev.sector_reads_per_op", "1/op", "lower"},
	{"blockdev.sector_writes_per_op", "1/op", "lower"},
	{"blockdev.write_amplification", "ratio", "lower"},
	{"modules.load_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "1/op", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_per_s", "1/s", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.scaling_2v1", "ratio", "higher"},
	{"bench.overlap", "ratio", "higher"},
	{"bench.op_us", "us", "lower"},
	{"bench.untraced_op_us", "us", "lower"},
	{"bench.span_sum_us", "us", "lower"},
	{"bench.harness_us", "us", "lower"},
}

// Sizes the journal and page cost model below works in.
const (
	sectorBytes = 512
	pageBytes   = 4096
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var s int64
	for _, v := range ns {
		s += v
	}
	return float64(s) / float64(len(ns))
}

// e2eMetrics derives the end-to-end metrics from an untraced enforced
// pass: each is computed per slice of the window and the median over the
// slices is reported. samples records the observations behind every
// latency, over the whole window.
func e2eMetrics(p *Pass, setupS, heapMiB float64, samples map[string]uint64) map[string]float64 {
	m := p.merged()
	perSlice := map[string][]float64{}
	add := func(name string, v float64) { perSlice[name] = append(perSlice[name], v) }
	hists := func(s *slice) []*Hist { return []*Hist{&s.all, &s.cls[clsRead], &s.cls[clsWrite], &s.cls[clsMeta]} }
	prefixes := []string{"", "read_", "write_", "meta_"}
	for j := range m.slices {
		s, secs := &m.slices[j], p.sliceSeconds(j)
		add("goodput_MBps", ratio(float64(s.bytes), secs)/1e6)
		add("ops_per_s", ratio(float64(s.ops), secs))
		for i, h := range hists(s) {
			add(prefixes[i]+"p50_us", h.Quantile(0.50)/1e3)
			add(prefixes[i]+"p99_us", h.Quantile(0.99)/1e3)
		}
	}
	out := map[string]float64{"setup_s": setupS, "heap_MiB": heapMiB}
	for name, vs := range perSlice {
		out[name] = median(vs)
	}
	for i, h := range hists(&m.total) {
		samples[prefixes[i]+"p50_us"] = h.Count()
		samples[prefixes[i]+"p99_us"] = h.Count()
	}
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// group is the passes of one kind in a traced run, taken together as one
// longer window.
type group []*Pass

func (g group) sum(f func(p *Pass) float64) float64 {
	var s float64
	for _, p := range g {
		s += f(p)
	}
	return s
}

func (g group) ops() float64 { return g.sum(func(p *Pass) float64 { return float64(p.ops()) }) }

// opUs is thread time per op in µs: every active thread is busy for the
// whole window, so this is the mean time one op holds a client.
func (g group) opUs() float64 {
	return ratio(g.sum(func(p *Pass) float64 { return float64(p.active) * float64(p.elapsedNs) / 1e3 }), g.ops())
}

func (g group) opsPerSec() float64 { return ratio(g.ops(), g.sum((*Pass).seconds)) }

// layerMetrics derives the per-layer metrics of a traced run: pu are the
// enforced untraced passes, ps the stock passes on freshly booted core.Off
// rigs, p1 (fs-mix only) the enforced one-thread passes, and pt the
// enforced traced pass the spans and counters come from.
func layerMetrics(pu, ps, p1 group, pt *Pass) map[string]float64 {
	mt := pt.merged()
	ops := float64(mt.total.ops)
	d := pt.d
	per := func(v uint64) float64 { return ratio(float64(v), ops) }

	enfUs, stockUs, tracedUs := pu.opUs(), ps.opUs(), group{pt}.opUs()
	crossings := per(d.mon.FuncEntries)
	monitorUs := enfUs - stockUs
	out := map[string]float64{
		"core.crossings_per_op":          crossings,
		"core.annotation_actions_per_op": per(d.mon.AnnotationActions),
		"core.principal_switches_per_op": per(d.mon.PrincipalSwitches),
		"core.ind_calls_per_op":          per(d.mon.IndCallAll),
		"core.ind_cache_hit_ratio":       ratio(float64(d.mon.IndCacheHits), float64(d.mon.IndCallAll)),
		"core.mem_write_checks_per_op":   per(d.mon.MemWriteChecks),
		"core.sampled_crossing_p50_ns":   pt.crossP50,
		"core.monitor_us_per_op":         monitorUs,
		"core.overhead_ratio":            ratio(enfUs, stockUs),
		"core.ns_per_crossing":           ratio(monitorUs*1e3, crossings),

		"caps.grants_per_op":            per(d.mon.CapGrants),
		"caps.revokes_per_op":           per(d.mon.CapRevokes),
		"caps.checks_per_op":            per(d.mon.CapChecks),
		"caps.check_cache_hit_ratio":    ratio(float64(d.mon.CapCacheHits), float64(d.mon.CapChecks)),
		"caps.epoch_bumps_per_op":       per(d.epoch),
		"netstack.skbs_per_drain":       ratio(float64(pt.drained), float64(pt.drains)),
		"netstack.tx_denied":            float64(d.txDenied),
		"e1000sim.irqs_per_op":          per(d.irqs),
		"e1000sim.rx_pending_max":       float64(pt.rxPendingMax),
		"vfs.dcache_hit_ratio":          ratio(float64(d.dcacheHits), float64(d.dcacheHits+d.dcacheMiss)),
		"vfs.page_fills_per_read":       ratio(float64(d.pageFills), float64(mt.total.cls[clsRead].Count())),
		"vfs.evict_writes_per_op":       per(d.evictWrites),
		"vfs.page_writes_per_op":        per(d.pageWrites),
		"vfs.mount_ms":                  mean(pt.setup.mountNs) / 1e6,
		"modules.load_ms":               float64(pt.setup.loadNs) / 1e6,
		"blockdev.sector_reads_per_op":  per(d.secReads),
		"blockdev.sector_writes_per_op": per(d.secWrites),
		// Every dm_write_sectors call writes one sector (journal and
		// directory records); every writepage persists one page.
		"blockdev.write_amplification": ratio(float64(d.secWrites*sectorBytes+d.pageWrites*pageBytes), float64(d.bytesWritten)),

		// Allocation figures come from the untraced passes.
		"runtime.allocs_per_op":      ratio(pu.sum(func(p *Pass) float64 { return float64(p.d.mallocs) }), pu.ops()),
		"runtime.alloc_bytes_per_op": ratio(pu.sum(func(p *Pass) float64 { return float64(p.d.allocBytes) }), pu.ops()),
		"runtime.gc_per_s":           ratio(pu.sum(func(p *Pass) float64 { return float64(p.d.numGC) }), pu.sum((*Pass).seconds)),

		"bench.trace_overhead_pct": (ratio(tracedUs, enfUs) - 1) * 100,
		"bench.overlap":            ratio(pu.sum(func(p *Pass) float64 { return p.overlap }), float64(len(pu))),
		"bench.op_us":              tracedUs,
		"bench.untraced_op_us":     enfUs,
		"bench.span_sum_us":        ratio(float64(mt.tr.TotalNs()), ops) / 1e3,
		"bench.scaling_2v1":        ratio(pu.opsPerSec(), p1.opsPerSec()),
	}
	for id := spanID(0); id < numSpans; id++ {
		out[spanMetric[id]] = ratio(float64(mt.tr.SelfNs(id)), ops) / 1e3
	}
	return out
}
