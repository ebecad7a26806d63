package core

import "lxfi/internal/trace"

// MetricsSnapshot is the monitor's exportable metrics registry: the
// guard counters of Figure 13, the capability-system shape, the
// violation tallies, and the sampled crossing-latency histogram. It is
// what the -metrics flags of the perf tools print and what forensic
// dumps embed.
type MetricsSnapshot struct {
	Mode     string `json:"mode"`
	CapEpoch uint64 `json:"capability_epoch"`
	Shards   int    `json:"shards"`

	// The guard counters of Figure 13, inlined into the JSON object.
	Snapshot

	// CacheHitRatio is CapCacheHits/CapChecks (0 with no checks).
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	Violations         int               `json:"violations"`
	ViolationsByModule map[string]uint64 `json:"violations_by_module,omitempty"`

	// WST fast-path effectiveness (marks, probes, empty-set hits).
	WSTMarks  uint64 `json:"wst_marks"`
	WSTProbes uint64 `json:"wst_probes"`
	WSTHits   uint64 `json:"wst_hits"`

	// Latency buckets hold the sampled crossing-latency histogram;
	// LatencySamples is its total observation count.
	LatencySamples uint64         `json:"latency_samples"`
	Latency        []trace.Bucket `json:"latency,omitempty"`

	// Supervisor is the module supervisor's recovery activity, present
	// only while one is running (SetSupervisorMetrics).
	Supervisor *SupervisorMetrics `json:"supervisor,omitempty"`
}

// SupervisorMetrics is the module supervisor's slice of the registry:
// how often violations turned into restarts, what is quarantined or
// permanently dead right now, and how long recovery took
// (violation-to-successor-published, as a log2 histogram).
type SupervisorMetrics struct {
	RestartsTotal   uint64         `json:"restarts_total"`
	Quarantined     uint64         `json:"quarantined"`  // currently dead, awaiting (or undergoing) restart
	BreakerOpen     uint64         `json:"breaker_open"` // permanently dead: breaker tripped or budget exhausted
	RecoverySamples uint64         `json:"recovery_samples"`
	RecoveryP99Ns   uint64         `json:"recovery_p99_ns"`
	RecoveryNs      []trace.Bucket `json:"recovery_ns,omitempty"`
}

// Metrics captures the registry. Counters folded thread-locally
// (check/miss tallies) reach the shared atomics at wrapper exits, so a
// snapshot taken between crossings is exact; one taken mid-crossing can
// lag by at most one thread's pending batch.
func (s *System) Metrics() MetricsSnapshot {
	st := s.Mon.Stats.Snapshot()
	marks, probes, hits := s.WST.Stats()
	m := MetricsSnapshot{
		Mode:     s.Mon.Mode().String(),
		CapEpoch: s.Caps.Epoch(),
		Shards:   s.Caps.ShardCount(),
		Snapshot: st,

		Violations: len(s.Mon.Violations()),

		WSTMarks:  marks,
		WSTProbes: probes,
		WSTHits:   hits,

		LatencySamples: s.Mon.Metrics.Latency.Count(),
		Latency:        s.Mon.Metrics.Latency.Snapshot(),
	}
	if st.CapChecks != 0 {
		m.CacheHitRatio = float64(st.CapCacheHits) / float64(st.CapChecks)
	}
	if vc := s.Mon.Metrics.ViolationCounts(); len(vc) != 0 {
		m.ViolationsByModule = vc
	}
	if fp := s.supSource.Load(); fp != nil {
		m.Supervisor = (*fp)()
	}
	return m
}
