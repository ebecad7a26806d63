package netperf

// Concurrent socket phase: one worker thread per socket pair, all
// driving the module's sendmsg/recvmsg paths simultaneously. Every
// socket is its own LXFI instance principal with its own per-instance
// operation lock (the netstack analogue of the VFS per-mount lock), so
// the phase measures how the crossing engine behaves when the monitor's
// shared state — sharded capability tables, per-thread check caches —
// is hit from many kernel threads at once.

import (
	"fmt"
	"sync"
	"time"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/modules/econet"
	"lxfi/internal/netstack"
)

// ConcurrentCosts holds the concurrent socket-pair phase results.
type ConcurrentCosts struct {
	Pairs int
	Ns    map[core.Mode]float64 // ns per socket op, aggregated over workers
	// Overlapped records that the workers' busy intervals genuinely
	// intersected — the proof the phase ran threads simultaneously.
	Overlapped bool
}

// concRig is one booted kernel + netstack + econet with p socket pairs.
type concRig struct {
	k     *kernel.Kernel
	st    *netstack.Stack
	ld    *modules.Loader
	pairs [][2]mem.Addr
	bufs  []mem.Addr
}

func newConcRig(mode core.Mode, pairs int) (*concRig, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	st := netstack.Init(k)
	th := k.Sys.NewThread("boot")
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Net: st})
	if _, err := ld.Load(th, "econet"); err != nil {
		return nil, err
	}
	r := &concRig{k: k, st: st, ld: ld}
	for i := 0; i < pairs; i++ {
		a, err := st.Socket(th, econet.Family)
		if err != nil {
			return nil, err
		}
		b, err := st.Socket(th, econet.Family)
		if err != nil {
			return nil, err
		}
		r.pairs = append(r.pairs, [2]mem.Addr{a, b})
		r.bufs = append(r.bufs, k.Sys.User.Alloc(64, 8))
	}
	return r, nil
}

// runWorkers releases one worker per pair through a start barrier; each
// worker alternates sendmsg on its first socket and recvmsg on its
// second for msgs rounds.
func (r *concRig) runWorkers(msgs int) (span time.Duration, overlapped bool, err error) {
	start := make(chan struct{})
	n := len(r.pairs)
	// gate is a rendezvous: every worker must arrive before any may
	// proceed, so the release instant lies inside every worker's busy
	// interval — all workers are provably live at once.
	var gate sync.WaitGroup
	gate.Add(n)
	errs := make([]error, n)
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	handles := make([]*core.ThreadHandle, n)
	for i := range r.pairs {
		i := i
		pair, buf := r.pairs[i], r.bufs[i]
		handles[i] = r.k.Sys.Spawn(fmt.Sprintf("netperf-w%d", i), func(t *core.Thread) {
			<-start
			starts[i] = time.Now()
			defer func() { ends[i] = time.Now() }()
			gate.Done()
			gate.Wait()
			for m := 0; m < msgs; m++ {
				if ret, err := r.st.Sendmsg(t, pair[0], buf, 8, 0); err != nil || kernel.IsErr(ret) {
					errs[i] = fmt.Errorf("worker %d sendmsg: ret=%d err=%v", i, int64(ret), err)
					return
				}
				if _, err := r.st.Recvmsg(t, pair[1], buf, 8, 0); err != nil {
					errs[i] = fmt.Errorf("worker %d recvmsg: %v", i, err)
					return
				}
			}
		})
	}
	begin := time.Now()
	close(start)
	for _, h := range handles {
		h.Join()
	}
	span = time.Since(begin)
	for _, werr := range errs {
		if werr != nil {
			return 0, false, werr
		}
	}
	latestStart, earliestEnd := starts[0], ends[0]
	for i := 1; i < n; i++ {
		if starts[i].After(latestStart) {
			latestStart = starts[i]
		}
		if ends[i].Before(earliestEnd) {
			earliestEnd = ends[i]
		}
	}
	return span, !earliestEnd.Before(latestStart), nil
}

// MeasureConcurrentSockets runs the phase under both builds, sampled
// with benchio.Interleave on a fresh rig per sample.
func MeasureConcurrentSockets(pairs, msgs int) (*ConcurrentCosts, error) {
	out := &ConcurrentCosts{Pairs: pairs, Ns: make(map[core.Mode]float64)}
	run := func(mode core.Mode) func() (float64, error) {
		return func() (float64, error) {
			rig, err := newConcRig(mode, pairs)
			if err != nil {
				return 0, err
			}
			span, overlapped, err := rig.runWorkers(msgs)
			rig.k.Shutdown()
			if err != nil {
				return 0, err
			}
			if n := len(rig.k.Sys.Mon.Violations()); n != 0 {
				return 0, fmt.Errorf("netperf: concurrent phase (%s): %d violations: %v",
					mode, n, rig.k.Sys.Mon.LastViolation())
			}
			out.Overlapped = out.Overlapped || overlapped
			// Two socket ops (one send + one recv) per round per pair.
			return float64(span.Nanoseconds()) / float64(2*pairs*msgs), nil
		}
	}
	ns, err := benchio.Interleave(run(core.Off), run(core.Enforce))
	if err != nil {
		return nil, err
	}
	out.Ns[core.Off], out.Ns[core.Enforce] = ns[0], ns[1]
	return out, nil
}

// JSON serializes the per-packet path costs plus the concurrent
// socket-pair, hot-reload and streaming phases as the
// BENCH_netperf.json report, each number with its gate.
func JSON(c *Costs, conc *ConcurrentCosts, rl *ReloadCosts, stream *StreamingCosts, packets int) ([]byte, error) {
	r := benchio.NewReport("netperf", map[string]any{"packets": packets})
	r.Pair("tx tcp", c.TxTCP[core.Off], c.TxTCP[core.Enforce], benchio.Timing)
	r.Pair("tx udp", c.TxUDP[core.Off], c.TxUDP[core.Enforce], benchio.Timing)
	r.Pair("rx tcp", c.RxTCP[core.Off], c.RxTCP[core.Enforce], benchio.Timing)
	r.Pair("rx udp", c.RxUDP[core.Off], c.RxUDP[core.Enforce], benchio.Timing)
	if conc != nil {
		r.Record("concurrency/workers", float64(conc.Pairs), benchio.AtLeast(2))
		r.Pair("concurrency", conc.Ns[core.Off], conc.Ns[core.Enforce], benchio.Timing)
	}
	if rl != nil {
		r.Record("reload/reloads", float64(rl.Reloads), benchio.AtLeast(1))
		r.Record("reload/workers", float64(rl.Workers), benchio.AtLeast(2))
		r.Pair("reload/total", rl.Total[core.Off], rl.Total[core.Enforce], benchio.Reload)
		r.Pair("reload/quiesce", rl.Quiesce[core.Off], rl.Quiesce[core.Enforce], benchio.Rel)
		// Live-traffic proof: the TX workers pushed packets while the
		// reloads ran, and the enforced swaps migrated capabilities.
		for _, mode := range []core.Mode{core.Off, core.Enforce} {
			r.Record("reload/"+mode.String()+"_packets", float64(rl.Packets[mode]), benchio.AtLeast(1))
		}
		r.Record("reload/migrated_caps", float64(rl.Migrated), benchio.AtLeast(1))
	}
	if s := stream; s != nil {
		r.Record("streaming/segments", float64(s.Segments), benchio.AtLeast(1))
		r.Record("streaming/segment_bytes", StreamSegBytes, benchio.Gate{})
		r.Record("streaming/window", float64(s.Window), benchio.Gate{})
		r.Record("streaming/batch_budget", float64(s.BatchBudget), benchio.AtLeast(2))
		r.Record("streaming/stock_bytes_per_sec", s.BytesPerSec[core.Off], benchio.Positive)
		r.Record("streaming/lxfi_bytes_per_sec", s.BytesPerSec[core.Enforce], benchio.Positive)
		// Batching keeps isolation within 1.5x of stock CPU (the TCP
		// side of Fig. 12) and cuts crossings per byte at least 4x.
		r.Record("streaming/cpu_ratio", s.CPURatio, benchio.AtMost(1.5))
		r.Record("streaming/perpkt_crossings_per_byte", s.PerPktCrossingsPerByte, benchio.Rel)
		r.Record("streaming/batch_crossings_per_byte", s.BatchCrossingsPerByte, benchio.Rel)
		r.Record("streaming/crossings_reduction", s.CrossingsReduction(), benchio.AtLeast(4))
		// Every segment arrives, in order, across the mid-stream reloads.
		r.Record("streaming/reloads", float64(s.Reloads*2), benchio.AtLeast(1)) // both builds
		r.Record("streaming/dropped", float64(s.Dropped), benchio.AtMost(0))
		r.Record("streaming/reordered", float64(s.Reordered), benchio.AtMost(0))
	}
	return r.JSON()
}

// FormatConcurrent renders the concurrent phase line.
func FormatConcurrent(c *ConcurrentCosts) string {
	stock, lxfi := c.Ns[core.Off], c.Ns[core.Enforce]
	return fmt.Sprintf("%-20s %9.0f ns/op %9.0f ns/op %7.0f%%  (%d socket pairs, 1 thread each)\n",
		"concurrent sockets", stock, lxfi, benchio.Overhead(stock, lxfi), c.Pairs)
}
