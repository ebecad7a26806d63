// Command lxfi-netperf regenerates Figure 12 (netperf throughput and
// CPU utilization over the isolated e1000 driver) and, with -guards,
// Figure 13 (the per-packet guard cost breakdown for UDP STREAM TX).
//
// With -json it emits BENCH_netperf.json: the measured per-packet path
// costs plus the concurrent socket-pair phase (one worker thread per
// econet socket pair) and the hot-reload-under-TX-traffic phase, for
// the CI perf gate.
package main

import (
	"flag"
	"fmt"

	"lxfi/internal/benchio"
	"lxfi/internal/netperf"
)

func main() {
	packets := flag.Int("packets", 2000, "packets per measurement")
	segments := flag.Int("segments", 800, "segments per streaming transfer")
	guards := flag.Bool("guards", false, "also print the Figure 13 guard breakdown")
	pairs := flag.Int("pairs", 4, "socket pairs (worker threads) in the concurrent phase")
	bf := benchio.Bind(
		"emit BENCH_netperf.json (path costs + concurrent socket phase + reload phase)",
		"print the enforced rig's monitor metrics to stderr")
	flag.Parse()

	costs, err := netperf.MeasureCosts(*packets)
	if err != nil {
		benchio.Fail("measurement failed", err)
	}
	if bf.Metrics {
		benchio.EmitMetrics("netperf enforced metrics", costs.Metrics)
	}
	conc, err := netperf.MeasureConcurrentSockets(*pairs, *packets)
	if err != nil {
		benchio.Fail("concurrent measurement failed", err)
	}
	rl, err := netperf.MeasureReload()
	if err != nil {
		benchio.Fail("reload phase failed", err)
	}
	stream, err := netperf.MeasureStreaming(*segments)
	if err != nil {
		benchio.Fail("streaming phase failed", err)
	}
	if bf.JSON {
		out, err := netperf.JSON(costs, conc, rl, stream, *packets)
		if err != nil {
			benchio.Fail("encoding report", err)
		}
		benchio.EmitReport(out)
		return
	}
	fmt.Fprintln(benchio.Stdout, "Figure 12 — netperf with stock and LXFI-enabled e1000 driver")
	fmt.Fprintln(benchio.Stdout)
	fmt.Fprint(benchio.Stdout, netperf.Format(netperf.BuildTable(costs)))
	fmt.Fprintln(benchio.Stdout)
	fmt.Fprint(benchio.Stdout, netperf.FormatConcurrent(conc))
	fmt.Fprint(benchio.Stdout, netperf.FormatReload(rl))
	fmt.Fprint(benchio.Stdout, netperf.FormatStreaming(stream))

	if *guards {
		rows, err := netperf.GuardBreakdown(*packets)
		if err != nil {
			benchio.Fail("guard breakdown failed", err)
		}
		fmt.Fprintln(benchio.Stdout)
		fmt.Fprintln(benchio.Stdout, "Figure 13 — guards per packet, UDP STREAM TX")
		fmt.Fprintln(benchio.Stdout)
		fmt.Fprint(benchio.Stdout, netperf.FormatGuards(rows))
	}
}
