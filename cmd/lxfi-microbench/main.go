// Command lxfi-microbench regenerates Figure 11: the SFI
// microbenchmarks (hotlist, lld, MD5) run as isolated modules, with
// measured slowdowns and statically-computed code-size deltas.
//
// With -crossings it instead runs the capability-crossing engine
// benchmark (cold/cached/contended checks, the revoke storm, and the
// hot-reload crossing latency); with -json the crossing report is
// emitted in the BENCH_crossings.json shape CI archives and perf-gates.
package main

import (
	"flag"
	"fmt"

	"lxfi/internal/benchio"
	"lxfi/internal/microbench"
)

func main() {
	iters := flag.Int("iters", 5000, "operations per benchmark")
	crossings := flag.Bool("crossings", false, "run the crossing-engine phases instead of Figure 11")
	bf := benchio.Bind(
		"emit the machine-readable crossing report (requires -crossings)",
		"print the enforced run's monitor metrics to stderr (requires -crossings)")
	flag.Parse()

	if bf.Metrics && !*crossings {
		benchio.FailUsage("-metrics requires -crossings")
	}
	if *crossings {
		rows, snap, err := microbench.MeasureCrossingsWithMetrics(*iters)
		if err != nil {
			benchio.Fail("crossing benchmark failed", err)
		}
		if bf.Metrics {
			benchio.EmitMetrics("crossings enforced metrics", snap)
		}
		if bf.JSON {
			out, err := microbench.CrossingsJSON(rows, *iters)
			if err != nil {
				benchio.Fail("encoding report", err)
			}
			benchio.EmitReport(out)
			return
		}
		fmt.Fprintln(benchio.Stdout, "Crossing engine — capability checks, stock vs LXFI")
		fmt.Fprintln(benchio.Stdout)
		fmt.Fprint(benchio.Stdout, microbench.FormatCrossings(rows))
		return
	}
	if bf.JSON {
		benchio.FailUsage("-json requires -crossings")
	}

	rs, err := microbench.RunAll(*iters)
	if err != nil {
		benchio.Fail("microbench failed", err)
	}
	fmt.Fprintln(benchio.Stdout, "Figure 11 — SFI microbenchmarks under LXFI")
	fmt.Fprintln(benchio.Stdout)
	fmt.Fprint(benchio.Stdout, microbench.Format(rs))
}
