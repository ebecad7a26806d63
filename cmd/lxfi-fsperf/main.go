// Command lxfi-fsperf measures filesystem overhead under LXFI: the
// create/write/read/stat/unlink mix over the isolated tmpfssim and
// minixsim modules, stock vs enforced — the filesystem counterpart of
// lxfi-netperf's Figure 12 — plus the multi-mount concurrency phase and
// the hot-reload-under-live-traffic phase.
package main

import (
	"flag"
	"fmt"

	"lxfi/internal/benchio"
	"lxfi/internal/fsperf"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
)

func main() {
	files := flag.Int("files", 64, "files per measurement")
	size := flag.Uint64("size", fsperf.DefaultFileSize, "file size in bytes")
	bf := benchio.Bind(
		"emit a machine-readable JSON report (the CI bench artifact)",
		"print each enforced rig's monitor metrics to stderr")
	flag.Parse()
	if *files < 1 {
		benchio.FailUsage("-files must be at least 1")
	}
	if max := uint64(minixsim.MaxFilePages * mem.PageSize); *size < 1 || *size > max {
		benchio.FailUsage(fmt.Sprintf(
			"-size must be between 1 and %d (the minixsim per-file extent cap)", max))
	}

	var all []*fsperf.Costs
	var rls []*fsperf.ReloadCosts
	if !bf.JSON {
		fmt.Fprintln(benchio.Stdout, "fsperf — filesystem workloads with stock and LXFI-enabled modules")
		fmt.Fprintf(benchio.Stdout, "(%d files, %d bytes each; ns/op, median of interleaved samples)\n\n", *files, *size)
	}
	for _, kind := range []fsperf.Kind{fsperf.Tmpfs, fsperf.Minix} {
		costs, err := fsperf.MeasureCosts(kind, *files, *size)
		if err != nil {
			benchio.Fail(fmt.Sprintf("%s measurement failed", kind), err)
		}
		all = append(all, costs)
		rl, err := fsperf.MeasureReload(kind, *size)
		if err != nil {
			benchio.Fail(fmt.Sprintf("%s reload phase failed", kind), err)
		}
		rls = append(rls, rl)
		if !bf.JSON {
			fmt.Fprint(benchio.Stdout, fsperf.Format(costs))
			fmt.Fprint(benchio.Stdout, fsperf.FormatReload(rl))
			fmt.Fprintln(benchio.Stdout)
		}
		if bf.Metrics {
			benchio.EmitMetrics(fmt.Sprintf("%s enforced metrics", kind), costs.Metrics)
		}
	}
	jrn, err := fsperf.MeasureJournal(*files)
	if err != nil {
		benchio.Fail("journal phase failed", err)
	}
	conc, err := fsperf.MeasureConcurrency(*files, *size)
	if err != nil {
		benchio.Fail("concurrency measurement failed", err)
	}
	if !bf.JSON {
		fmt.Fprint(benchio.Stdout, fsperf.FormatJournal(jrn))
		fmt.Fprint(benchio.Stdout, fsperf.FormatConcurrency(conc))
		return
	}
	out, err := fsperf.JSON(all, conc, rls, []*fsperf.JournalCosts{jrn}, *files, *size)
	if err != nil {
		benchio.Fail("encoding report", err)
	}
	benchio.EmitReport(out)
}
