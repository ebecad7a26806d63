package fsperf_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/fsperf"
	"lxfi/internal/mem"
)

func TestOpCycleBothModesBothFilesystems(t *testing.T) {
	payload := make([]byte, fsperf.DefaultFileSize)
	for _, kind := range []fsperf.Kind{fsperf.Tmpfs, fsperf.Minix} {
		for _, mode := range []core.Mode{core.Off, core.Enforce} {
			rig, err := fsperf.NewRig(mode, kind)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, mode, err)
			}
			defer rig.Close()
			for i := 0; i < 20; i++ {
				if err := rig.OpCycle(i, payload); err != nil {
					t.Fatalf("%s/%s cycle %d: %v", kind, mode, i, err)
				}
			}
			if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
				t.Fatalf("%s/%s: %d violations: %v", kind, mode, n, rig.K.Sys.Mon.LastViolation())
			}
			// Nothing left behind: the cycle unlinks its file each time.
			if rig.V.PageCount() != 0 {
				t.Fatalf("%s/%s: %d pages leaked", kind, mode, rig.V.PageCount())
			}
		}
	}
}

func TestMeasureCostsProducesAllOps(t *testing.T) {
	c, err := fsperf.MeasureCosts(fsperf.Minix, 8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rows := fsperf.BuildTable(c)
	if len(rows) != len(fsperf.Ops) {
		t.Fatalf("rows = %d, want %d", len(rows), len(fsperf.Ops))
	}
	for _, r := range rows {
		if r.StockNs <= 0 || r.LxfiNs <= 0 {
			t.Fatalf("op %s has a zero cost: %+v", r.Op, r)
		}
	}
	if out := fsperf.Format(c); out == "" {
		t.Fatal("empty table")
	}

	// Memory-only mounts have no cold-read path and nothing durable to
	// remount, so those rows are omitted rather than mislabeled — but
	// the new workload phases must be present for both filesystems.
	c, err = fsperf.MeasureCosts(fsperf.Tmpfs, 8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range fsperf.BuildTable(c) {
		if r.Op == "read cold" {
			t.Fatal("tmpfs reported a cold-read row despite being memory-only")
		}
		if r.Op == "remount" {
			t.Fatal("tmpfs reported a remount row despite being memory-only")
		}
		seen[r.Op] = true
	}
	for _, op := range []string{"readdir", "rename", "cache pressure"} {
		if !seen[op] {
			t.Fatalf("tmpfs table is missing the %q phase", op)
		}
	}
}

// TestJSONReportShape: the CI artifact must carry both filesystems,
// every measured op with nonzero costs under both builds, and the
// writeback, reload, journal and concurrency phases, each number the
// gate checks declared with its gate.
func TestJSONReportShape(t *testing.T) {
	var all []*fsperf.Costs
	var rls []*fsperf.ReloadCosts
	for _, kind := range []fsperf.Kind{fsperf.Tmpfs, fsperf.Minix} {
		c, err := fsperf.MeasureCosts(kind, 4, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, c)
		rl, err := fsperf.MeasureReload(kind, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		rls = append(rls, rl)
	}
	conc, err := fsperf.MeasureConcurrency(4, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	jrn, err := fsperf.MeasureJournal(4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fsperf.JSON(all, conc, rls, []*fsperf.JournalCosts{jrn}, 4, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchio.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.Bench != "fsperf" || rep.Params["files"] != 4.0 {
		t.Fatalf("bad report header: %s", out)
	}
	// gated returns the value at path, failing unless the report holds
	// it and declares its gate.
	gated := func(path string) float64 {
		t.Helper()
		v, ok := rep.Values[path]
		if !ok {
			t.Fatalf("report is missing %s", path)
		}
		if _, ok := rep.Gates[path]; !ok {
			t.Fatalf("%s declares no gate", path)
		}
		return v
	}
	for _, c := range all {
		fs := string(c.Kind)
		for _, op := range []string{"create", "readdir", "rename", "cache pressure", "unlink"} {
			if _, ok := c.Op[op]; !ok {
				t.Fatalf("%s did not measure %q", fs, op)
			}
		}
		for op := range c.Op {
			for _, side := range []string{"stock_ns", "lxfi_ns"} {
				if v := gated(fs + "/" + op + "/" + side); v <= 0 {
					t.Fatalf("%s/%s has a zero cost", fs, op)
				}
			}
		}
		for _, p := range []string{"stock/pages_flushed", "lxfi/pages_flushed",
			"stock/forced_foreground_writes", "lxfi/forced_foreground_writes"} {
			if _, ok := rep.Values[fs+"/writeback/"+p]; !ok {
				t.Fatalf("%s is missing writeback counter %s", fs, p)
			}
		}
		rl := fs + "/reload/"
		if gated(rl+"reloads") < 1 || gated(rl+"total/stock_ns") <= 0 || gated(rl+"total/lxfi_ns") <= 0 {
			t.Fatalf("%s: bad reload phase: %s", fs, out)
		}
		gated(rl + "quiesce/stock_ns")
		gated(rl + "quiesce/lxfi_ns")
		if gated(rl+"stock_worker_cycles") < 1 || gated(rl+"lxfi_worker_cycles") < 1 {
			t.Fatalf("%s: reload phase ran without live worker traffic", fs)
		}
		if gated(rl+"migrated_caps") < 1 {
			t.Fatalf("%s: enforced reload migrated no capabilities", fs)
		}
	}
	for _, p := range []string{"rename/stock_ns", "rename/lxfi_ns", "exchange/stock_ns", "exchange/lxfi_ns"} {
		if gated("minix/journal/"+p) <= 0 {
			t.Fatalf("journal %s is zero", p)
		}
	}
	// The band is the gate's: a journaled rename is intent + commit +
	// apply (+ checkpoint), more than one sector write but bounded.
	w, g := gated("minix/journal/writes_per_op"), rep.Gates["minix/journal/writes_per_op"]
	if g.Min == nil || g.Max == nil || w < *g.Min || w > *g.Max {
		t.Fatalf("journal writes/op = %.1f, outside its gate %s", w, out)
	}
	if gated("concurrency/workers") < 2 || gated("concurrency/stock_ns") <= 0 || gated("concurrency/lxfi_ns") <= 0 {
		t.Fatalf("bad concurrency phase: %s", out)
	}
	if mounts := fmt.Sprint(rep.Params["mounts"]); mounts != "[tmpfs minix]" {
		t.Fatalf("concurrency phase ran on %s, want tmpfs and minix at once", mounts)
	}
}

// TestConcurrencyPhaseRunsWorkersSimultaneously: the multi-mount phase
// must be produced by worker threads whose busy intervals genuinely
// overlap — one worker per mount, tmpfssim and minixsim at once.
func TestConcurrencyPhaseRunsWorkersSimultaneously(t *testing.T) {
	conc, err := fsperf.MeasureConcurrency(8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Workers != 2 {
		t.Fatalf("workers = %d, want 2", conc.Workers)
	}
	if !conc.Overlapped {
		t.Fatal("worker busy intervals never overlapped; the phase ran serialized")
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if conc.Ns[mode] <= 0 {
			t.Fatalf("mode %s has zero cost", mode)
		}
	}
}

// TestEnforcedCrossingsAreCounted sanity-checks the workload shape: the
// cold-read path must cross into the module once per page, the warm-read
// path not at all.
func TestEnforcedCrossingsAreCounted(t *testing.T) {
	rig, err := fsperf.NewRig(core.Enforce, fsperf.Minix)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	v, th, sb := rig.V, rig.Th, rig.SB
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, make([]byte, 2*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	v.DropCaches(sb)
	fills := v.Stats.PageFills.Load()
	if _, err := v.Read(th, sb, "/f", 0, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats.PageFills.Load() - fills; got != 2 {
		t.Fatalf("cold read crossed %d times, want 2", got)
	}
	fills = v.Stats.PageFills.Load()
	if _, err := v.Read(th, sb, "/f", 0, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats.PageFills.Load() - fills; got != 0 {
		t.Fatalf("warm read crossed %d times, want 0", got)
	}
}
