package microbench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lxfi/internal/benchio"
)

// unmeasuredAllocs are the phases that never read MemStats.
var unmeasuredAllocs = map[string]bool{"check contended": true, "revoke storm": true, "reload": true}

// TestMeasureCrossings runs the phases at a small iteration count and
// checks the report invariants CI relies on: all nine phases present,
// positive timings, the cached-hit, gate-crossing, batch, and traced
// phases allocation-free, and the contended phase carrying its scaling
// ratio.
func TestMeasureCrossings(t *testing.T) {
	rows, metrics, err := MeasureCrossingsWithMetrics(coldSet)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"check cold": false, "check cached": false,
		"check contended": false, "revoke storm": false,
		"crossing gate": false, "crossing named": false,
		"crossing batch": false, "crossing traced": false,
		"reload": false,
	}
	for _, r := range rows {
		if _, ok := want[r.Op]; !ok {
			t.Fatalf("unexpected phase %q", r.Op)
		}
		want[r.Op] = true
		if r.StockNs <= 0 || r.LxfiNs <= 0 {
			t.Fatalf("phase %q has non-positive timing: %+v", r.Op, r)
		}
	}
	for op, seen := range want {
		if !seen {
			t.Fatalf("phase %q missing", op)
		}
	}
	for _, r := range rows {
		if (r.Op == "check cached" || r.Op == "crossing gate" || r.Op == "crossing batch" || r.Op == "crossing traced") && r.AllocsPerOp >= 0.01 {
			t.Fatalf("%s allocates: %f allocs/op", r.Op, r.AllocsPerOp)
		}
		if r.Op == "check contended" && r.ScalingRatio <= 0 {
			t.Fatalf("contended phase missing scaling ratio: %+v", r)
		}
		if r.Op != "check contended" && r.ScalingRatio != 0 {
			t.Fatalf("scaling ratio leaked onto phase %q: %+v", r.Op, r)
		}
		if r.Op != "crossing traced" && r.TraceOverheadPct != 0 {
			t.Fatalf("trace overhead leaked onto phase %q: %+v", r.Op, r)
		}
		if r.AllocsMeasured == unmeasuredAllocs[r.Op] {
			t.Fatalf("phase %q: AllocsMeasured = %v", r.Op, r.AllocsMeasured)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(FormatCrossings(rows)), "\n")[1:] {
		if op := strings.TrimSpace(line[:16]); unmeasuredAllocs[op] != strings.Contains(line, " - ") {
			t.Fatalf("allocs column of %q", line)
		}
	}
	// The traced run's sampled latencies must have reached the shared
	// histogram, and the enforced crossings the shared counters.
	if metrics == nil {
		t.Fatal("no metrics snapshot from enforced run")
	}
	if metrics.Mode != "lxfi" {
		t.Fatalf("metrics mode = %q, want lxfi", metrics.Mode)
	}
	if metrics.LatencySamples == 0 {
		t.Fatal("traced crossings produced no latency samples")
	}
	if metrics.FuncEntries == 0 || metrics.CapChecks == 0 {
		t.Fatalf("guard counters empty: %+v", metrics)
	}
}

// TestCrossingsJSONShape: the CI artifact carries all nine phases by
// name, each timing and every measured allocs count declared with its
// gate, and no allocs value for the phases that do not measure one.
func TestCrossingsJSONShape(t *testing.T) {
	rows, err := MeasureCrossings(coldSet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CrossingsJSON(rows, coldSet)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchio.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "crossings" || rep.Params["shards"].(float64) < 1 {
		t.Fatalf("bad header: %s", out)
	}
	gated := func(path string) benchio.Gate {
		t.Helper()
		g, ok := rep.Gates[path]
		if _, has := rep.Values[path]; !has || !ok {
			t.Fatalf("report is missing gated %s", path)
		}
		return g
	}
	for _, op := range []string{"check cold", "check cached", "check contended", "revoke storm",
		"crossing gate", "crossing named", "crossing batch", "crossing traced", "reload"} {
		gated(op + "/stock_ns")
		gated(op + "/lxfi_ns")
		switch {
		case unmeasuredAllocs[op]:
			if _, ok := rep.Values[op+"/allocs_per_op"]; ok {
				t.Fatalf("%s reports allocs it never measured", op)
			}
		default:
			if g := gated(op + "/allocs_per_op"); !reflect.DeepEqual(g, benchio.AllocFree) {
				t.Fatalf("%s allocs gate %+v is not allocation-free", op, g)
			}
		}
	}
	if g := gated("reload/lxfi_ns"); !reflect.DeepEqual(g, benchio.Reload) {
		t.Fatalf("reload latency gate %+v", g)
	}
	gated("check contended/scaling_ratio")
	gated("crossing traced/trace_overhead_pct")
}
