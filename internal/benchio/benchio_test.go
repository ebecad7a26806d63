package benchio

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func swap(t *testing.T) (*bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var out, errw bytes.Buffer
	oldOut, oldErr := Stdout, Stderr
	Stdout, Stderr = &out, &errw
	t.Cleanup(func() { Stdout, Stderr = oldOut, oldErr })
	return &out, &errw
}

func TestEmitReportWritesOnlyStdout(t *testing.T) {
	out, errw := swap(t)
	EmitReport([]byte(`{"bench":"x"}`))
	if got := out.String(); got != "{\"bench\":\"x\"}\n" {
		t.Fatalf("stdout = %q", got)
	}
	if errw.Len() != 0 {
		t.Fatalf("report leaked to stderr: %q", errw.String())
	}
}

// The stderr-only metrics contract: a metrics dump must never reach
// stdout, where it would corrupt an archived BENCH artifact.
func TestEmitMetricsWritesOnlyStderr(t *testing.T) {
	out, errw := swap(t)
	EmitMetrics("fsperf enforced metrics", map[string]int{"guards": 3})
	if out.Len() != 0 {
		t.Fatalf("metrics leaked to stdout: %q", out.String())
	}
	got := errw.String()
	if !strings.HasPrefix(got, "# fsperf enforced metrics\n") {
		t.Fatalf("missing label comment: %q", got)
	}
	if !strings.Contains(got, `"guards": 3`) {
		t.Fatalf("missing payload: %q", got)
	}
}

func TestEmitMetricsIgnoresNil(t *testing.T) {
	out, errw := swap(t)
	EmitMetrics("x", nil)
	var typed *struct{ N int }
	EmitMetrics("y", typed)
	if out.Len() != 0 || errw.Len() != 0 {
		t.Fatal("nil snapshot produced output")
	}
}

func TestFailPathsUseStderrAndExitCodes(t *testing.T) {
	_, errw := swap(t)
	var code int
	oldExit := exit
	exit = func(c int) { code = c }
	defer func() { exit = oldExit }()

	Fail("measurement failed", errString("boom"))
	if code != 1 || !strings.Contains(errw.String(), "measurement failed: boom") {
		t.Fatalf("code=%d stderr=%q", code, errw.String())
	}
	errw.Reset()
	FailUsage("-json requires -crossings")
	if code != 2 || !strings.Contains(errw.String(), "-json requires -crossings") {
		t.Fatalf("code=%d stderr=%q", code, errw.String())
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// TestReportWireFormat pins the schema scripts/perf_gate.py reads: flat
// values, and gates with only the bounds they declare.
func TestReportWireFormat(t *testing.T) {
	r := NewReport("demo", map[string]any{"iters": 10})
	r.Pair("op", 100, 150, Timing)
	r.Record("op/count", 3, AtLeast(1))
	r.Record("op/ratio", 1.2, AtMost(1.5))
	r.Record("op/note", 7, Gate{})
	out, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bench  string
		Params map[string]any
		Values map[string]float64
		Gates  map[string]map[string]float64
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	wantValues := map[string]float64{"op/stock_ns": 100, "op/lxfi_ns": 150, "op/overhead_pct": 50,
		"op/count": 3, "op/ratio": 1.2, "op/note": 7}
	timing := map[string]float64{"min": math.SmallestNonzeroFloat64, "rel": relTolerance}
	wantGates := map[string]map[string]float64{"op/stock_ns": timing, "op/lxfi_ns": timing,
		"op/count": {"min": 1}, "op/ratio": {"max": 1.5}}
	if doc.Bench != "demo" || doc.Params["iters"] != 10.0 || doc.Params["samples"] != float64(Samples) ||
		!reflect.DeepEqual(doc.Values, wantValues) || !reflect.DeepEqual(doc.Gates, wantGates) {
		t.Fatalf("report = %s", out)
	}
}

// TestInterleaveOrder: one warm-up round in list order, then Samples
// rounds alternating list order (even rounds) and reverse (odd ones).
func TestInterleaveOrder(t *testing.T) {
	var calls []string
	run := func(name string) func() (float64, error) {
		return func() (float64, error) { calls = append(calls, name); return 1, nil }
	}
	if _, err := Interleave(run("s"), run("l"), run("x")); err != nil {
		t.Fatal(err)
	}
	want := []string{"s", "l", "x"} // warm-up
	for round := 0; round < Samples; round++ {
		if round%2 == 0 {
			want = append(want, "s", "l", "x")
		} else {
			want = append(want, "x", "l", "s")
		}
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
}

// TestInterleaveDropsWarmUp: each run's first value is the warm-up's
// and never reaches the median.
func TestInterleaveDropsWarmUp(t *testing.T) {
	seq := func(vs ...float64) func() (float64, error) {
		return func() (float64, error) { v := vs[0]; vs = vs[1:]; return v, nil }
	}
	got, err := Interleave(seq(1e9, 5, 1, 4, 2, 3), seq(-1e9, 10, 30, 20, 50, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{3, 30}) {
		t.Fatalf("medians = %v, want [3 30]", got)
	}
}

func TestInterleaveStopsAtFirstError(t *testing.T) {
	calls := 0
	ok := func() (float64, error) { calls++; return 1, nil }
	fail := func() (float64, error) { calls++; return 0, errString("boom") }
	if _, err := Interleave(ok, fail, ok); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("%d calls, want 2: the sampler must stop at the first error", calls)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5}, // the reload phases take four reloads
		{[]float64{3, 3, 1, 100}, 3},
	} {
		in := append([]float64(nil), c.xs...)
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", in, got, c.want)
		}
		if !reflect.DeepEqual(c.xs, in) {
			t.Errorf("Median reordered its input: %v", c.xs)
		}
	}
}

func TestPerOp(t *testing.T) {
	var seen []int
	ns, err := PerOp(3, func(i int) error { seen = append(seen, i); return nil })
	if err != nil || ns < 0 || !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("ns=%v err=%v indices=%v", ns, err, seen)
	}
	seen = nil
	_, err = PerOp(5, func(i int) error {
		seen = append(seen, i)
		if i == 1 {
			return errString("op 1")
		}
		return nil
	})
	if err == nil || err.Error() != "op 1" || len(seen) != 2 {
		t.Fatalf("err=%v after %d calls, want op 1 after 2", err, len(seen))
	}
}

func TestOverhead(t *testing.T) {
	for _, c := range []struct{ stock, lxfi, want float64 }{
		{100, 150, 50}, {200, 100, -50}, {0, 100, 0}, {-1, 100, 0},
	} {
		if got := Overhead(c.stock, c.lxfi); got != c.want {
			t.Errorf("Overhead(%v, %v) = %v, want %v", c.stock, c.lxfi, got, c.want)
		}
	}
}
