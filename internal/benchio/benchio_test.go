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
	if doc.Bench != "demo" || doc.Params["iters"] != 10.0 ||
		!reflect.DeepEqual(doc.Values, wantValues) || !reflect.DeepEqual(doc.Gates, wantGates) {
		t.Fatalf("report = %s", out)
	}
}
