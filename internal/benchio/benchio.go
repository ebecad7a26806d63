// Package benchio is the shared report plumbing of the benchmark
// commands (lxfi-fsperf, lxfi-netperf, lxfi-microbench): the one
// BENCH_*.json schema and the emission helpers.
//
// Every benchmark command follows the same contract:
//
//   - stdout carries exactly one thing: either the human-readable tables
//     or, with -json, the machine-readable BENCH_*.json artifact that CI
//     archives and perf-gates. Nothing else may be written to stdout.
//   - diagnostics are stderr-only. In particular -metrics (the enforced
//     run's monitor-metrics snapshot) always goes to stderr, so it can
//     never corrupt an archived BENCH report.
//
// The package centralizes the flag registration and the emission helpers
// so the contract is enforced in one place instead of three copies.
package benchio

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// Report is the schema of every BENCH_*.json: the run's parameters,
// every measured number under a slash path ("minix/journal/writes_per_op"),
// and the gate each gated path declares. scripts/perf_gate.py checks
// the declared gates and knows no report's layout.
type Report struct {
	Bench  string             `json:"bench"`
	Params map[string]any     `json:"params"`
	Values map[string]float64 `json:"values"`
	Gates  map[string]Gate    `json:"gates"`
}

// Gate bounds one report value. Min and Max are inclusive. A non-zero
// Rel fails a value more than that fraction over the previous run's.
type Gate struct {
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	Rel float64  `json:"rel,omitempty"`
}

// relTolerance is the run-over-run growth a relative gate allows.
const relTolerance = 0.30

// AtLeast, AtMost and Between declare absolute bounds.
func AtLeast(lo float64) Gate     { return Gate{Min: &lo} }
func AtMost(hi float64) Gate      { return Gate{Max: &hi} }
func Between(lo, hi float64) Gate { return Gate{Min: &lo, Max: &hi} }

// relative returns g with the run-over-run check added.
func (g Gate) relative() Gate {
	g.Rel = relTolerance
	return g
}

// The gates more than one report declares.
var (
	// Rel holds a value to the previous run's and nothing else.
	Rel = Gate{Rel: relTolerance}
	// Positive holds a value above zero: a cost or rate that was
	// measured. Its inclusive min is the smallest positive float64.
	Positive = AtLeast(math.SmallestNonzeroFloat64)
	// Timing is a measured cost held to the previous run.
	Timing = Positive.relative()
	// Reload is a hot-reload latency in ns: measured, under 50 ms even
	// on a first run with no baseline, and held to the previous run.
	Reload = Between(math.SmallestNonzeroFloat64, 50e6).relative()
	// AllocFree holds a phase that must not allocate: 0.01 allocs/op
	// allows MemStats sampling noise, well under one real allocation
	// per op.
	AllocFree = AtMost(0.01)
)

// NewReport starts an empty report.
func NewReport(bench string, params map[string]any) *Report {
	return &Report{Bench: bench, Params: params, Values: map[string]float64{}, Gates: map[string]Gate{}}
}

// Record stores v under path and declares g as its gate; the zero Gate
// declares none.
func (r *Report) Record(path string, v float64, g Gate) {
	r.Values[path] = v
	if g != (Gate{}) {
		r.Gates[path] = g
	}
}

// Pair records a stock/enforced cost under path: stock_ns and lxfi_ns,
// each held to g, and the ungated overhead_pct of the enforced build.
func (r *Report) Pair(path string, stock, lxfi float64, g Gate) {
	r.Record(path+"/stock_ns", stock, g)
	r.Record(path+"/lxfi_ns", lxfi, g)
	if stock > 0 {
		r.Record(path+"/overhead_pct", 100*(lxfi-stock)/stock, Gate{})
	}
}

// JSON encodes the report as the BENCH artifact.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Stdout and Stderr are the emission targets, swappable in tests.
var (
	Stdout io.Writer = os.Stdout
	Stderr io.Writer = os.Stderr
)

// exit is swappable in tests so Fail paths can be exercised.
var exit = os.Exit

// Flags is the emission-flag set shared by the benchmark commands.
type Flags struct {
	JSON    bool
	Metrics bool
}

// Bind registers the shared -json and -metrics flags on the default flag
// set with command-specific usage strings. Call before flag.Parse.
func Bind(jsonUsage, metricsUsage string) *Flags {
	f := &Flags{}
	flag.BoolVar(&f.JSON, "json", false, jsonUsage)
	flag.BoolVar(&f.Metrics, "metrics", false, metricsUsage)
	return f
}

// Fail reports a runtime failure on stderr and exits 1.
func Fail(context string, err error) {
	fmt.Fprintf(Stderr, "%s: %v\n", context, err)
	exit(1)
}

// FailUsage reports a flag-usage error on stderr and exits 2.
func FailUsage(msg string) {
	fmt.Fprintln(Stderr, msg)
	exit(2)
}

// EmitReport writes the archived BENCH artifact to stdout — in -json
// mode this must be the only stdout write the command performs.
func EmitReport(out []byte) {
	fmt.Fprintln(Stdout, string(out))
}

// EmitMetrics marshals a metrics snapshot to stderr, never stdout (the
// stderr-only metrics contract). A non-empty label prefixes the dump as
// a "# label" comment line. Nil snapshots are ignored so callers can
// pass through whatever the measurement produced.
func EmitMetrics(label string, m any) {
	if m == nil {
		return
	}
	// Callers pass whatever snapshot pointer the measurement produced; a
	// typed nil (stock-only run) is as empty as an untyped one.
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer && v.IsNil() {
		return
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintln(Stderr, "encoding metrics:", err)
		return
	}
	if label != "" {
		fmt.Fprintf(Stderr, "# %s\n", label)
	}
	fmt.Fprintln(Stderr, string(out))
}
