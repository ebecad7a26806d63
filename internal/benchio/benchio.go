// Package benchio is the shared measurement and report plumbing of the
// benchmark commands (lxfi-fsperf, lxfi-netperf, lxfi-microbench): the
// one sampler every stock/enforced timing goes through, the one
// BENCH_*.json schema, and the emission helpers.
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
	"sort"
	"time"
)

// Samples is how many timed rounds Interleave takes of every run.
const Samples = 5

// Interleave samples runs side by side, typically a stock run next to
// its enforced twin, and returns each run's median. One untimed
// warm-up round comes first, then Samples timed rounds. Each round
// calls every run once, in list order on even rounds and in reverse on
// odd ones, so host drift lands on twins alike and no run always goes
// first. The first error stops the sampler and is returned.
func Interleave(runs ...func() (float64, error)) ([]float64, error) {
	samples := make([][]float64, len(runs))
	// Round -1 is the warm-up, in list order.
	for round := -1; round < Samples; round++ {
		for k := range runs {
			i := k
			if round%2 == 1 {
				i = len(runs) - 1 - k
			}
			v, err := runs[i]()
			if err != nil {
				return nil, err
			}
			if round >= 0 {
				samples[i] = append(samples[i], v)
			}
		}
	}
	medians := make([]float64, len(runs))
	for i, s := range samples {
		medians[i] = Median(s)
	}
	return medians, nil
}

// PerOp times n calls of op, passing each call its index, and returns
// ns per call. The first error stops it and is returned.
func PerOp(n int, op func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// Median is the middle value of xs, or the mean of the middle two for
// an even count. xs must not be empty; it is not modified.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Overhead is the enforced build's cost over stock's, in percent; 0
// when stock is not positive.
func Overhead(stock, lxfi float64) float64 {
	if stock <= 0 {
		return 0
	}
	return 100 * (lxfi - stock) / stock
}

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

// NewReport starts an empty report. params gains "samples", so a
// report taken with another sampler is not held to this one's values.
func NewReport(bench string, params map[string]any) *Report {
	params["samples"] = Samples
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
	r.Record(path+"/overhead_pct", Overhead(stock, lxfi), Gate{})
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
