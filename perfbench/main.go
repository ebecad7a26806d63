// Command perfbench is the repository's benchmark: seeded, closed-loop
// workloads over the simulated kernel under LXFI enforcement. Each run
// prints its metrics and, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload rr --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it splits the same time over several passes on freshly
// booted rigs (enforced untraced, enforced traced, stock, and for fs-mix a
// one-thread pass) and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"lxfi/internal/core"
)

// setupReps is how many times an untraced run times the boot of its rig,
// after one untimed boot that pays the process's one-off costs; setup_s is
// the median, and the last rig runs the window.
const setupReps = 15

// booter boots one rig for a workload, with active client threads.
type booter func(mode core.Mode, active int) (bench, setupInfo, error)

// workload builds a workload's inputs from the seed and returns the
// booter that sets rigs up from them.
type workload struct {
	threads int
	warm    time.Duration
	inputs  func(seed uint64, window time.Duration) booter
}

var workloads = map[string]workload{
	"stream": {threads: 1, warm: 300 * time.Millisecond, inputs: func(seed uint64, _ time.Duration) booter {
		rng := rand.New(rand.NewPCG(seed, 1))
		in := &streamInputs{isn: rng.Uint64() >> 1}
		return func(mode core.Mode, _ int) (bench, setupInfo, error) { return bootStream(mode, in) }
	}},
	"rr": {threads: 1, warm: 300 * time.Millisecond, inputs: func(seed uint64, _ time.Duration) booter {
		rng := rand.New(rand.NewPCG(seed, 2))
		in := &rrInputs{isn: rng.Uint64() >> 1, key: rng.Uint64()}
		return func(mode core.Mode, _ int) (bench, setupInfo, error) { return bootRR(mode, in) }
	}},
	"fs-mix": {threads: fsThreads, warm: 500 * time.Millisecond, inputs: func(seed uint64, window time.Duration) booter {
		in := newFSInputs(seed, int(window/sliceNs)+16)
		return func(mode core.Mode, active int) (bench, setupInfo, error) { return bootFS(mode, in, active) }
	}},
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           map[string]float64
	samples           map[string]uint64
	err               error
}

// run executes one workload run. o.window is the whole measured time;
// a traced run divides it between its passes.
func run(name string, seed uint64, o runOpts) *result {
	w := workloads[name]
	res := &result{metrics: map[string]float64{}, samples: map[string]uint64{}}
	if o.trace {
		res.err = runTraced(w, seed, o, res)
	} else {
		res.err = runUntraced(w, seed, o, res)
	}
	res.correct = res.err == nil && res.failed == 0
	return res
}

func (r *result) add(p *Pass) {
	m := p.merged()
	r.attempted += m.attempted
	r.failed += m.failed
}

func runUntraced(w workload, seed uint64, o runOpts, res *result) error {
	boot := w.inputs(seed, o.window)
	p, scratch := new(Pass), new(Pass)
	p.reset(false, w.threads)

	var setups []float64
	var b bench
	var h0 uint64
	for i := 0; i <= setupReps; i++ {
		// Every boot starts on a collected heap, so a GC cycle left over
		// from the previous rig does not land inside the timed set-up.
		runtime.GC()
		h0 = heapAlloc()
		var si setupInfo
		var err error
		if b, si, err = boot(core.Enforce, w.threads); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			setups = append(setups, float64(si.totalNs)/1e9)
		}
		if i < setupReps {
			b.close()
		}
	}
	defer b.close()
	err := measure(b, o, w.warm, p, scratch)
	res.add(p)
	if err != nil {
		return err
	}
	// The rig's live heap: everything the last boot and its window left
	// reachable. The harness's buffers were allocated before h0.
	runtime.GC()
	heap := float64(heapAlloc()-h0) / (1 << 20)
	runtime.KeepAlive(scratch)
	res.metrics = e2eMetrics(p, median(setups), heap, res.samples)
	return nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTraced runs the traced passes, each on a freshly booted rig with the
// same seed. The untraced, stock and one-thread passes run in two halves
// placed symmetrically around the traced pass, so a machine whose speed
// drifts during the run biases none of the comparisons between them.
func runTraced(w workload, seed uint64, o runOpts, res *result) error {
	const (
		enforced = iota
		stock
		oneThread
		traced
	)
	type passSpec struct {
		role   int
		mode   core.Mode
		active int
	}
	half := []passSpec{{enforced, core.Enforce, w.threads}, {stock, core.Off, w.threads}}
	if w.threads > 1 {
		half = append(half, passSpec{oneThread, core.Enforce, 1})
	}
	specs := append([]passSpec(nil), half...)
	specs = append(specs, passSpec{traced, core.Enforce, w.threads})
	for i := len(half) - 1; i >= 0; i-- {
		specs = append(specs, half[i])
	}
	// Every half pass gets one share of the time, the traced pass two.
	po := o
	if po.maxOps == 0 {
		po.window = o.window / time.Duration(2*len(half)+2)
	}
	boot := w.inputs(seed, 2*po.window)
	scratch := new(Pass)
	groups := make([]group, traced+1)
	for _, s := range specs {
		p := new(Pass)
		p.reset(s.role == traced, s.active)
		b, si, err := boot(s.mode, s.active)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setup = si
		po := po
		po.trace = s.role == traced
		if po.trace && po.maxOps == 0 {
			po.window *= 2
		}
		err = measure(b, po, w.warm, p, scratch)
		b.close()
		res.add(p)
		if err != nil {
			return fmt.Errorf("%s pass: %w", s.mode, err)
		}
		groups[s.role] = append(groups[s.role], p)
	}
	res.metrics = layerMetrics(groups[enforced], groups[stock], groups[oneThread], groups[traced][0])
	return nil
}

// hostInfo fingerprints the machine a run measured.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named attaches each metric's unit, and fails if one is missing or not
// finite.
func named(metrics map[string]float64, defs []metricDef) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite", d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload: stream, rr or fs-mix")
	seed := flag.Uint64("seed", 1, "seed every input is built from")
	seconds := flag.Int("seconds", 10, "measured seconds (a traced run splits them between its passes)")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics, 0 for end-to-end metrics")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload stream|rr|fs-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	res := run(*name, *seed, runOpts{window: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	defs := e2eDefs
	if *trace == 1 {
		defs = layerDefs
	}
	metrics, err := named(res.metrics, defs)
	if res.err != nil {
		err = res.err
	}
	errText := ""
	if err != nil {
		errText = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench:", errText)
	} else {
		for _, d := range defs {
			fmt.Printf("%-34s %14.4f %s\n", d.name, metrics[d.name].Value, d.unit)
		}
	}
	report, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": hostInfo(), "samples": res.samples, "attempted": res.attempted, "failed": res.failed,
		"error": errText,
	})
	fmt.Println(string(report))
	if err != nil {
		os.Exit(1)
	}
	final, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Println(string(final))
	if !res.correct {
		os.Exit(1)
	}
}
