package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// tables the harness prints from in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, harness has %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eDefs)
	compare("per_layer", spec.PerLayer, layerDefs)
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each named metric is present, finite and carries its unit.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res := run(name, 7, runOpts{window: 400 * time.Millisecond, trace: trace})
			if res.err != nil || !res.correct || res.attempted == 0 {
				t.Fatalf("%s trace=%v: err %v, correct %v, attempted %d", name, trace, res.err, res.correct, res.attempted)
			}
			defs := e2eDefs
			if trace {
				defs = layerDefs
			}
			out, err := named(res.metrics, defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, d := range defs {
				m := out[d.name]
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v", name, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestSameSeedSameCounters replays the single-thread workloads for a fixed
// number of ops: the per-op layer counters must repeat exactly.
func TestSameSeedSameCounters(t *testing.T) {
	for name, ops := range map[string]uint64{"stream": 2 * streamTransfer, "rr": 2000} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			res := run(name, 11, runOpts{maxOps: ops, trace: true})
			if res.err != nil || !res.correct {
				t.Fatalf("%s: %v", name, res.err)
			}
			if first == nil {
				first = res.metrics
				continue
			}
			for _, m := range []string{"core.crossings_per_op", "caps.grants_per_op"} {
				if res.metrics[m] != first[m] || first[m] == 0 {
					t.Errorf("%s: %s = %v then %v", name, m, first[m], res.metrics[m])
				}
			}
		}
	}
}

// TestFSPlans checks that fs-mix plans come from the seed, and that each
// plan is a cycle: it ends with as many live files as it started with.
func TestFSPlans(t *testing.T) {
	a, b, again := newFSInputs(1, 1), newFSInputs(2, 1), newFSInputs(1, 1)
	if !reflect.DeepEqual(a.plans, again.plans) {
		t.Error("the same seed gave different plans")
	}
	if reflect.DeepEqual(a.plans[0], b.plans[0]) {
		t.Error("two seeds gave the same op sequence")
	}
	for th, plan := range a.plans {
		live := fsFiles
		for _, op := range plan {
			switch op.kind {
			case opCreate:
				live++
			case opUnlink:
				live--
			}
			if live < fsFiles-fsBand || live > fsFiles+fsBand {
				t.Fatalf("thread %d: live count %d left the band", th, live)
			}
		}
		if live != fsFiles {
			t.Errorf("thread %d: plan ends with %d live files, want %d", th, live, fsFiles)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.Quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%v = %v, want about %v", q, got, want)
		}
	}
}
