package core

import (
	"sync"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// Benchmarks for the capability-check hot path: the sharded table
// lookup, the per-thread epoch-validated cache in front of it, and the
// full mediated crossing. CI's bench-smoke step runs these, and the
// crossing phases of internal/microbench report the same paths into
// BENCH_crossings.json.

func newProbeSys(tb testing.TB) (*System, *caps.Principal, mem.Addr) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	ms := s.Caps.LoadModule("probe")
	p := ms.Instance(0x1000)
	addr := mem.Addr(0xffff880000010000)
	s.Caps.Grant(p, caps.WriteCap(addr, 4096))
	return s, p, addr
}

// BenchmarkCheckTables hits the sharded interval index directly (no
// thread cache): one shard read lock + O(log n) probe.
func BenchmarkCheckTables(b *testing.B) {
	s, p, addr := newProbeSys(b)
	c := caps.WriteCap(addr+64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Caps.Check(p, c) {
			b.Fatal("check failed")
		}
	}
}

// BenchmarkCheckCached repeats one check through a thread's cache: an
// epoch load and a direct-mapped compare, no locks, no allocation.
func BenchmarkCheckCached(b *testing.B) {
	s, p, addr := newProbeSys(b)
	th := s.NewThread("bench")
	c := caps.WriteCap(addr+64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !th.CheckCached(p, c) {
			b.Fatal("check failed")
		}
	}
}

// BenchmarkCheckContended8 drives table checks from 8 goroutines, each
// in its own 4 KiB bucket so the probes land on distinct shards — the
// shard-scaling story (the old global RWMutex bounced one lock word
// across every core).
func BenchmarkCheckContended8(b *testing.B) {
	s, p, addr := newProbeSys(b)
	for w := 0; w < 8; w++ {
		s.Caps.Grant(p, caps.WriteCap(addr+mem.Addr(w*2*mem.PageSize), 4096))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	workers := 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := caps.WriteCap(addr+mem.Addr(w*2*mem.PageSize), 8)
			for i := 0; i < per; i++ {
				if !s.Caps.Check(p, c) {
					panic("check failed")
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCrossingStore is one full mediated crossing: wrapper entry,
// guarded store (cache hit), wrapper exit.
func BenchmarkCrossingStore(b *testing.B) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	s.RegisterIterator("bench_alloc_caps", func(t *Thread, args []int64, emit func(caps.Cap) error) error {
		return emit(caps.WriteCap(mem.Addr(uint64(args[0])), 64))
	})
	s.RegisterKernelFunc("bench_kmalloc",
		[]Param{P("size", "size_t")},
		"post(if (return != 0) transfer(bench_alloc_caps(return)))",
		func(t *Thread, args []uint64) uint64 {
			a, err := t.Sys.Slab.Alloc(args[0])
			if err != nil {
				return 0
			}
			return uint64(a)
		})
	th := s.NewThread("bench")
	var buf uint64
	m, err := s.LoadModule(ModuleSpec{
		Name: "bench", Imports: []string{"bench_kmalloc"}, DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "setup", Impl: func(t *Thread, a []uint64) uint64 {
				v, _ := t.CallKernel("bench_kmalloc", 64)
				buf = v
				return 0
			}},
			{Name: "op", Impl: func(t *Thread, a []uint64) uint64 {
				_ = t.WriteU64(mem.Addr(buf), a[0])
				return 0
			}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := th.CallModule(m, "setup"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.CallModule(m, "op", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGateSys boots the module→kernel crossing rig shared by the gate
// and named-call benchmarks: one annotated export, one module whose
// "loop" function performs n crossings through either entry point.
func benchGateSys(b *testing.B) (*Thread, *Module) {
	b.Helper()
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	s.RegisterKernelFunc("bench_sink",
		[]Param{P("p", "void *"), P("n", "u64")},
		"pre(check(write, p, 8)) post(if (return == 0) check(write, p, 8))",
		func(t *Thread, args []uint64) uint64 { return 0 })
	var gSink *Gate
	m, err := s.LoadModule(ModuleSpec{
		Name: "gbench", Imports: []string{"bench_sink"}, DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "gateloop", Params: []Param{P("n", "u64"), P("p", "u64")},
				Impl: func(t *Thread, a []uint64) uint64 {
					for i := uint64(0); i < a[0]; i++ {
						if ret, err := gSink.Call(t, a[1], 8); err != nil || ret != 0 {
							return 1
						}
					}
					return 0
				}},
			{Name: "namedloop", Params: []Param{P("n", "u64"), P("p", "u64")},
				Impl: func(t *Thread, a []uint64) uint64 {
					for i := uint64(0); i < a[0]; i++ {
						if ret, err := t.CallKernel("bench_sink", a[1], 8); err != nil || ret != 0 {
							return 1
						}
					}
					return 0
				}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	gSink = m.Gate("bench_sink")
	return s.NewThread("bench"), m
}

// BenchmarkGateCrossing is the bound-gate module→kernel crossing: no
// symbol lookup, no argument-slice allocation, compiled pre/post
// action programs.
func BenchmarkGateCrossing(b *testing.B) {
	th, m := benchGateSys(b)
	args := []uint64{uint64(b.N), uint64(m.Data)}
	b.ReportAllocs()
	b.ResetTimer()
	if ret, err := th.CallModule(m, "gateloop", args...); err != nil || ret != 0 {
		b.Fatalf("gateloop failed: ret=%d err=%v", ret, err)
	}
}

// BenchmarkNamedCrossing is the same crossing through the string-keyed
// CallKernel path, for comparison against BenchmarkGateCrossing.
func BenchmarkNamedCrossing(b *testing.B) {
	th, m := benchGateSys(b)
	args := []uint64{uint64(b.N), uint64(m.Data)}
	b.ReportAllocs()
	b.ResetTimer()
	if ret, err := th.CallModule(m, "namedloop", args...); err != nil || ret != 0 {
		b.Fatalf("namedloop failed: ret=%d err=%v", ret, err)
	}
}
