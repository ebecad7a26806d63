package core

import (
	"strings"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// gateSys boots a system with one annotated kernel export and one
// module importing it, returning the pieces gate tests need. The
// module's leaf function is an unannotated kernel→module target.
func gateSys(t *testing.T, annot string) (*System, *Thread, *Module, *Gate) {
	t.Helper()
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	var got []uint64
	s.RegisterKernelFunc("gate_sink",
		[]Param{P("p", "void *"), P("n", "u64")},
		annot,
		func(th *Thread, args []uint64) uint64 {
			got = append(got[:0], args...)
			return 0
		})
	m, err := s.LoadModule(ModuleSpec{
		Name:     "gmod",
		Imports:  []string{"gate_sink"},
		DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "cross", Params: []Param{P("p", "u64"), P("n", "u64")},
				Impl: func(th *Thread, a []uint64) uint64 {
					ret, err := th.CurrentModule().Gate("gate_sink").Call(th, a[0], a[1])
					if err != nil || ret != 0 {
						return 1
					}
					return 0
				}},
			{Name: "leaf", Params: []Param{P("p", "u64"), P("n", "u64")},
				Impl: func(*Thread, []uint64) uint64 { return 0 }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.NewThread("t"), m, m.Gate("gate_sink")
}

// TestGateCallRunsFullContract proves a gate call is mediated exactly
// like the string-keyed path: the compiled pre action still rejects a
// crossing whose capability the module does not own.
func TestGateCallRunsFullContract(t *testing.T) {
	s, th, m, _ := gateSys(t, "pre(check(write, p, 8))")
	owned := m.Data // module owns its data section
	if ret, err := th.CallModule(m, "cross", uint64(owned), 8); err != nil || ret != 0 {
		t.Fatalf("owned crossing failed: ret=%d err=%v", ret, err)
	}
	// A kernel address the module holds no WRITE for must violate.
	unowned := s.Statics.Alloc(64, 8)
	if _, err := th.CallModule(m, "cross", uint64(unowned), 8); err == nil {
		t.Fatal("gate call with unowned capability must fail the pre check")
	}
	if v := s.Mon.LastViolation(); v == nil || !strings.Contains(v.Detail, "does not own") {
		t.Fatalf("expected ownership violation, got %v", v)
	}
}

// TestGateCallAllocationFree is the 0 allocs/op guarantee at unit
// level for every crossing entry point: called warm with literal
// arguments, none allocates. Each copies its arguments onto the
// thread's crossing stack, so no caller's variadic slice escapes.
//
// The churn rows bump the capability epoch before every kernel-side
// indirect call, as real traffic does several times per operation,
// through a kernel-written slot (writer-set fast path) and a slot in
// the module's data section (the slow path's grantee sweep). Each call
// then runs its checks afresh, and still allocates nothing.
func TestGateCallAllocationFree(t *testing.T) {
	const annot = "pre(check(write, p, 8)) post(if (return == 0) check(write, p, 8))"
	s, th, m, g := gateSys(t, annot)
	sinkT := s.RegisterFPtrType("sink_t", []Param{P("p", "void *"), P("n", "u64")}, annot)
	leafT := s.RegisterFPtrType("leaf_t", []Param{P("p", "u64"), P("n", "u64")}, "")
	sink := g.Func().Addr
	slot := s.Statics.Alloc(8, 8)
	modSlot := m.Data + 64 // the module's shared principal holds WRITE here
	for _, a := range []mem.Addr{slot, modSlot} {
		if err := s.AS.WriteU64(a, uint64(m.Funcs["leaf"].Addr)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.WST.Empty(slot) || s.WST.Empty(modSlot) {
		t.Fatal("want one slot on each side of the writer-set check")
	}
	// Re-granting a capability the module already holds changes nothing
	// but the epoch.
	churn := caps.RefCap("epoch churn", m.Data)
	bump := func() { s.Caps.Grant(m.Set.Shared(), churn) }
	p := uint64(m.Data) // module owns its data section
	for _, e := range []struct {
		name     string
		inModule bool // called from module code, not the kernel
		call     func() (uint64, error)
	}{
		{"Gate.Call", true, func() (uint64, error) { return g.Call(th, p, 8) }},
		{"FPtrType.CallAddr", true, func() (uint64, error) { return sinkT.CallAddr(th, sink, p, 8) }},
		{"CallKernel", true, func() (uint64, error) { return th.CallKernel("gate_sink", p, 8) }},
		{"CallAddr", true, func() (uint64, error) { return th.CallAddr(sink, "sink_t", p, 8) }},
		{"FPtrType.Call", false, func() (uint64, error) { return leafT.Call(th, slot, 1, 2) }},
		{"IndirectCall", false, func() (uint64, error) { return th.IndirectCall(slot, "leaf_t", 1, 2) }},
		{"CallModule", false, func() (uint64, error) { return th.CallModule(m, "leaf", 1, 2) }},
		{"FPtrType.Call_churn_kernel_slot", false, func() (uint64, error) { bump(); return leafT.Call(th, slot, 1, 2) }},
		{"FPtrType.Call_churn_module_slot", false, func() (uint64, error) { bump(); return leafT.Call(th, modSlot, 1, 2) }},
		{"IndirectCall_churn_kernel_slot", false, func() (uint64, error) { bump(); return th.IndirectCall(slot, "leaf_t", 1, 2) }},
		{"IndirectCall_churn_module_slot", false, func() (uint64, error) { bump(); return th.IndirectCall(modSlot, "leaf_t", 1, 2) }},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.inModule {
				// The context a module body runs in.
				th.cur, th.curMod = m.Set.Shared(), m
				defer func() { th.cur, th.curMod = nil, nil }()
			}
			// Warm the env pool, the arg stack, and the check caches.
			for i := 0; i < 16; i++ {
				if ret, err := e.call(); err != nil || ret != 0 {
					t.Fatalf("warmup crossing failed: ret=%d err=%v", ret, err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if ret, err := e.call(); err != nil || ret != 0 {
					t.Fatal("crossing failed")
				}
			})
			if allocs != 0 {
				t.Fatalf("warm crossing allocates %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestGateUnknownImportPanics pins the bind-time failure mode.
func TestGateUnknownImportPanics(t *testing.T) {
	_, _, m, _ := gateSys(t, "")
	defer func() {
		if recover() == nil {
			t.Fatal("Gate on a non-import must panic at bind time")
		}
	}()
	m.Gate("kmalloc")
}

// TestFailedResolutionStat covers the satellite fix: CallKernel (and
// CallModule) on an unknown name must land in Monitor.Stats so
// violation accounting sees symbol-probing modules.
func TestFailedResolutionStat(t *testing.T) {
	s, th, m, _ := gateSys(t, "")
	before := s.Mon.Stats.Snapshot()
	if _, err := th.CallKernel("no_such_export", 1); err == nil {
		t.Fatal("unknown kernel function must error")
	}
	if _, err := th.CallModule(m, "no_such_fn"); err == nil {
		t.Fatal("unknown module function must error")
	}
	// A user function resolved via CallKernel is also a failed *kernel*
	// resolution.
	s.RegisterUserFunc("userfn", func(*Thread, []uint64) uint64 { return 0 })
	if _, err := th.CallKernel("userfn"); err == nil {
		t.Fatal("user function must not resolve as kernel export")
	}
	d := s.Mon.Stats.Snapshot().Sub(before)
	if d.FailedResolutions != 3 {
		t.Fatalf("FailedResolutions = %d, want 3", d.FailedResolutions)
	}
}

// TestRefVerdictCachedAndRevocable exercises the REF path of the
// per-thread check cache: a REF ownership check inside a compiled
// action program is answered from cache on repeat, and revocation
// (epoch bump) invalidates it immediately.
func TestRefVerdictCachedAndRevocable(t *testing.T) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	s.RegisterKernelFunc("ref_sink",
		[]Param{P("obj", "struct refobj *")},
		"pre(check(ref(struct refobj), obj))",
		func(th *Thread, args []uint64) uint64 { return 0 })
	m, err := s.LoadModule(ModuleSpec{
		Name:     "refmod",
		Imports:  []string{"ref_sink"},
		DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "cross", Params: []Param{P("obj", "u64")},
				Impl: func(th *Thread, a []uint64) uint64 {
					ret, err := th.CurrentModule().Gate("ref_sink").Call(th, a[0])
					if err != nil || ret != 0 {
						return 1
					}
					return 0
				}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t")
	// Keep the object's check-cache slot distinct from ref_sink's CALL
	// slot (the cache is direct-mapped; aliasing addresses would just
	// thrash the line and hide the hit this test asserts).
	obj := mem.Addr(0xffff8800_0200_0100)
	ref := caps.RefCap("struct refobj", obj)
	s.Caps.Grant(m.Set.Shared(), ref)

	for i := 0; i < 4; i++ {
		if ret, err := th.CallModule(m, "cross", uint64(obj)); err != nil || ret != 0 {
			t.Fatalf("REF crossing %d failed: ret=%d err=%v", i, ret, err)
		}
	}
	before := s.Mon.Stats.Snapshot()
	if ret, err := th.CallModule(m, "cross", uint64(obj)); err != nil || ret != 0 {
		t.Fatalf("warm REF crossing failed: ret=%d err=%v", ret, err)
	}
	d := s.Mon.Stats.Snapshot().Sub(before)
	if d.CapCacheHits == 0 {
		t.Fatalf("warm REF check missed the cache: %+v", d)
	}

	// Revocation must invalidate the cached allow at once.
	s.Caps.RevokeAll(ref)
	if _, err := th.CallModule(m, "cross", uint64(obj)); err == nil {
		t.Fatal("SECURITY: revoked REF capability was served from the check cache")
	}
}

// TestRefCacheTypeConfusion pins tag uniqueness: a cached allow for one
// REF type must never answer a check for a different type at the same
// address.
func TestRefCacheTypeConfusion(t *testing.T) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	for _, typ := range []string{"struct a", "struct b"} {
		typ := typ
		s.RegisterKernelFunc("sink_"+typ[7:],
			[]Param{P("obj", "*"+typ)},
			"pre(check(ref("+typ+"), obj))",
			func(th *Thread, args []uint64) uint64 { return 0 })
	}
	m, err := s.LoadModule(ModuleSpec{
		Name:     "confmod",
		Imports:  []string{"sink_a", "sink_b"},
		DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "crossa", Params: []Param{P("obj", "u64")},
				Impl: func(th *Thread, a []uint64) uint64 {
					ret, err := th.CurrentModule().Gate("sink_a").Call(th, a[0])
					if err != nil || ret != 0 {
						return 1
					}
					return 0
				}},
			{Name: "crossb", Params: []Param{P("obj", "u64")},
				Impl: func(th *Thread, a []uint64) uint64 {
					ret, err := th.CurrentModule().Gate("sink_b").Call(th, a[0])
					if err != nil || ret != 0 {
						return 1
					}
					return 0
				}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t")
	obj := mem.Addr(0xffff8800_0300_0000)
	s.Caps.Grant(m.Set.Shared(), caps.RefCap("struct a", obj))

	// Warm the cache with the owned type at obj's slot...
	for i := 0; i < 4; i++ {
		if ret, err := th.CallModule(m, "crossa", uint64(obj)); err != nil || ret != 0 {
			t.Fatalf("type-a crossing failed: ret=%d err=%v", ret, err)
		}
	}
	// ...then the unowned type at the same address must still violate.
	if _, err := th.CallModule(m, "crossb", uint64(obj)); err == nil {
		t.Fatal("SECURITY: REF verdict for struct a answered a struct b check")
	}
}
