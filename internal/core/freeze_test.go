package core

import (
	"strings"
	"testing"
)

// TestConstTableFreezeAndFold pins the constant-table lifecycle around
// the first module load: before it the table is fully mutable, after
// it a rebind to a different value panics (compiled programs may have
// folded the old value), while same-value re-registration and new
// names stay legal — and the bind-time compiler really does fold a
// frozen constant out of the runtime name table.
func TestConstTableFreezeAndFold(t *testing.T) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)

	// Pre-freeze: rebinding is unrestricted.
	s.RegisterConst("GUARD", 1)
	s.RegisterConst("GUARD", 7)

	// The first load freezes the table.
	if _, err := s.LoadModule(ModuleSpec{Name: "first"}); err != nil {
		t.Fatal(err)
	}

	// An export registered after the freeze compiles with GUARD folded.
	sink := s.RegisterKernelFunc("freeze_sink",
		[]Param{P("p", "void *"), P("n", "u64")},
		"pre(if (n == GUARD) check(write, p, 8))",
		func(th *Thread, args []uint64) uint64 { return 0 })
	if sink.prog == nil || len(sink.prog.pre) == 0 || len(sink.prog.pre[0].conds) == 0 {
		t.Fatalf("freeze_sink did not compile to a program")
	}
	// The fold pin: the compiled if-condition resolved GUARD at bind
	// time, so the program's runtime name table holds only the
	// parameter fallback — not GUARD.
	for _, name := range sink.prog.pre[0].conds[0].prog.Names {
		if name == "GUARD" {
			t.Fatal("GUARD still runtime-resolved after the table froze")
		}
	}

	// Behavior: the folded value drives the condition on a real
	// module → kernel crossing. n == 7 arms the check against an
	// address the module does not own (violation); any other n skips
	// it.
	m, err := s.LoadModule(ModuleSpec{
		Name:     "cmod",
		Imports:  []string{"freeze_sink"},
		DataSize: 4096,
		Funcs: []FuncSpec{
			{Name: "cross", Params: []Param{P("p", "u64"), P("n", "u64")},
				Impl: func(th *Thread, a []uint64) uint64 {
					ret, err := th.CurrentModule().Gate("freeze_sink").Call(th, a[0], a[1])
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
	unowned := s.Statics.Alloc(64, 8)
	if ret, err := th.CallModule(m, "cross", uint64(unowned), 3); err != nil || ret != 0 {
		t.Fatalf("skipped check still failed: ret=%d err=%v", ret, err)
	}
	// The violation kills the module, so the outer crossing reports the
	// kill; either signal proves the armed check ran.
	if ret, err := th.CallModule(m, "cross", uint64(unowned), 7); err == nil && ret == 0 {
		t.Fatal("armed check passed for an unowned address")
	}
	if v := s.Mon.LastViolation(); v == nil {
		t.Fatal("armed check produced no violation")
	}

	// Post-freeze: same value and new names are fine ...
	s.RegisterConst("GUARD", 7)
	s.RegisterConst("FREEZE_LATE", 3)
	// ... a rebind to a different value panics.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("post-freeze rebind of GUARD did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "froze") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.RegisterConst("GUARD", 8)
}
