package core

import (
	"strings"
	"testing"

	"lxfi/internal/caps"
)

// TestConstTableFreezeAndFold pins the constant table's one binding
// time: the bind-time compiler folds a registered constant out of the
// runtime name table, the folded value drives a real crossing, and
// same-value re-registration and new names stay legal while a rebind
// to a different value panics (compiled programs hold the old value).
func TestConstTableFreezeAndFold(t *testing.T) {
	s := NewSystem()
	s.Mon.SetMode(Enforce)
	s.RegisterConst("GUARD", 7)

	// An export registered after GUARD compiles with it folded.
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
			t.Fatal("GUARD still runtime-resolved")
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

	// Same value and new names are fine ...
	s.RegisterConst("GUARD", 7)
	s.RegisterConst("GUARD_LATE", 3)
	// ... a rebind to a different value panics.
	mustPanic(t, "rebound", func() { s.RegisterConst("GUARD", 8) })
}

// mustPanic runs fn and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	fn()
}

// TestRegisterConstRebindPanicsBeforeLoad: a constant never rebinds,
// before the first module load as after it — a kernel export compiled
// at boot may already have folded it.
func TestRegisterConstRebindPanicsBeforeLoad(t *testing.T) {
	s := NewSystem()
	s.RegisterConst("TX_BUSY", 16)
	s.RegisterConst("TX_BUSY", 16)
	mustPanic(t, "rebound", func() { s.RegisterConst("TX_BUSY", 17) })
}

// TestUnboundNamePanicsAtRegistration: a kernel export whose annotation
// names an iterator that is not registered, or takes sizeof(*p) of a
// type with no layout, fails at registration, as a parse error does,
// instead of at its first crossing.
func TestUnboundNamePanicsAtRegistration(t *testing.T) {
	s := NewSystem()
	body := func(th *Thread, args []uint64) uint64 { return 0 }
	mustPanic(t, `unknown capability iterator "no_such_caps"`, func() {
		s.RegisterKernelFunc("iter_sink", []Param{P("p", "void *")}, "pre(check(no_such_caps(p)))", body)
	})
	mustPanic(t, "cannot resolve sizeof", func() {
		s.RegisterKernelFunc("sizeof_sink", []Param{P("w", "struct nowhere *")}, "pre(check(write, w))", body)
	})
	if _, ok := s.FuncByName("iter_sink"); ok {
		t.Fatal("export with an unbound iterator was registered")
	}
}

// TestUnboundIteratorFailsLoadModule: a module function whose
// annotation names an unregistered iterator makes LoadModule return an
// error, and the failed load leaves the name free.
func TestUnboundIteratorFailsLoadModule(t *testing.T) {
	s := NewSystem()
	spec := ModuleSpec{Name: "badmod", DataSize: 4096, Funcs: []FuncSpec{{
		Name: "handler", Params: []Param{P("p", "void *")},
		Annot: "pre(check(no_such_caps(p)))",
		Impl:  func(th *Thread, args []uint64) uint64 { return 0 },
	}}}
	_, err := s.LoadModule(spec)
	if err == nil || !strings.Contains(err.Error(), `unknown capability iterator "no_such_caps"`) {
		t.Fatalf("LoadModule = %v, want an unknown-iterator error", err)
	}
	if _, ok := s.Module("badmod"); ok {
		t.Fatal("failed load published the module")
	}
	s.RegisterIterator("no_such_caps", func(th *Thread, args []int64, emit func(caps.Cap) error) error { return nil })
	if _, err := s.LoadModule(spec); err != nil {
		t.Fatalf("reload after registering the iterator: %v", err)
	}
}
