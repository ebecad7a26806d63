package core_test

import (
	"fmt"
	"testing"
	"time"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// runsAs is a module body that reports the instance principal it runs
// as (0 for the shared or global principal).
func runsAs(th *core.Thread, args []uint64) uint64 {
	return uint64(th.CurrentPrincipal().Name)
}

// loadSubstModule loads a module whose handler declares no parameter
// list yet carries principal(dev). Reached through a function-pointer
// slot, it must borrow the slot type's parameter names to resolve dev;
// without them the principal expression has nothing to bind.
func loadSubstModule(tb testing.TB, f *fixture, name string, handler core.Impl) *core.Module {
	tb.Helper()
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     name,
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "handler", Annot: "principal(dev)", Impl: handler},
			{
				Name:   "install",
				Params: []core.Param{core.P("slot", "u64"), core.P("fn", "u64")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(mem.Addr(args[0]), args[1]); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// moduleSlot has m install its own handler into a slot in its data
// section, so the slot's writer set names the module.
func moduleSlot(tb testing.TB, f *fixture, m *core.Module) mem.Addr {
	tb.Helper()
	slot := m.Data + 64
	if ret, err := f.t.CallModule(m, "install", uint64(slot), uint64(m.Funcs["handler"].Addr)); err != nil || ret != 0 {
		tb.Fatalf("install: ret=%d err=%v", ret, err)
	}
	return slot
}

// TestSubstitutedIndirectCall: a parameter-less handler reached
// through an ops.handler slot runs as Instance(dev) on every kernel-side
// indirect path — the module-written slot (writer-set slow path) by
// name and through the registered type, and a kernel-written slot
// (fast path).
func TestSubstitutedIndirectCall(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := loadSubstModule(t, f, "subst", runsAs)
	slot := moduleSlot(t, f, m)

	call := func(t *testing.T, via func(dev mem.Addr) (uint64, error)) core.Snapshot {
		t.Helper()
		dev := f.sys.Statics.Alloc(16, 8)
		before := f.sys.Mon.Stats.Snapshot()
		ret, err := via(dev)
		if err != nil {
			t.Fatalf("substituted indirect call: %v", err)
		}
		if ret != uint64(dev) {
			t.Fatalf("handler ran as instance %#x, want Instance(dev) %#x", ret, uint64(dev))
		}
		return f.sys.Mon.Stats.Snapshot().Sub(before)
	}

	t.Run("module_slot", func(t *testing.T) {
		d := call(t, func(dev mem.Addr) (uint64, error) {
			return f.t.IndirectCall(slot, "ops.handler", uint64(dev), 5)
		})
		if d.IndCallSlow != 1 {
			t.Fatalf("module-written slot skipped the writer-set check: %+v", d)
		}
	})

	t.Run("fptrtype", func(t *testing.T) {
		g, _ := f.sys.FPtrType("ops.handler")
		// Every call through the module-written slot runs the writer-set
		// check: nothing answers for the slot from an earlier call.
		for i := 0; i < 2; i++ {
			d := call(t, func(dev mem.Addr) (uint64, error) {
				return g.Call(f.t, slot, uint64(dev), 5)
			})
			if d.IndCallSlow != 1 {
				t.Fatalf("call %d: %d writer-set checks, want 1", i, d.IndCallSlow)
			}
		}
		dev := uint64(f.sys.Statics.Alloc(16, 8))
		if _, err := g.Call(f.t, slot, dev, 5); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := g.Call(f.t, slot, dev, 5); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm substituted crossing allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("kernel_slot", func(t *testing.T) {
		kslot := f.sys.Statics.Alloc(8, 8)
		if err := f.sys.AS.WriteU64(kslot, uint64(m.Funcs["handler"].Addr)); err != nil {
			t.Fatal(err)
		}
		d := call(t, func(dev mem.Addr) (uint64, error) {
			return f.t.IndirectCall(kslot, "ops.handler", uint64(dev), 5)
		})
		if d.IndCallAll != 1 || d.IndCallSlow != 0 {
			t.Fatalf("kernel-written slot left the fast path: %+v", d)
		}
	})
}

// TestReloadSubstitutedIndirectCall: a stale slot still naming the
// retired generation's parameter-less handler dispatches into the
// successor's handler, which also declares no parameters — so the slot
// type's parameter names still bind dev, now against the successor's
// principals.
func TestReloadSubstitutedIndirectCall(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var ran *caps.Principal
	gen := func(n uint64) core.Impl {
		return func(th *core.Thread, args []uint64) uint64 {
			ran = th.CurrentPrincipal()
			return n
		}
	}
	old := loadSubstModule(t, f, "m", gen(1))
	slot := f.sys.Statics.Alloc(8, 8)
	if err := f.sys.AS.WriteU64(slot, uint64(old.Funcs["handler"].Addr)); err != nil {
		t.Fatal(err)
	}
	if err := f.sys.BeginReload(old, time.Second); err != nil {
		t.Fatal(err)
	}
	f.sys.RetireModule(old)
	fresh := loadSubstModule(t, f, "m", gen(2))
	f.sys.CompleteReload(old, fresh)

	dev := f.sys.Statics.Alloc(16, 8)
	ret, err := f.t.IndirectCall(slot, "ops.handler", uint64(dev), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 2 {
		t.Fatalf("stale slot ran generation %d, want the successor's 2", ret)
	}
	if want := fresh.Set.Instance(dev); ran != want {
		t.Fatalf("successor handler ran as %v, want %v", ran, want)
	}
}

// TestConcurrentSubstitutedIndirectCall: threads alternate two slot
// types with different parameter orders over one parameter-less
// declaration, through the registered types and the by-name path.
// Every crossing must bind dev from its own slot type's parameter list.
func TestConcurrentSubstitutedIndirectCall(t *testing.T) {
	f := newFixture(t, core.Enforce)
	rev := f.sys.RegisterFPtrType("ops.handler_rev",
		[]core.Param{core.P("n", "int"), core.P("dev", "struct widget *")},
		"principal(dev)")
	fwd, _ := f.sys.FPtrType("ops.handler")
	m := loadSubstModule(t, f, "subst", runsAs)
	slot := moduleSlot(t, f, m)

	const threads, rounds = 4, 200
	errs := make([]error, threads)
	var handles []*core.ThreadHandle
	for i := 0; i < threads; i++ {
		i := i
		dev := uint64(f.sys.Statics.Alloc(16, 8))
		handles = append(handles, f.sys.Spawn(fmt.Sprintf("subst%d", i), func(th *core.Thread) {
			for r := 0; r < rounds; r++ {
				var ret uint64
				var err error
				switch r % 4 {
				case 0:
					ret, err = fwd.Call(th, slot, dev, 5)
				case 1:
					ret, err = rev.Call(th, slot, 5, dev)
				case 2:
					ret, err = th.IndirectCall(slot, "ops.handler", dev, 5)
				default:
					ret, err = th.IndirectCall(slot, "ops.handler_rev", 5, dev)
				}
				if err != nil || ret != dev {
					errs[i] = fmt.Errorf("round %d: ran as %#x, want %#x (err %v)", r, ret, dev, err)
					return
				}
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	if n := len(f.sys.Mon.Violations()); n != 0 {
		t.Fatalf("%d violations: %v", n, f.sys.Mon.LastViolation())
	}
}
