package core_test

import (
	"errors"
	"strings"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

// fixture builds a small simulated kernel with the support functions the
// tests need: a spin_lock_init-alike, kmalloc/kfree, and an annotated
// ops table for indirect calls.
type fixture struct {
	sys    *core.System
	t      *core.Thread
	victim mem.Addr // a kernel object modules must not touch
}

func newFixture(tb testing.TB, mode core.Mode) *fixture {
	tb.Helper()
	sys := core.NewSystem()
	sys.Mon.SetMode(mode)
	sys.Layouts.Define("struct widget", layout.F("lock", 8), layout.F("owner", 8))

	// spin_lock_init: writes zero through its pointer argument — the §1
	// motivating example for API integrity.
	sys.RegisterKernelFunc("spin_lock_init",
		[]core.Param{core.P("lock", "u64 *")},
		"pre(check(write, lock, 8))",
		func(t *core.Thread, args []uint64) uint64 {
			if err := t.Sys.AS.WriteU64(mem.Addr(args[0]), 0); err != nil {
				return ^uint64(0)
			}
			return 0
		})

	sys.RegisterIterator("alloc_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		addr := mem.Addr(uint64(args[0]))
		size, ok := t.Sys.Slab.ObjectSize(addr)
		if !ok {
			// Dead or forged pointer: emit a probe the caller cannot own.
			return emit(caps.WriteCap(addr, 1))
		}
		return emit(caps.WriteCap(addr, size))
	})
	sys.RegisterKernelFunc("kmalloc",
		[]core.Param{core.P("size", "size_t")},
		"post(if (return != 0) transfer(alloc_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			a, err := t.Sys.Slab.Alloc(args[0])
			if err != nil {
				return 0
			}
			return uint64(a)
		})

	sys.RegisterKernelFunc("kfree",
		[]core.Param{core.P("ptr", "void *")},
		"pre(transfer(alloc_caps(ptr)))",
		func(t *core.Thread, args []uint64) uint64 {
			_ = t.Sys.Slab.Free(mem.Addr(args[0]))
			return 0
		})

	sys.RegisterKernelFunc("printk", []core.Param{core.P("msg", "const char *")}, "",
		func(t *core.Thread, args []uint64) uint64 { return 0 })

	sys.RegisterUnannotatedKernelFunc("forgotten_fn", nil,
		func(t *core.Thread, args []uint64) uint64 { return 0 })

	sys.RegisterFPtrType("ops.handler",
		[]core.Param{core.P("dev", "struct widget *"), core.P("n", "int")},
		"principal(dev)")

	th := sys.NewThread("test")
	f := &fixture{sys: sys, t: th}
	f.victim = sys.Statics.Alloc(64, 8)
	if err := sys.AS.WriteU64(f.victim, 1000); err != nil {
		tb.Fatal(err)
	}
	return f
}

// loadModule loads a module with one entry point "run" that executes fn.
func (f *fixture) loadModule(tb testing.TB, name string, imports []string, fn core.Impl) *core.Module {
	tb.Helper()
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     name,
		Imports:  imports,
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "run", Params: []core.Param{core.P("arg", "u64")}, Impl: fn},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestModuleWriteOwnData(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		mod := th.CurrentModule()
		if err := th.WriteU64(mod.Data+8, 42); err != nil {
			return 1
		}
		return 0
	})
	ret, err := f.t.CallModule(m, "run", 0)
	if err != nil || ret != 0 {
		t.Fatalf("ret=%d err=%v", ret, err)
	}
	v, _ := f.sys.AS.ReadU64(m.Data + 8)
	if v != 42 {
		t.Fatalf("data = %d", v)
	}
}

func TestModuleWriteOutsideDataBlocked(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		if err := th.WriteU64(mem.Addr(args[0]), 0); err != nil {
			return 1 // blocked
		}
		return 0
	})
	ret, err := f.t.CallModule(m, "run", uint64(f.victim))
	if ret != 1 {
		t.Fatalf("write was not blocked (ret=%d, err=%v)", ret, err)
	}
	if v, _ := f.sys.AS.ReadU64(f.victim); v != 1000 {
		t.Fatalf("victim corrupted: %d", v)
	}
	if !m.Dead() {
		t.Fatal("module should be killed after violation")
	}
	if f.sys.Mon.LastViolation().Op != "memwrite" {
		t.Fatalf("violation = %+v", f.sys.Mon.LastViolation())
	}
	// Subsequent calls into the dead module fail.
	if _, err := f.t.CallModule(m, "run", 0); !errors.Is(err, core.ErrModuleDead) {
		t.Fatalf("dead module call: %v", err)
	}
}

func TestStockModeAllowsEverything(t *testing.T) {
	f := newFixture(t, core.Off)
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		if err := th.WriteU64(mem.Addr(args[0]), 0); err != nil {
			return 1
		}
		return 0
	})
	ret, err := f.t.CallModule(m, "run", uint64(f.victim))
	if err != nil || ret != 0 {
		t.Fatalf("stock write failed: ret=%d err=%v", ret, err)
	}
	if v, _ := f.sys.AS.ReadU64(f.victim); v != 0 {
		t.Fatal("stock kernel should have allowed the write")
	}
}

func TestSpinLockInitAttack(t *testing.T) {
	// The §1 example: a module passes the address of a privileged kernel
	// field to spin_lock_init to zero it. The pre(check(write,...))
	// annotation blocks it under LXFI.
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", []string{"spin_lock_init"}, func(th *core.Thread, args []uint64) uint64 {
		_, err := th.CallKernel("spin_lock_init", args[0])
		if err != nil {
			return 1
		}
		return 0
	})
	// Legitimate use: module-owned memory (its data section).
	if ret, err := f.t.CallModule(m, "run", uint64(m.Data)); err != nil || ret != 0 {
		t.Fatalf("legitimate spin_lock_init blocked: ret=%d err=%v", ret, err)
	}
	// Attack: pointer to a kernel object.
	ret, _ := f.t.CallModule(m, "run", uint64(f.victim))
	if ret != 1 {
		t.Fatal("spin_lock_init attack not blocked")
	}
	if v, _ := f.sys.AS.ReadU64(f.victim); v != 1000 {
		t.Fatal("victim was zeroed")
	}
}

func TestCallWithoutImportBlocked(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", []string{"printk"}, func(th *core.Thread, args []uint64) uint64 {
		if _, err := th.CallKernel("spin_lock_init", uint64(th.CurrentModule().Data)); err != nil {
			return 1
		}
		return 0
	})
	ret, _ := f.t.CallModule(m, "run", 0)
	if ret != 1 {
		t.Fatal("call to non-imported function not blocked")
	}
	if !strings.Contains(f.sys.Mon.LastViolation().Detail, "CALL capability") {
		t.Fatalf("violation = %v", f.sys.Mon.LastViolation())
	}
}

func TestUnannotatedFunctionSafeDefault(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", []string{"forgotten_fn"}, func(th *core.Thread, args []uint64) uint64 {
		if _, err := th.CallKernel("forgotten_fn"); err != nil {
			return 1
		}
		return 0
	})
	ret, _ := f.t.CallModule(m, "run", 0)
	if ret != 1 {
		t.Fatal("unannotated kernel function was callable")
	}
}

func TestKmallocGrantsAndKfreeRevokes(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var got mem.Addr
	m := f.loadModule(t, "m", []string{"kmalloc", "kfree"}, func(th *core.Thread, args []uint64) uint64 {
		switch args[0] {
		case 0: // allocate and write
			p, err := th.CallKernel("kmalloc", 128)
			if err != nil || p == 0 {
				return 1
			}
			got = mem.Addr(p)
			if err := th.WriteU64(got, 7); err != nil {
				return 2
			}
			return 0
		case 1: // free
			if _, err := th.CallKernel("kfree", uint64(got)); err != nil {
				return 1
			}
			return 0
		default: // write after free
			if err := th.WriteU64(got, 9); err != nil {
				return 1
			}
			return 0
		}
	})
	if ret, err := f.t.CallModule(m, "run", 0); err != nil || ret != 0 {
		t.Fatalf("alloc+write: ret=%d err=%v", ret, err)
	}
	if ret, err := f.t.CallModule(m, "run", 1); err != nil || ret != 0 {
		t.Fatalf("free: ret=%d err=%v", ret, err)
	}
	// After kfree's transfer, the WRITE capability is gone system-wide.
	ret, _ := f.t.CallModule(m, "run", 2)
	if ret != 1 {
		t.Fatal("use-after-free write not blocked")
	}
}

// TestTransferCrossingBumpsEpochOnce counts the capability epoch across
// crossings with one transfer action each: kmalloc's post-transfer to
// the module and kfree's pre-transfer back to the kernel. A transfer is
// one capability-system operation, so each crossing advances the epoch
// by exactly 1, and the per-thread check caches refill once per
// transfer rather than once for its revocation and again for its grant.
func TestTransferCrossingBumpsEpochOnce(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var bumps [2]uint64
	m := f.loadModule(t, "m", []string{"kmalloc", "kfree"}, func(th *core.Thread, args []uint64) uint64 {
		before := th.Sys.Caps.Epoch()
		p, err := th.CallKernel("kmalloc", 128)
		if err != nil || p == 0 {
			return 1
		}
		bumps[0] = th.Sys.Caps.Epoch() - before
		if err := th.WriteU64(mem.Addr(p), 7); err != nil {
			return 2
		}
		before = th.Sys.Caps.Epoch()
		if _, err := th.CallKernel("kfree", p); err != nil {
			return 3
		}
		bumps[1] = th.Sys.Caps.Epoch() - before
		return 0
	})
	if ret, err := f.t.CallModule(m, "run", 0); err != nil || ret != 0 {
		t.Fatalf("ret=%d err=%v", ret, err)
	}
	if bumps != [2]uint64{1, 1} {
		t.Fatalf("epoch advanced by %d across kmalloc and %d across kfree, want 1 each", bumps[0], bumps[1])
	}
}

func TestKmallocShortAllocationGrant(t *testing.T) {
	// The CAN BCM pattern: the capability covers only what was actually
	// requested, so overflowing writes beyond it are blocked.
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", []string{"kmalloc"}, func(th *core.Thread, args []uint64) uint64 {
		p, err := th.CallKernel("kmalloc", 16)
		if err != nil || p == 0 {
			return 99
		}
		if err := th.WriteU64(mem.Addr(p)+8, 1); err != nil {
			return 1 // in-bounds blocked?!
		}
		if err := th.WriteU64(mem.Addr(p)+16, 1); err != nil {
			return 2 // out-of-bounds blocked (expected)
		}
		return 0
	})
	ret, _ := f.t.CallModule(m, "run", 0)
	if ret != 2 {
		t.Fatalf("overflow write: ret=%d (want 2)", ret)
	}
}

func TestPrincipalAnnotationSeparatesInstances(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		Imports:  []string{"kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name:   "attach",
				Params: []core.Param{core.P("dev", "struct widget *")},
				Annot:  "principal(dev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					p, err := th.CallKernel("kmalloc", 64)
					if err != nil || p == 0 {
						return 0
					}
					return p // per-instance buffer
				},
			},
			{
				Name:   "poke",
				Params: []core.Param{core.P("dev", "struct widget *"), core.P("buf", "u64")},
				Annot:  "principal(dev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(mem.Addr(args[1]), 5); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	devA, devB := uint64(0x1000), uint64(0x2000)
	bufA, err := f.t.CallModule(m, "attach", devA)
	if err != nil || bufA == 0 {
		t.Fatalf("attach A: %v", err)
	}
	// Instance A can write its own buffer.
	if ret, err := f.t.CallModule(m, "poke", devA, bufA); err != nil || ret != 0 {
		t.Fatalf("A poke own buffer: ret=%d err=%v", ret, err)
	}
	// Instance B cannot write A's buffer: its principal lacks the cap.
	ret, _ := f.t.CallModule(m, "poke", devB, bufA)
	if ret != 1 {
		t.Fatal("instance isolation breached: B wrote A's buffer")
	}
}

func TestGlobalPrincipalSwitch(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		Imports:  []string{"kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name:   "attach",
				Params: []core.Param{core.P("dev", "struct widget *")},
				Annot:  "principal(dev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					p, _ := th.CallKernel("kmalloc", 64)
					return p
				},
			},
			{
				Name:   "sweep",
				Params: []core.Param{core.P("dev", "struct widget *"), core.P("buf", "u64")},
				Annot:  "principal(dev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					// Cross-instance operation: requires the global
					// principal (Guideline 6).
					restore, err := th.SwitchGlobal()
					if err != nil {
						return 2
					}
					defer restore()
					if err := th.WriteU64(mem.Addr(args[1]), 0); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bufA, _ := f.t.CallModule(m, "attach", 0x1000)
	ret, err := f.t.CallModule(m, "sweep", 0x2000, bufA)
	if err != nil || ret != 0 {
		t.Fatalf("global principal should access sibling caps: ret=%d err=%v", ret, err)
	}
}

func TestPrincAliasRequiresAndWorks(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		Imports:  []string{"kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name:   "probe",
				Params: []core.Param{core.P("pcidev", "struct widget *"), core.P("ndev", "u64")},
				Annot:  "principal(pcidev) pre(copy(ref(struct widget), pcidev))",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					// Fig. 4 lines 72-73: check then alias.
					if err := th.LxfiCheck(caps.RefCap("struct widget", mem.Addr(args[0]))); err != nil {
						return 1
					}
					if err := th.PrincAlias(mem.Addr(args[0]), mem.Addr(args[1])); err != nil {
						return 2
					}
					p, _ := th.CallKernel("kmalloc", 32)
					return p
				},
			},
			{
				Name:   "xmit",
				Params: []core.Param{core.P("ndev", "u64"), core.P("buf", "u64")},
				Annot:  "principal(ndev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(mem.Addr(args[1]), 1); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pcidev, ndev := uint64(0xAAA0), uint64(0xBBB0)
	buf, err := f.t.CallModule(m, "probe", pcidev, ndev)
	if err != nil || buf == 0 {
		t.Fatalf("probe: buf=%d err=%v", buf, err)
	}
	// The capability was acquired under the pcidev name; the alias makes
	// it reachable under the ndev name.
	if ret, err := f.t.CallModule(m, "xmit", ndev, buf); err != nil || ret != 0 {
		t.Fatalf("alias did not unify principals: ret=%d err=%v", ret, err)
	}
}

func TestPostConditionalTransferOnError(t *testing.T) {
	// Fig. 4: post(if (return < 0) transfer(ref(...), pcidev)) — on
	// error the REF capability goes back to the caller.
	f := newFixture(t, core.Enforce)
	f.sys.RegisterFPtrType("pci_driver.probe",
		[]core.Param{core.P("pcidev", "struct widget *")},
		"principal(pcidev) pre(copy(ref(struct widget), pcidev)) "+
			"post(if (return < 0) transfer(ref(struct widget), pcidev))")
	fail := uint64(0)
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "probe", Type: "pci_driver.probe",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if fail != 0 {
						return ^uint64(0) // -1
					}
					return 0
				},
			},
			{
				Name:   "has_ref",
				Params: []core.Param{core.P("pcidev", "struct widget *")},
				Annot:  "principal(pcidev)",
				Impl: func(th *core.Thread, args []uint64) uint64 {
					if th.LxfiCheck(caps.RefCap("struct widget", mem.Addr(args[0]))) != nil {
						return 0
					}
					return 1
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := uint64(0x7000)
	// Successful probe: module keeps the REF capability.
	if _, err := f.t.CallModule(m, "probe", dev); err != nil {
		t.Fatal(err)
	}
	if ret, _ := f.t.CallModule(m, "has_ref", dev); ret != 1 {
		t.Fatal("REF capability missing after successful probe")
	}
	// Failing probe on a second device: capability is transferred back.
	fail = 1
	dev2 := uint64(0x8000)
	if _, err := f.t.CallModule(m, "probe", dev2); err != nil {
		t.Fatal(err)
	}
	if ret, _ := f.t.CallModule(m, "has_ref", dev2); ret != 0 {
		t.Fatal("REF capability retained after failed probe")
	}
}

func TestIndirectCallFastPath(t *testing.T) {
	f := newFixture(t, core.Enforce)
	// A slot only the kernel ever wrote: fast path, no capability check.
	slot := f.sys.Statics.Alloc(8, 8)
	fn, _ := f.sys.FuncByName("printk")
	if err := f.sys.AS.WriteU64(slot, uint64(fn.Addr)); err != nil {
		t.Fatal(err)
	}
	before := f.sys.Mon.Stats.Snapshot()
	if _, err := f.t.IndirectCall(slot, "ops.handler", 0, 0); err != nil {
		t.Fatal(err)
	}
	d := f.sys.Mon.Stats.Snapshot().Sub(before)
	if d.IndCallAll != 1 || d.IndCallSlow != 0 {
		t.Fatalf("fast path not taken: %+v", d)
	}
}

func TestIndirectCallModulePointerChecked(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var handler mem.Addr
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "handler", Type: "ops.handler",
				Impl: func(th *core.Thread, args []uint64) uint64 { return 77 },
			},
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
		t.Fatal(err)
	}
	handler = m.Funcs["handler"].Addr
	// The slot lives in the module's data section (module-writable).
	slot := m.Data + 256

	// Legitimate: module installs a pointer to its own annotated handler.
	if ret, err := f.t.CallModule(m, "install", uint64(slot), uint64(handler)); err != nil || ret != 0 {
		t.Fatalf("install: ret=%d err=%v", ret, err)
	}
	before := f.sys.Mon.Stats.Snapshot()
	ret, err := f.t.IndirectCall(slot, "ops.handler", 0x1234, 5)
	if err != nil || ret != 77 {
		t.Fatalf("indirect call: ret=%d err=%v", ret, err)
	}
	d := f.sys.Mon.Stats.Snapshot().Sub(before)
	if d.IndCallSlow != 1 {
		t.Fatalf("slow path expected for module-writable slot: %+v", d)
	}

	// Attack: module redirects the slot to a kernel function it cannot
	// call (no CALL capability for spin_lock_init).
	target, _ := f.sys.FuncByName("spin_lock_init")
	if ret, err := f.t.CallModule(m, "install", uint64(slot), uint64(target.Addr)); err != nil || ret != 0 {
		t.Fatalf("install attack ptr: ret=%d err=%v", ret, err)
	}
	if _, err := f.t.IndirectCall(slot, "ops.handler", uint64(f.victim), 0); !errors.Is(err, core.ErrViolation) {
		t.Fatalf("indirect call to unauthorized target not blocked: %v", err)
	}
	if !m.Dead() {
		t.Fatal("module should be killed")
	}
}

func TestIndirectCallUserPointerBlocked(t *testing.T) {
	f := newFixture(t, core.Enforce)
	escalated := false
	user := f.sys.RegisterUserFunc("payload", func(th *core.Thread, args []uint64) uint64 {
		escalated = true
		return 0
	})
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		DataSize: 4096,
		Funcs: []core.FuncSpec{
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
		t.Fatal(err)
	}
	slot := m.Data + 64
	if ret, err := f.t.CallModule(m, "install", uint64(slot), uint64(user.Addr)); err != nil || ret != 0 {
		t.Fatalf("install: ret=%d err=%v", ret, err)
	}
	if _, err := f.t.IndirectCall(slot, "ops.handler", 0, 0); !errors.Is(err, core.ErrViolation) {
		t.Fatalf("user-space pointer call not blocked: %v", err)
	}
	if escalated {
		t.Fatal("payload ran")
	}
}

func TestIndirectCallUserPointerEscalatesWhenStock(t *testing.T) {
	f := newFixture(t, core.Off)
	escalated := false
	user := f.sys.RegisterUserFunc("payload", func(th *core.Thread, args []uint64) uint64 {
		escalated = true
		return 0
	})
	m, _ := f.sys.LoadModule(core.ModuleSpec{
		Name: "drv", DataSize: 4096,
		Funcs: []core.FuncSpec{{
			Name:   "install",
			Params: []core.Param{core.P("slot", "u64"), core.P("fn", "u64")},
			Impl: func(th *core.Thread, args []uint64) uint64 {
				_ = th.WriteU64(mem.Addr(args[0]), args[1])
				return 0
			},
		}},
	})
	slot := m.Data + 64
	_, _ = f.t.CallModule(m, "install", uint64(slot), uint64(user.Addr))
	if _, err := f.t.IndirectCall(slot, "ops.handler", 0, 0); err != nil {
		t.Fatalf("stock kernel should have jumped to user code: %v", err)
	}
	if !escalated {
		t.Fatal("stock kernel did not run the payload")
	}
}

func TestIndirectCallAnnotationMismatch(t *testing.T) {
	f := newFixture(t, core.Enforce)
	f.sys.RegisterFPtrType("ops.other",
		[]core.Param{core.P("x", "u64")},
		"pre(check(write, x, 8))")
	m, err := f.sys.LoadModule(core.ModuleSpec{
		Name:     "drv",
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "handler", Type: "ops.handler",
				Impl: func(th *core.Thread, args []uint64) uint64 { return 1 },
			},
			{
				Name:   "install",
				Params: []core.Param{core.P("slot", "u64"), core.P("fn", "u64")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					_ = th.WriteU64(mem.Addr(args[0]), args[1])
					return 0
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	slot := m.Data + 128
	_, _ = f.t.CallModule(m, "install", uint64(slot), uint64(m.Funcs["handler"].Addr))
	// Calling through a slot typed with *different* annotations must be
	// rejected: the module cannot change a function's effective contract
	// by storing it in a differently-annotated pointer (§4.1).
	if _, err := f.t.IndirectCall(slot, "ops.other", 0); !errors.Is(err, core.ErrViolation) {
		t.Fatalf("annotation laundering not blocked: %v", err)
	}
}

func TestAnnotationPropagationConflict(t *testing.T) {
	f := newFixture(t, core.Enforce)
	_, err := f.sys.LoadModule(core.ModuleSpec{
		Name: "bad",
		Funcs: []core.FuncSpec{{
			Name:  "handler",
			Type:  "ops.handler",
			Annot: "principal(dev) pre(check(write, dev, 8))", // conflicts
			Impl:  func(th *core.Thread, args []uint64) uint64 { return 0 },
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting annotations") {
		t.Fatalf("conflicting annotations accepted: %v", err)
	}
}

func TestReturnCFI(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		th.TamperShadow() // simulate a smashed return address
		return 0
	})
	if _, err := f.t.CallModule(m, "run", 0); !errors.Is(err, core.ErrViolation) {
		t.Fatalf("corrupted return address not detected: %v", err)
	}
	if f.sys.Mon.LastViolation().Op != "cfi" {
		t.Fatalf("violation = %+v", f.sys.Mon.LastViolation())
	}
}

func TestInterruptSavesPrincipal(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var sawKernel bool
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		before := th.CurrentPrincipal()
		th.Interrupt(func(it *core.Thread) {
			sawKernel = it.InKernel()
		})
		if th.CurrentPrincipal() != before {
			return 1
		}
		return 0
	})
	ret, err := f.t.CallModule(m, "run", 0)
	if err != nil || ret != 0 {
		t.Fatalf("principal not restored after interrupt: ret=%d err=%v", ret, err)
	}
	if !sawKernel {
		t.Fatal("interrupt handler should run in kernel context")
	}
}

func TestGuardStatsCounting(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", []string{"kmalloc"}, func(th *core.Thread, args []uint64) uint64 {
		p, _ := th.CallKernel("kmalloc", 64)
		_ = th.WriteU64(mem.Addr(p), 1)
		_ = th.WriteU64(mem.Addr(p)+8, 2)
		return 0
	})
	before := f.sys.Mon.Stats.Snapshot()
	if _, err := f.t.CallModule(m, "run", 0); err != nil {
		t.Fatal(err)
	}
	d := f.sys.Mon.Stats.Snapshot().Sub(before)
	if d.FuncEntries != 2 || d.FuncExits != 2 { // wrapper for run + kmalloc
		t.Fatalf("entries/exits = %d/%d", d.FuncEntries, d.FuncExits)
	}
	if d.MemWriteChecks != 2 {
		t.Fatalf("memwrite checks = %d", d.MemWriteChecks)
	}
	if d.AnnotationActions != 1 { // kmalloc post transfer
		t.Fatalf("annotation actions = %d", d.AnnotationActions)
	}
	if d.PrincipalSwitches != 1 {
		t.Fatalf("principal switches = %d", d.PrincipalSwitches)
	}
}

func TestStockModeNoGuards(t *testing.T) {
	f := newFixture(t, core.Off)
	m := f.loadModule(t, "m", []string{"kmalloc"}, func(th *core.Thread, args []uint64) uint64 {
		p, _ := th.CallKernel("kmalloc", 64)
		_ = th.WriteU64(mem.Addr(p), 1)
		return 0
	})
	before := f.sys.Mon.Stats.Snapshot()
	if _, err := f.t.CallModule(m, "run", 0); err != nil {
		t.Fatal(err)
	}
	d := f.sys.Mon.Stats.Snapshot().Sub(before)
	if d.MemWriteChecks+d.FuncEntries+d.AnnotationActions != 0 {
		t.Fatalf("stock mode executed guards: %+v", d)
	}
}

func TestModuleIndirectCallViaCallAddr(t *testing.T) {
	f := newFixture(t, core.Enforce)
	f.sys.RegisterFPtrType("callback", []core.Param{core.P("arg", "u64")}, "")
	cb := f.sys.RegisterKernelFunc("the_callback", []core.Param{core.P("arg", "u64")}, "",
		func(th *core.Thread, args []uint64) uint64 { return args[0] + 1 })
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		ret, err := th.CallAddr(mem.Addr(args[0]), "callback", 41)
		if err != nil {
			return 0
		}
		return ret
	})
	// Without a CALL capability for the callback, the jump is blocked.
	if ret, _ := f.t.CallModule(m, "run", uint64(cb.Addr)); ret != 0 {
		t.Fatal("module called a callback it has no CALL capability for")
	}
	// Grant the capability (as a kernel API handing out a callback would
	// via a copy(call, ...) annotation) and retry.
	m2 := f.loadModule(t, "m2", nil, func(th *core.Thread, args []uint64) uint64 {
		ret, err := th.CallAddr(mem.Addr(args[0]), "callback", 41)
		if err != nil {
			return 0
		}
		return ret
	})
	f.sys.Caps.Grant(m2.Set.Shared(), caps.CallCap(cb.Addr))
	if ret, err := f.t.CallModule(m2, "run", uint64(cb.Addr)); err != nil || ret != 42 {
		t.Fatalf("authorized callback failed: ret=%d err=%v", ret, err)
	}
}

func TestLoadModuleErrors(t *testing.T) {
	f := newFixture(t, core.Enforce)
	if _, err := f.sys.LoadModule(core.ModuleSpec{Name: "x", Imports: []string{"nope"}}); err == nil {
		t.Fatal("unknown import accepted")
	}
	if _, err := f.sys.LoadModule(core.ModuleSpec{
		Name:  "x",
		Funcs: []core.FuncSpec{{Name: "f", Type: "ghost.type"}},
	}); err == nil {
		t.Fatal("unknown fptr type accepted")
	}
	if _, err := f.sys.LoadModule(core.ModuleSpec{Name: "dup"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sys.LoadModule(core.ModuleSpec{Name: "dup"}); err == nil {
		t.Fatal("duplicate module accepted")
	}
}

func TestUnloadModule(t *testing.T) {
	f := newFixture(t, core.Enforce)
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 { return 0 })
	addr := m.Funcs["run"].Addr
	f.sys.UnloadModule("m")
	if _, ok := f.sys.FuncByAddr(addr); ok {
		t.Fatal("function survived unload")
	}
	if _, ok := f.sys.Module("m"); ok {
		t.Fatal("module survived unload")
	}
}
