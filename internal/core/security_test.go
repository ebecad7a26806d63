package core_test

// Adversarial test matrix: every escape vector a compromised module
// might try against the reference monitor, each of which must end in a
// recorded violation (or a hard error) with no state change. These are
// the negative-space counterparts of the happy-path tests in
// core_test.go.

import (
	"errors"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// attack describes one escape attempt. run returns a non-zero value if
// the module believes it succeeded.
type attack struct {
	name string
	// setup may register extra kernel surface; returns the module impl.
	build func(f *fixture) core.Impl
	// imports for the attacking module.
	imports []string
	// wantViolation: the monitor must record one.
	wantViolation bool
}

func TestAttackMatrix(t *testing.T) {
	attacks := []attack{
		{
			name:          "write to kernel static object",
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(f.victim, 0); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "write to another module's data section",
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				other := f.loadModule(t, "bystander", nil,
					func(th *core.Thread, args []uint64) uint64 { return 0 })
				return func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(other.Data, 0xEE); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "write to user memory directly",
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				user := f.sys.User.Alloc(64, 8)
				return func(th *core.Thread, args []uint64) uint64 {
					if err := th.WriteU64(user, 7); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "zero a kernel page",
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					if err := th.Zero(f.victim, 4096); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "call kernel function not in import table",
			imports:       []string{"printk"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					if _, err := th.CallKernel("kmalloc", 64); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "call unannotated kernel function",
			imports:       []string{"forgotten_fn"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					if _, err := th.CallKernel("forgotten_fn"); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "forge a REF capability argument",
			imports:       []string{"spin_lock_init"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				// spin_lock_init demands WRITE ownership of the lock;
				// handing it a forged pointer to the victim fails.
				return func(th *core.Thread, args []uint64) uint64 {
					if _, err := th.CallKernel("spin_lock_init", uint64(f.victim)); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "indirect-call a kernel helper it cannot call",
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				target, _ := f.sys.FuncByName("printk")
				return func(th *core.Thread, args []uint64) uint64 {
					if _, err := th.CallAddr(target.Addr, "ops.handler", 0, 0); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "double free to confuse capability revocation",
			imports:       []string{"kmalloc", "kfree"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					p, _ := th.CallKernel("kmalloc", 64)
					if p == 0 {
						return 0
					}
					if _, err := th.CallKernel("kfree", p); err != nil {
						return 0
					}
					// Second free: the transfer's ownership check fails
					// (the capability is gone system-wide).
					if _, err := th.CallKernel("kfree", p); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "use freed memory after kfree",
			imports:       []string{"kmalloc", "kfree"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					p, _ := th.CallKernel("kmalloc", 64)
					_, _ = th.CallKernel("kfree", p)
					if err := th.WriteU64(mem.Addr(p), 1); err != nil {
						return 0
					}
					return 1
				}
			},
		},
		{
			name:          "grow a WRITE capability by off-by-one",
			imports:       []string{"kmalloc"},
			wantViolation: true,
			build: func(f *fixture) core.Impl {
				return func(th *core.Thread, args []uint64) uint64 {
					p, _ := th.CallKernel("kmalloc", 64)
					// One byte past the granted region.
					if err := th.WriteU8(mem.Addr(p)+64, 0xFF); err != nil {
						return 0
					}
					return 1
				}
			},
		},
	}

	for _, a := range attacks {
		t.Run(a.name, func(t *testing.T) {
			f := newFixture(t, core.Enforce)
			impl := a.build(f)
			m := f.loadModule(t, "attacker", a.imports, impl)
			ret, _ := f.t.CallModule(m, "run", 0)
			if ret != 0 {
				t.Fatalf("attack %q believed it succeeded", a.name)
			}
			if a.wantViolation && f.sys.Mon.LastViolation() == nil {
				t.Fatalf("attack %q left no violation record", a.name)
			}
			// Victim integrity.
			if v, _ := f.sys.AS.ReadU64(f.victim); v != 1000 {
				t.Fatalf("attack %q corrupted the victim: %d", a.name, v)
			}
		})
	}
}

// TestAttackMatrixSucceedsOnStock verifies the attacks are real: on the
// stock kernel the memory-corruption ones go through.
func TestAttackMatrixSucceedsOnStock(t *testing.T) {
	f := newFixture(t, core.Off)
	m := f.loadModule(t, "attacker", nil, func(th *core.Thread, args []uint64) uint64 {
		if err := th.WriteU64(f.victim, 0); err != nil {
			return 0
		}
		return 1
	})
	ret, err := f.t.CallModule(m, "run", 0)
	if err != nil || ret != 1 {
		t.Fatalf("stock attack failed: ret=%d err=%v", ret, err)
	}
	if v, _ := f.sys.AS.ReadU64(f.victim); v != 0 {
		t.Fatal("stock kernel should have allowed the corruption")
	}
}

// TestViolationKillSwitchOff checks the configurable kill policy: with
// KillOnViolation disabled the module survives (still denied, still
// logged) — useful for the audit-only deployment mode.
func TestViolationKillSwitchOff(t *testing.T) {
	f := newFixture(t, core.Enforce)
	f.sys.Mon.KillOnViolation = false
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		_ = th.WriteU64(f.victim, 0)
		return 5
	})
	ret, err := f.t.CallModule(m, "run", 0)
	if err != nil || ret != 5 {
		t.Fatalf("ret=%d err=%v", ret, err)
	}
	if m.Dead() {
		t.Fatal("module killed despite KillOnViolation=false")
	}
	if len(f.sys.Mon.Violations()) == 0 {
		t.Fatal("violation not logged")
	}
	if v, _ := f.sys.AS.ReadU64(f.victim); v != 1000 {
		t.Fatal("write still must be denied")
	}
}

// TestViolationCallback checks that a violation subscriber hears every
// violation, once.
func TestViolationCallback(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var seen []*core.Violation
	cancel := f.sys.Mon.SubscribeViolationThread(func(v *core.Violation, _ *core.Thread) { seen = append(seen, v) })
	defer cancel()
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		_ = th.WriteU64(f.victim, 0)
		return 0
	})
	_, err := f.t.CallModule(m, "run", 0)
	if !errors.Is(err, core.ErrModuleDead) {
		t.Fatalf("err = %v", err)
	}
	if len(seen) != 1 || seen[0].Op != "memwrite" {
		t.Fatalf("callback saw %v", seen)
	}
}

// TestCapabilityLookupIsRangeExact probes WRITE boundaries around a
// granted region from module context (belt-and-braces on top of the
// caps unit tests, through the full guard stack).
func TestCapabilityLookupIsRangeExact(t *testing.T) {
	f := newFixture(t, core.Enforce)
	var base uint64
	m := f.loadModule(t, "m", []string{"kmalloc"}, func(th *core.Thread, args []uint64) uint64 {
		if base == 0 {
			base, _ = th.CallKernel("kmalloc", 96)
			return 0
		}
		if err := th.WriteU8(mem.Addr(args[0]), 1); err != nil {
			return 1
		}
		return 0
	})
	if _, err := f.t.CallModule(m, "run", 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off     uint64
		blocked bool
	}{
		{0, false}, {95, false}, {96, true},
	}
	for _, c := range cases {
		f.sys.Mon.KillOnViolation = false
		ret, err := f.t.CallModule(m, "run", base+c.off)
		if err != nil {
			t.Fatal(err)
		}
		if (ret == 1) != c.blocked {
			t.Errorf("offset %d: blocked=%v want %v", c.off, ret == 1, c.blocked)
		}
	}
	_ = caps.WriteCap // keep import for doc reference
}
