package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lxfi/internal/core"
)

// reloadFixture loads generation v1 of a module, quiesces it, and
// swaps in generation v2 under the same name, returning both.
func reloadSwap(tb testing.TB, f *fixture, imports []string, v1, v2 core.Impl) (old, fresh *core.Module) {
	tb.Helper()
	old = f.loadModule(tb, "m", imports, v1)
	if err := f.sys.BeginReload(old, time.Second); err != nil {
		tb.Fatal(err)
	}
	f.sys.RetireModule(old)
	fresh = f.loadModule(tb, "m", imports, v2)
	f.sys.CompleteReload(old, fresh)
	return old, fresh
}

// A crossing dispatched against the retired generation — a stale
// function pointer, a by-name call that raced the reload — must land in
// the successor's declaration, not the old closure.
func TestReloadRedirectsStaleDispatch(t *testing.T) {
	f := newFixture(t, core.Enforce)
	old, _ := reloadSwap(t, f, nil,
		func(th *core.Thread, args []uint64) uint64 { return 1 },
		func(th *core.Thread, args []uint64) uint64 { return 2 })

	ret, err := f.t.CallModule(old, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 2 {
		t.Fatalf("stale dispatch ran generation returning %d, want successor's 2", ret)
	}
}

// New crossings arriving while the module quiesces park at the gate and
// complete against the successor — no crossing is dropped.
func TestReloadParksNewCrossings(t *testing.T) {
	f := newFixture(t, core.Enforce)
	inV1 := make(chan struct{})
	release := make(chan struct{})
	old := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		close(inV1)
		<-release
		return 1
	})

	// An in-flight crossing holds the module busy.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := f.sys.NewThread("inflight")
		if ret, err := th.CallModule(old, "run", 0); err != nil || ret != 1 {
			t.Errorf("in-flight crossing: ret=%d err=%v", ret, err)
		}
	}()
	<-inV1

	quiesced := make(chan error, 1)
	go func() { quiesced <- f.sys.BeginReload(old, 5*time.Second) }()
	for !old.Quiescing() {
		time.Sleep(time.Millisecond)
	}

	// A crossing arriving mid-quiesce must park, not fail.
	parked := make(chan uint64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := f.sys.NewThread("parked")
		ret, err := th.CallModule(old, "run", 0)
		if err != nil {
			t.Errorf("parked crossing: %v", err)
		}
		parked <- ret
	}()

	select {
	case <-parked:
		t.Fatal("crossing completed against a quiescing module")
	case <-time.After(20 * time.Millisecond):
	}

	close(release) // drain the in-flight crossing
	if err := <-quiesced; err != nil {
		t.Fatal(err)
	}
	f.sys.RetireModule(old)
	fresh := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 { return 2 })
	f.sys.CompleteReload(old, fresh)

	if ret := <-parked; ret != 2 {
		t.Fatalf("parked crossing ran generation returning %d, want successor's 2", ret)
	}
	wg.Wait()
}

// A quiesce that cannot drain aborts cleanly: the module returns to
// live and keeps serving crossings.
func TestReloadQuiesceTimeoutAborts(t *testing.T) {
	f := newFixture(t, core.Enforce)
	entered := make(chan struct{})
	release := make(chan struct{})
	m := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
		return 7
	})
	go func() {
		th := f.sys.NewThread("hung")
		_, _ = th.CallModule(m, "run", 0)
	}()
	<-entered

	if err := f.sys.BeginReload(m, 10*time.Millisecond); err == nil {
		t.Fatal("quiesce should time out with a crossing in flight")
	}
	close(release)
	if m.Quiescing() || m.Retired() {
		t.Fatal("aborted quiesce left the module non-live")
	}
	if ret, err := f.t.CallModule(m, "run", 0); err != nil || ret != 7 {
		t.Fatalf("module dead after aborted quiesce: ret=%d err=%v", ret, err)
	}
}

// A gate bound by the retired generation is a dangling import-table
// pointer: crossing through it is a violation under enforcement, but
// lands silently on a stock kernel (the exploit window).
func TestStaleGateBlockedUnderEnforcement(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		f := newFixture(t, mode)
		var stale *core.Gate
		v1 := func(th *core.Thread, args []uint64) uint64 {
			stale = th.CurrentModule().Gate("printk")
			return 0
		}
		v2 := func(th *core.Thread, args []uint64) uint64 { return 0 }
		old := f.loadModule(t, "m", []string{"printk"}, v1)
		if _, err := f.t.CallModule(old, "run", 0); err != nil {
			t.Fatal(err)
		}
		if err := f.sys.BeginReload(old, time.Second); err != nil {
			t.Fatal(err)
		}
		f.sys.RetireModule(old)
		fresh := f.loadModule(t, "m", []string{"printk"}, v2)
		f.sys.CompleteReload(old, fresh)

		_, err := stale.Call(f.t, 0)
		if mode == core.Enforce {
			if !errors.Is(err, core.ErrViolation) {
				t.Fatalf("stale gate crossing not flagged under enforcement: %v", err)
			}
		} else if err != nil {
			t.Fatalf("stale gate crossing should land on stock: %v", err)
		}
	}
}

// A reload whose fresh generation fails to load leaves the module dead:
// parked and future crossings fail with ErrModuleDead instead of
// hanging.
func TestFailedReloadKillsModule(t *testing.T) {
	f := newFixture(t, core.Enforce)
	old := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 { return 1 })
	if err := f.sys.BeginReload(old, time.Second); err != nil {
		t.Fatal(err)
	}
	f.sys.RetireModule(old)
	f.sys.FailReload(old)

	if _, err := f.t.CallModule(old, "run", 0); !errors.Is(err, core.ErrModuleDead) {
		t.Fatalf("crossing into failed-reload module: %v, want ErrModuleDead", err)
	}
}

// Chained reloads: a dispatch against generation 1 follows the
// successor chain to the newest generation.
func TestReloadSuccessorChain(t *testing.T) {
	f := newFixture(t, core.Enforce)
	g1, g2 := reloadSwap(t, f, nil,
		func(th *core.Thread, args []uint64) uint64 { return 1 },
		func(th *core.Thread, args []uint64) uint64 { return 2 })
	if err := f.sys.BeginReload(g2, time.Second); err != nil {
		t.Fatal(err)
	}
	f.sys.RetireModule(g2)
	g3 := f.loadModule(t, "m", nil, func(th *core.Thread, args []uint64) uint64 { return 3 })
	f.sys.CompleteReload(g2, g3)

	ret, err := f.t.CallModule(g1, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 3 {
		t.Fatalf("chained dispatch returned %d, want newest generation's 3", ret)
	}
}
