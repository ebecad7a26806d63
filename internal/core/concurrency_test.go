package core_test

import (
	"fmt"
	"sync"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// The concurrency property battery: goroutine-backed threads hammer the
// monitor's shared state — capability grant (copy), transfer, revoke,
// and check on shared and instance principals — while the race detector
// watches. The SCOOP verification line of work is the motivation:
// concurrency contracts are only trustworthy when the interleavings are
// actually explored, not just argued about.

// TestConcurrentCapabilityChurn: N threads run a module function that
// kmallocs (WRITE transfer in), writes, and kfrees (transfer out, which
// revokes system-wide) in a tight loop, all against the same shared
// principal, while more threads hammer raw grant/check/revoke on a
// contended region. Invariants: no violations, every call succeeds, and
// after a closing revoke nobody holds the contended region.
func TestConcurrentCapabilityChurn(t *testing.T) {
	f := newFixture(t, core.Enforce)
	sys := f.sys

	const (
		threads = 8
		rounds  = 200
	)

	churn := func(th *core.Thread, args []uint64) uint64 {
		for i := uint64(0); i < args[0]; i++ {
			p, err := th.CallKernel("kmalloc", 64)
			if err != nil || p == 0 {
				return 1
			}
			if err := th.WriteU64(mem.Addr(p), i); err != nil {
				return 2
			}
			// The allocation is ours: the transfer must have landed on
			// this module's shared principal, visible from any thread.
			if err := th.LxfiCheck(caps.WriteCap(mem.Addr(p), 8)); err != nil {
				return 3
			}
			if _, err := th.CallKernel("kfree", p); err != nil {
				return 4
			}
		}
		return 0
	}
	m, err := sys.LoadModule(core.ModuleSpec{
		Name:     "churnmod",
		Imports:  []string{"kmalloc", "kfree"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "churn", Params: []core.Param{core.P("rounds", "u64")}, Impl: churn},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The contended region: repeatedly granted to and revoked from the
	// module's shared principal by dedicated threads while the churners
	// run. Checks may see either state; what must hold is the absence of
	// torn state (the race detector's job) and of violations.
	region := sys.Statics.Alloc(256, 8)
	contended := caps.WriteCap(region, 256)

	var handles []*core.ThreadHandle
	rets := make([]uint64, threads)
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		i := i
		handles = append(handles, sys.Spawn(fmt.Sprintf("churn%d", i), func(th *core.Thread) {
			rets[i], errs[i] = th.CallModule(m, "churn", rounds)
		}))
	}
	var aux sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sys.Caps.Grant(m.Set.Shared(), contended)
				_ = sys.Caps.Check(m.Set.Shared(), caps.WriteCap(region, 8))
				sys.Caps.RevokeAll(contended)
			}
		}()
	}
	for _, h := range handles {
		h.Join()
	}
	close(stop)
	aux.Wait()

	for i := 0; i < threads; i++ {
		if errs[i] != nil || rets[i] != 0 {
			t.Fatalf("churn thread %d: ret=%d err=%v", i, rets[i], errs[i])
		}
	}
	if n := len(sys.Mon.Violations()); n != 0 {
		t.Fatalf("%d violations during churn: %v", n, sys.Mon.LastViolation())
	}
	// Closing property: a system-wide revoke leaves no grantee behind.
	sys.Caps.RevokeAll(contended)
	if got := sys.Caps.WriteGrantees(nil, region); len(got) != 0 {
		t.Fatalf("region still granted to %v after RevokeAll", got)
	}
	if sys.Caps.Check(m.Set.Shared(), caps.WriteCap(region, 8)) {
		t.Fatal("shared principal still passes check after RevokeAll")
	}
}

// TestConcurrentInstancePrincipals: threads running as *different*
// instance principals of one module must never observe each other's
// capabilities, no matter the interleaving. Each thread creates its own
// instance (via the principal(dev) entry point), allocates memory under
// it, and probes a sibling's allocation — the probe must fail on every
// thread, every round.
func TestConcurrentInstancePrincipals(t *testing.T) {
	f := newFixture(t, core.Enforce)
	sys := f.sys

	const threads = 6

	// Each instance's latest allocation, for sibling probes. Index by
	// worker id; slots are written only by their owner, then published
	// through the WaitGroup/channel pair: every worker Done()s after
	// storing, the barrier closes only once all have, so the sibling
	// reads are ordered after all the writes.
	bufs := make([]mem.Addr, threads)
	var published sync.WaitGroup
	published.Add(threads)
	ready := make(chan struct{})

	work := func(th *core.Thread, args []uint64) uint64 {
		self := args[1]
		p, err := th.CallKernel("kmalloc", 64)
		if err != nil || p == 0 {
			published.Done()
			return 1
		}
		bufs[self] = mem.Addr(p)
		published.Done()
		// Instance principals own what they allocate...
		if err := th.LxfiCheck(caps.WriteCap(mem.Addr(p), 8)); err != nil {
			return 2
		}
		<-ready
		// ...and nothing a sibling allocated. Check directly (no
		// violation recorded): ownership must be invisible.
		sibling := bufs[(self+1)%threads]
		if sys.Caps.Check(th.CurrentPrincipal(), caps.WriteCap(sibling, 1)) {
			return 3
		}
		return 0
	}
	m, err := sys.LoadModule(core.ModuleSpec{
		Name:     "instmod",
		Imports:  []string{"kmalloc", "kfree"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "work",
				Params: []core.Param{core.P("dev", "u64"), core.P("self", "u64")},
				Annot:  "principal(dev)",
				Impl:   work},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	devs := make([]mem.Addr, threads)
	for i := range devs {
		devs[i] = sys.Statics.Alloc(16, 8)
	}
	rets := make([]uint64, threads)
	errsCh := make([]error, threads)
	var handles []*core.ThreadHandle
	for i := 0; i < threads; i++ {
		i := i
		handles = append(handles, sys.Spawn(fmt.Sprintf("inst%d", i), func(th *core.Thread) {
			rets[i], errsCh[i] = th.CallModule(m, "work", uint64(devs[i]), uint64(i))
		}))
	}
	// Release the sibling probes only after every worker has published
	// its allocation.
	go func() {
		published.Wait()
		close(ready)
	}()
	for _, h := range handles {
		h.Join()
	}
	for i := 0; i < threads; i++ {
		if errsCh[i] != nil || rets[i] != 0 {
			t.Fatalf("instance thread %d: ret=%d err=%v", i, rets[i], errsCh[i])
		}
	}
	if n := len(sys.Mon.Violations()); n != 0 {
		t.Fatalf("%d violations: %v", n, sys.Mon.LastViolation())
	}
}
