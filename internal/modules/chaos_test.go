package modules_test

// The chaos battery: every registered failpoint site is driven against
// concurrent filesystem and network traffic, with the supervisor
// restarting whatever dies. The invariants, asserted at the end of the
// run:
//
//   - no panic escapes a call gate (the test binary survives);
//   - every recorded violation is a contained "panic" from a managed
//     module — quarantine and migration never induce secondary
//     violations;
//   - recovery is bounded (WaitIdle) and the system serves a clean
//     error-free pass once the sites are disarmed;
//   - an idle bystander module (can) survives untouched: never killed,
//     capability set bit-identical across the whole run.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/coredump"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/modules/econet"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// chaosRig is the shared state of one chaos run.
type chaosRig struct {
	ld   *modules.Loader
	sup  *modules.Supervisor
	tmp  mem.Addr // tmpfs superblock
	mnx  mem.Addr // minix superblock
	stop chan struct{}
	halt sync.Once
	wg   sync.WaitGroup
	ops  atomic.Uint64 // successful worker operations
}

// stopWorkers stops the traffic workers and waits for them. A failing
// run calls it too, so no worker outlives the test and fires a later
// test's one-shot failpoint.
func (r *chaosRig) stopWorkers() {
	r.halt.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func bootChaos(t *testing.T) *chaosRig {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	bl.AddDisk(1, minixsim.DiskSectors)
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl})
	th := k.Sys.NewThread("chaos-boot")
	for _, name := range []string{"tmpfssim", "minixsim", "econet", "can"} {
		if _, err := ld.Load(th, name); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	r := &chaosRig{ld: ld, stop: make(chan struct{})}
	var err error
	if r.tmp, err = ld.BC.FS.Mount(th, tmpfssim.FsID, 0); err != nil {
		t.Fatal(err)
	}
	if r.mnx, err = ld.BC.FS.Mount(th, minixsim.FsID, 1); err != nil {
		t.Fatal(err)
	}
	r.sup = modules.StartSupervisor(ld, modules.SupervisorConfig{
		Backoff: time.Millisecond,
		// The battery kills modules far more often than any production
		// window would tolerate; keep the breaker out of the way.
		BreakerFailures: 1 << 20,
	})
	return r
}

// fsWorker hammers one mount with create/write/read/unlink rounds. All
// errors are tolerated — injected faults and quarantine windows make
// them routine — but successful rounds are counted. Every round ends
// with an unlink, even after a failed create: a name whose write, read
// or unlink hit an injected fault must not stay taken, or creates (and
// the iget crossings the panic rounds aim at) would stop for good.
func (r *chaosRig) fsWorker(name string, sb mem.Addr) {
	defer r.wg.Done()
	th := r.ld.BC.K.Sys.NewThread(name)
	v := r.ld.BC.FS
	data := bytes.Repeat([]byte{0xc7}, 512)
	for i := 0; ; i++ {
		select {
		case <-r.stop:
			return
		default:
		}
		path := fmt.Sprintf("/%s-%d", name, i%4)
		ok := false
		if _, err := v.Create(th, sb, path); err == nil {
			if _, err := v.Write(th, sb, path, 0, data); err == nil {
				got, err := v.Read(th, sb, path, 0, 512)
				ok = err == nil && bytes.Equal(got, data)
			}
		}
		if err := v.Unlink(th, sb, path); err == nil && ok {
			r.ops.Add(1)
		}
	}
}

// netWorker hammers econet with socket/sendmsg/release rounds.
func (r *chaosRig) netWorker() {
	defer r.wg.Done()
	sys := r.ld.BC.K.Sys
	th := sys.NewThread("chaos-net")
	st := r.ld.BC.Net
	user := sys.User.Alloc(64, 8)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		sock, err := st.Socket(th, econet.Family)
		if err != nil {
			continue
		}
		if _, err := st.Sendmsg(th, sock, user, 16, 0); err != nil {
			continue
		}
		if _, err := st.Release(th, sock); err != nil {
			continue
		}
		r.ops.Add(1)
	}
}

// syncWorker drives the minix writeback path so the blockdev sites see
// traffic.
func (r *chaosRig) syncWorker() {
	defer r.wg.Done()
	th := r.ld.BC.K.Sys.NewThread("chaos-sync")
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		_ = r.ld.BC.FS.Sync(th, r.mnx)
		time.Sleep(time.Millisecond)
	}
}

// managed reports whether a module name belongs to the chaos fleet.
func managed(name string) bool {
	switch name {
	case "tmpfssim", "minixsim", "econet", "can":
		return true
	}
	return false
}

func TestChaosBattery(t *testing.T) {
	defer failpoint.DisarmAll()
	r := bootChaos(t)
	defer r.sup.Stop()
	sys := r.ld.BC.K.Sys
	th := sys.NewThread("chaos-main")

	dumpBefore := coredump.Snapshot(sys, coredump.Options{Reason: "chaos: before", VFS: r.ld.BC.FS})

	r.wg.Add(4)
	defer r.stopWorkers()
	go r.fsWorker("tmp", r.tmp)
	go r.fsWorker("mnx", r.mnx)
	go r.netWorker()
	go r.syncWorker()

	// Phase 1 — error storms: every registered site in turn returns
	// injected errors into live traffic. Nothing dies; every caller
	// must degrade to an error return, never a hang or a panic.
	sites := failpoint.Sites()
	if len(sites) < 9 {
		t.Fatalf("only %d registered sites: %v", len(sites), sites)
	}
	for _, site := range sites {
		failpoint.Arm(site, failpoint.Policy{EveryNth: 3, Msg: "chaos"})
		time.Sleep(5 * time.Millisecond)
		failpoint.Disarm(site)
	}
	if len(sys.Mon.Violations()) != 0 {
		t.Fatalf("error storms caused violations: %v", sys.Mon.Violations())
	}

	// Phase 2 — contained panic rounds: a one-shot panic at the
	// kernel-export boundary kills whichever module crosses next; the
	// supervisor must restart it with traffic still running. The arg
	// filter rotates so fs modules (iget), allocation paths shared by
	// fs and net (kmalloc), and arbitrary crossings ("") all get hit.
	args := []string{"iget", "kmalloc", "", "iget", "kmalloc", ""}
	for round, arg := range args {
		if !r.sup.WaitIdle(10 * time.Second) {
			t.Fatalf("round %d: supervisor not idle before arming", round)
		}
		before := len(sys.Mon.Violations())
		restarts := r.sup.Restarts()
		failpoint.Arm("kernel.entry", failpoint.Policy{Arg: arg, Panic: true, OneShot: true, Msg: "chaos"})
		fired := false
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if len(sys.Mon.Violations()) > before {
				fired = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		failpoint.Disarm("kernel.entry")
		if !fired {
			t.Fatalf("round %d (arg %q): panic never fired under traffic", round, arg)
		}
		// The violation is logged before the supervisor hears of the
		// death, so wait for the restart itself, not just for an idle
		// supervisor.
		for deadline := time.Now().Add(10 * time.Second); r.sup.Restarts() <= restarts; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: module died but no restart happened", round)
			}
		}
		if !r.sup.WaitIdle(10 * time.Second) {
			t.Fatalf("round %d: recovery not bounded", round)
		}
	}

	// Stop the workers and verify they made real progress through the
	// storms.
	r.stopWorkers()
	if r.ops.Load() == 0 {
		t.Fatal("no worker operation ever succeeded")
	}

	// Every violation across the run is a contained panic from a
	// managed module: no bystander or secondary violations.
	for _, v := range sys.Mon.Violations() {
		if v.Op != "panic" || !managed(v.Module) {
			t.Fatalf("non-chaos violation: %v", v)
		}
	}

	// Bounded recovery: everything is alive and serves a clean pass
	// with all sites disarmed.
	failpoint.DisarmAll()
	if !r.sup.WaitIdle(10 * time.Second) {
		t.Fatal("supervisor not idle at end of run")
	}
	for _, name := range []string{"tmpfssim", "minixsim", "econet", "can"} {
		m, ok := r.ld.Module(name)
		if !ok || m.Dead() {
			t.Fatalf("%s not alive after the battery", name)
		}
	}
	preClean := len(sys.Mon.Violations())
	data := []byte("clean pass")
	if _, err := r.ld.BC.FS.Create(th, r.tmp, "/clean"); err != nil {
		t.Fatalf("clean create: %v", err)
	}
	if _, err := r.ld.BC.FS.Write(th, r.tmp, "/clean", 0, data); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	if got, err := r.ld.BC.FS.Read(th, r.tmp, "/clean", 0, uint64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean read: %q, %v", got, err)
	}
	sock, err := r.ld.BC.Net.Socket(th, econet.Family)
	if err != nil {
		t.Fatalf("clean socket: %v", err)
	}
	user := sys.User.Alloc(64, 8)
	if _, err := r.ld.BC.Net.Sendmsg(th, sock, user, 16, 0); err != nil {
		t.Fatalf("clean sendmsg: %v", err)
	}
	if err := r.ld.BC.FS.Sync(th, r.mnx); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	if got := len(sys.Mon.Violations()); got != preClean {
		t.Fatalf("clean pass recorded %d new violations", got-preClean)
	}

	// The idle bystander's capability set is bit-identical across the
	// whole run: restarts of its neighbours leaked nothing into or out
	// of it.
	dumpAfter := coredump.Snapshot(sys, coredump.Options{Reason: "chaos: after", VFS: r.ld.BC.FS})
	diff := coredump.Compare(dumpBefore, dumpAfter)
	if len(diff.ModulesAdded) != 0 || len(diff.ModulesRemoved) != 0 || len(diff.ModulesKilled) != 0 {
		t.Fatalf("module set changed across the run: %s", diff.Format())
	}
	for _, d := range diff.Deltas {
		if strings.HasPrefix(d.Principal, "can[") {
			t.Fatalf("bystander capabilities changed: %s", diff.Format())
		}
		if i := strings.IndexByte(d.Principal, '['); i < 0 || !managed(d.Principal[:i]) {
			t.Fatalf("capability delta outside the managed fleet: %s", diff.Format())
		}
	}
	for _, p := range append(diff.PrincipalsAdded, diff.PrincipalsRemoved...) {
		if strings.HasPrefix(p, "can[") {
			t.Fatalf("bystander principal set changed: %s", diff.Format())
		}
	}
}

// TestRestartPreservesCapabilities pins the no-leak property of one
// supervised restart in isolation: with no traffic between the dumps,
// the killed module's instance principal migrates bit-identically
// (kernel-heap state survives) and its shared principal only swaps
// section-local capabilities one-for-one for the successor's.
func TestRestartPreservesCapabilities(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "tmpfssim"); err != nil {
		t.Fatal(err)
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/pre"); err != nil {
		t.Fatal(err)
	}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{Backoff: time.Millisecond})
	defer sup.Stop()
	sys := ld.BC.K.Sys

	before := coredump.Snapshot(sys, coredump.Options{Reason: "pre-kill", VFS: v})
	killFS(t, ld, th, "tmpfssim", sb)
	if !sup.WaitIdle(5 * time.Second) {
		t.Fatal("no recovery")
	}
	after := coredump.Snapshot(sys, coredump.Options{Reason: "post-recovery", VFS: v})

	diff := coredump.Compare(before, after)
	instance := fmt.Sprintf("tmpfssim[%#x]", uint64(sb))
	if d, ok := diff.DeltaFor(instance); ok {
		t.Fatalf("mount instance capabilities changed across restart:\n%+v", d)
	}
	if d, ok := diff.DeltaFor("tmpfssim[shared]"); ok {
		// The successor's sections live at fresh addresses, so the
		// shared principal trades section-local capabilities
		// one-for-one; any imbalance is a leak (or a loss).
		if len(d.GainedWrites) != len(d.LostWrites) ||
			len(d.GainedCalls) != len(d.LostCalls) ||
			len(d.GainedRefs) != len(d.LostRefs) {
			t.Fatalf("shared capability swap unbalanced:\n%s", diff.Format())
		}
	}
	for _, p := range append(diff.PrincipalsAdded, diff.PrincipalsRemoved...) {
		if !strings.HasPrefix(p, "tmpfssim[") {
			t.Fatalf("foreign principal churn across restart: %v", p)
		}
	}
	// And the state behind those capabilities still works.
	if _, err := v.Lookup(th, sb, "/pre"); err != nil {
		t.Fatalf("pre-kill file lost: %v", err)
	}
	if _, err := v.Create(th, sb, "/post"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}
