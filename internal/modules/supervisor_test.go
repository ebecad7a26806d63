package modules_test

// Supervisor coverage: a violation (or contained stock-mode panic)
// quarantines the module and the supervisor restarts it; the circuit
// breaker bounds restarts under enforcement (with a forensic dump at
// the tripping violation); the recovery metrics reach
// System.Metrics(); and reloads of distinct modules run concurrently —
// one can sit in quiesce while the other swaps generations.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/modules"
	"lxfi/internal/modules/can"
	"lxfi/internal/modules/econet"
)

// eventLog collects supervisor events for assertions.
type eventLog struct {
	mu  sync.Mutex
	evs []modules.SupervisorEvent
}

func (l *eventLog) add(ev modules.SupervisorEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.evs))
	for i, ev := range l.evs {
		out[i] = ev.Kind
	}
	return out
}

func (l *eventLog) has(kind string) bool {
	for _, k := range l.kinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// killEconet arms a one-shot contained panic at the kernel-export
// boundary and trips it with a socket(2): econet's create calls
// kmalloc, the gate converts the panic into a module kill.
func killEconet(t *testing.T, ld *modules.Loader, th *core.Thread) {
	t.Helper()
	failpoint.Arm("kernel.entry", failpoint.Policy{Arg: "kmalloc", Panic: true, OneShot: true})
	if _, err := ld.BC.Net.Socket(th, econet.Family); err == nil {
		t.Fatal("socket succeeded with a panic armed at kmalloc")
	}
	m, ok := ld.Module("econet")
	if !ok || !m.Dead() {
		t.Fatal("contained panic did not kill the module")
	}
}

func TestSupervisorRestartsKilledModule(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		t.Run(mode.String(), func(t *testing.T) {
			defer failpoint.DisarmAll()
			ld, th := newLoader(t, mode)
			if _, err := ld.Load(th, "econet"); err != nil {
				t.Fatal(err)
			}
			log := &eventLog{}
			sup := modules.StartSupervisor(ld, modules.SupervisorConfig{
				Backoff: time.Millisecond, OnEvent: log.add,
			})
			defer sup.Stop()

			killEconet(t, ld, th)
			if !sup.WaitIdle(5 * time.Second) {
				t.Fatal("supervisor did not recover the module in time")
			}
			m, ok := ld.Module("econet")
			if !ok || m.Dead() {
				t.Fatal("module not alive after supervised restart")
			}
			// The restarted generation serves traffic.
			sock, err := ld.BC.Net.Socket(th, econet.Family)
			if err != nil {
				t.Fatalf("socket after restart: %v", err)
			}
			user := ld.BC.K.Sys.User.Alloc(64, 8)
			if _, err := ld.BC.Net.Sendmsg(th, sock, user, 16, 0); err != nil {
				t.Fatalf("sendmsg after restart: %v", err)
			}
			if got := sup.Restarts(); got != 1 {
				t.Fatalf("restarts = %d, want 1", got)
			}
			if !log.has(modules.EventQuarantine) || !log.has(modules.EventRestart) {
				t.Fatalf("event log %v missing quarantine/restart", log.kinds())
			}

			// In enforce mode the contained panic is an attributed
			// violation; in stock mode the log stays empty (an oops is
			// not a policy decision).
			viols := ld.BC.K.Sys.Mon.Violations()
			if mode == core.Enforce {
				if len(viols) != 1 || viols[0].Op != "panic" {
					t.Fatalf("violations = %v, want one panic violation", viols)
				}
			} else if len(viols) != 0 {
				t.Fatalf("stock mode recorded violations: %v", viols)
			}

			// The supervisor slice of the metrics registry.
			ms := ld.BC.K.Sys.Metrics()
			if ms.Supervisor == nil {
				t.Fatal("Metrics().Supervisor missing while supervisor runs")
			}
			if ms.Supervisor.RestartsTotal != 1 || ms.Supervisor.Quarantined != 0 ||
				ms.Supervisor.BreakerOpen != 0 || ms.Supervisor.RecoverySamples != 1 {
				t.Fatalf("supervisor metrics = %+v", ms.Supervisor)
			}
			if ms.Supervisor.RecoveryP99Ns == 0 || len(ms.Supervisor.RecoveryNs) == 0 {
				t.Fatalf("recovery histogram empty: %+v", ms.Supervisor)
			}
		})
	}
}

func TestSupervisorStopRemovesMetricsSource(t *testing.T) {
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "econet"); err != nil {
		t.Fatal(err)
	}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{})
	if ld.BC.K.Sys.Metrics().Supervisor == nil {
		t.Fatal("no supervisor metrics while running")
	}
	sup.Stop()
	if ld.BC.K.Sys.Metrics().Supervisor != nil {
		t.Fatal("supervisor metrics still published after Stop")
	}
}

func TestSupervisorBreakerOpensUnderEnforcement(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "econet"); err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{
		Backoff:         time.Millisecond,
		BreakerFailures: 3,
		BreakerWindow:   time.Minute,
		OnEvent:         log.add,
	})
	defer sup.Stop()

	// Two deaths restart; the third inside the window trips the breaker.
	for i := 0; i < 3; i++ {
		killEconet(t, ld, th)
		if !sup.WaitIdle(5 * time.Second) {
			t.Fatalf("death %d: supervisor stuck", i+1)
		}
	}
	if !sup.BreakerOpen("econet") {
		t.Fatal("breaker did not open after 3 deaths in the window")
	}
	if got := sup.Restarts(); got != 2 {
		t.Fatalf("restarts = %d, want 2 (third death opens the breaker)", got)
	}
	if !log.has(modules.EventBreakerOpen) {
		t.Fatalf("event log %v missing breaker-open", log.kinds())
	}

	// The module stays dead and the netstack degrades gracefully:
	// ENETDOWN-mapped, ErrModuleDead still in the chain, no hang.
	if m, ok := ld.Module("econet"); !ok || !m.Dead() {
		t.Fatal("module restarted despite an open breaker")
	}
	_, err := ld.BC.Net.Socket(th, econet.Family)
	if !errors.Is(err, core.ErrModuleDead) {
		t.Fatalf("socket on broken module: %v, want ErrModuleDead in chain", err)
	}
	var deg *core.DegradedError
	if !errors.As(err, &deg) || deg.Errno != kernel.ENETDOWN {
		t.Fatalf("socket on broken module: %v, want DegradedError(ENETDOWN)", err)
	}

	// The dump-at-violation forensics were retained.
	d := sup.Dump("econet")
	if d == nil {
		t.Fatal("no forensic dump at breaker open")
	}
	if len(d.Violations) == 0 {
		t.Fatal("breaker dump carries no violation log")
	}
	ms := ld.BC.K.Sys.Metrics()
	if ms.Supervisor.BreakerOpen != 1 {
		t.Fatalf("metrics breaker_open = %d, want 1", ms.Supervisor.BreakerOpen)
	}
}

func TestSupervisorBreakerDoesNotOpenInStockMode(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Off)
	if _, err := ld.Load(th, "econet"); err != nil {
		t.Fatal(err)
	}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{
		Backoff:         time.Millisecond,
		BreakerFailures: 3,
		BreakerWindow:   time.Minute,
	})
	defer sup.Stop()

	// Stock mode has no attribution to justify refusing service: the
	// supervisor keeps restarting past the breaker threshold.
	for i := 0; i < 5; i++ {
		killEconet(t, ld, th)
		if !sup.WaitIdle(5 * time.Second) {
			t.Fatalf("death %d: supervisor stuck", i+1)
		}
	}
	if sup.BreakerOpen("econet") {
		t.Fatal("breaker opened in stock mode")
	}
	if got := sup.Restarts(); got != 5 {
		t.Fatalf("restarts = %d, want 5", got)
	}
	if m, ok := ld.Module("econet"); !ok || m.Dead() {
		t.Fatal("module not alive after stock-mode restarts")
	}
}

// TestConcurrentReloadDistinctModules pins the per-module lifecycle
// locking: a reload stalled in quiesce (an in-flight crossing pinned
// inside econet) must not serialise a concurrent reload of can.
func TestConcurrentReloadDistinctModules(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "econet"); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(th, "can"); err != nil {
		t.Fatal(err)
	}
	sys := ld.BC.K.Sys

	// Pin a crossing inside econet: socket(2) reaches econet's create,
	// whose kmalloc call blocks in the failpoint callback.
	entered := make(chan struct{})
	release := make(chan struct{})
	failpoint.Arm("kernel.entry", failpoint.Policy{
		Arg: "kmalloc", OneShot: true,
		Do: func(string) error { close(entered); <-release; return nil },
	})
	sockDone := make(chan error, 1)
	go func() {
		wth := sys.NewThread("pinned-worker")
		_, err := ld.BC.Net.Socket(wth, econet.Family)
		sockDone <- err
	}()
	<-entered

	// econet's reload parks in quiesce behind the pinned crossing.
	econetDone := make(chan error, 1)
	go func() {
		rth := sys.NewThread("econet-reloader")
		_, err := ld.Reload(rth, "econet")
		econetDone <- err
	}()

	// can's reload must complete while econet is still quiescing.
	if _, err := ld.Reload(th, "can"); err != nil {
		t.Fatalf("concurrent can reload: %v", err)
	}
	select {
	case err := <-econetDone:
		t.Fatalf("econet reload finished with its crossing still pinned (err=%v)", err)
	default:
	}

	close(release)
	if err := <-sockDone; err != nil {
		t.Fatalf("pinned socket: %v", err)
	}
	if err := <-econetDone; err != nil {
		t.Fatalf("econet reload: %v", err)
	}
	// Both modules serve traffic on their fresh generations.
	sock, err := ld.BC.Net.Socket(th, econet.Family)
	if err != nil {
		t.Fatal(err)
	}
	user := sys.User.Alloc(64, 8)
	if _, err := ld.BC.Net.Sendmsg(th, sock, user, 16, 0); err != nil {
		t.Fatal(err)
	}
	csock, err := ld.BC.Net.Socket(th, can.Family)
	if err != nil {
		t.Fatalf("can socket after reload: %v", err)
	}
	if csock == 0 {
		t.Fatal("nil can socket")
	}
	if v := sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}
