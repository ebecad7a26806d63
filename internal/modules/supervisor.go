package modules

import (
	"sync"
	"sync/atomic"
	"time"

	"lxfi/internal/core"
	"lxfi/internal/coredump"
	"lxfi/internal/trace"
)

// Supervisor event kinds.
const (
	// EventQuarantine: a managed module died (violation or contained
	// panic) and has been queued for restart.
	EventQuarantine = "quarantine"
	// EventRestart: a restart published a live generation (Err non-nil
	// when the intended successor failed and the rollback generation
	// serves instead).
	EventRestart = "restart"
	// EventRestartFailed: both the successor and the rollback failed to
	// load; the module is permanently dead.
	EventRestartFailed = "restart-failed"
	// EventBreakerOpen: the module died BreakerFailures times inside
	// BreakerWindow; restarts stop and the module stays dead.
	EventBreakerOpen = "breaker-open"
)

// maxBackoff caps the doubling of SupervisorConfig.Backoff.
const maxBackoff = 2 * time.Second

// SupervisorEvent describes one supervision decision.
type SupervisorEvent struct {
	Kind     string
	Module   string
	Restarts int   // lifetime restarts of this module, after this event
	Err      error // the restart error, for restart-failed and rollbacks
}

// SupervisorConfig tunes the restart policy. Zero values select the
// defaults noted on each field.
type SupervisorConfig struct {
	// Backoff is the delay before the first restart attempt; it doubles
	// per consecutive failed restart, up to 2s. Default 10ms.
	Backoff time.Duration
	// BreakerFailures deaths inside BreakerWindow trip the circuit
	// breaker under enforcement: the module is left permanently dead and
	// a forensic coredump is captured at the tripping violation.
	// Default 8.
	BreakerFailures int
	// BreakerWindow is the sliding window for BreakerFailures.
	// Default 10s.
	BreakerWindow time.Duration
	// OnEvent, if set, observes every supervision decision. Called
	// without supervisor locks held, from the dying module's goroutine
	// (quarantine, breaker) or the supervisor's (restart outcomes).
	OnEvent func(SupervisorEvent)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 8
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	return c
}

// supState is the supervisor's book on one managed module.
type supState struct {
	deaths       []time.Time // recent deaths, pruned to BreakerWindow
	restarts     int         // lifetime restarts
	consecFails  int         // consecutive failed restarts (backoff input)
	queued       bool        // in the restart queue
	pending      bool        // dead: queued or restart in flight
	pendingSince time.Time   // first death of the current outage
	permDead     bool        // breaker tripped or double-fail
	breakerOpen  bool        // permDead via the circuit breaker
	dump         *coredump.Dump
}

// Supervisor turns module deaths into restarts. It subscribes to the
// monitor's violation feed (which also carries contained stock-mode
// panics), quarantines the dying module — its substrates degrade
// gracefully while it is down — and hot-reloads it with exponential
// backoff. Under enforcement a circuit breaker bounds the work an
// adversarial module can extract: past the bound the module stays dead
// and a forensic coredump of the tripping violation is retained. In
// stock mode restarts are unbounded — there is no policy engine to
// attribute the deaths, which is exactly the restart-storm DoS the
// exploit suite demonstrates.
//
// Lock order: Supervisor.mu is taken before Loader.mu (metrics,
// Instance checks) and before nothing else; the violation hook resolves
// the loader entry *before* taking Supervisor.mu, and events and dumps
// run with no supervisor lock held.
type Supervisor struct {
	ld  *Loader
	sys *core.System
	cfg SupervisorConfig
	th  *core.Thread

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []string
	states  map[string]*supState
	stopped bool

	done     chan struct{}
	cancel   func() // violation subscription
	restarts atomic.Uint64
	recovery trace.Hist
}

// StartSupervisor subscribes a new supervisor to ld's system and starts
// its restart loop. Call Stop to shut it down.
func StartSupervisor(ld *Loader, cfg SupervisorConfig) *Supervisor {
	sys := ld.BC.K.Sys
	s := &Supervisor{
		ld:     ld,
		sys:    sys,
		cfg:    cfg.withDefaults(),
		th:     sys.NewThread("supervisor"),
		states: make(map[string]*supState),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.cancel = sys.Mon.SubscribeViolationThread(s.onViolation)
	sys.SetSupervisorMetrics(s.metrics)
	go s.run()
	return s
}

// Stop unsubscribes and stops the restart loop, waiting for an
// in-flight restart to finish. Modules left dead stay dead.
func (s *Supervisor) Stop() {
	s.cancel()
	s.sys.SetSupervisorMetrics(nil)
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.cond.Signal()
	s.mu.Unlock()
	<-s.done
}

func (s *Supervisor) state(name string) *supState {
	st := s.states[name]
	if st == nil {
		st = &supState{}
		s.states[name] = st
	}
	return st
}

func (s *Supervisor) emit(ev SupervisorEvent) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// snapshot captures a forensic dump. t, when non-nil, is the violating
// thread — we are running on its goroutine, so its unsynchronized state
// is safe to read (the dump-at-violation contract).
func (s *Supervisor) snapshot(reason string, t *core.Thread) *coredump.Dump {
	opts := coredump.Options{Reason: reason, VFS: s.ld.BC.FS, Block: s.ld.BC.Block}
	if t != nil {
		opts.Threads = []*core.Thread{t}
	}
	return coredump.Snapshot(s.sys, opts)
}

// onViolation runs on the violating thread's goroutine for every
// violation and contained panic. It decides: quarantine and queue a
// restart, or (under enforcement) trip the breaker and leave the module
// dead.
func (s *Supervisor) onViolation(v *core.Violation, t *core.Thread) {
	name, ok := s.ld.ownerOf(v.Module)
	if !ok {
		return // not a module this loader manages
	}
	now := time.Now()
	enforcing := s.sys.Mon.Enforcing()

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	st := s.state(name)
	if st.permDead {
		s.mu.Unlock()
		return
	}
	st.deaths = append(st.deaths, now)
	cut := now.Add(-s.cfg.BreakerWindow)
	for len(st.deaths) > 0 && st.deaths[0].Before(cut) {
		st.deaths = st.deaths[1:]
	}

	// Containment policies need enforcement: in stock mode there is no
	// violation attribution to justify refusing service, so the
	// supervisor keeps restarting — the unbounded behavior the
	// ViolationStorm exploit escalates.
	if enforcing && len(st.deaths) >= s.cfg.BreakerFailures {
		st.permDead, st.breakerOpen, st.pending = true, true, false
		restarts := st.restarts
		s.mu.Unlock()
		d := s.snapshot("supervisor: breaker open: "+v.Error(), t)
		s.mu.Lock()
		st.dump = d
		s.mu.Unlock()
		s.emit(SupervisorEvent{Kind: EventBreakerOpen, Module: name, Restarts: restarts})
		return
	}

	queued := false
	if !st.queued {
		st.queued, queued = true, true
		if !st.pending {
			st.pending = true
			st.pendingSince = now
		}
		s.queue = append(s.queue, name)
		s.cond.Signal()
	}
	restarts := st.restarts
	s.mu.Unlock()
	if queued {
		s.emit(SupervisorEvent{Kind: EventQuarantine, Module: name, Restarts: restarts})
	}
}

func (s *Supervisor) backoff(consecFails int) time.Duration {
	d := s.cfg.Backoff
	for i := 0; i < consecFails && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// run is the restart loop: pop a quarantined module, back off, reload.
func (s *Supervisor) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		name := s.queue[0]
		s.queue = s.queue[1:]
		st := s.states[name]
		st.queued = false
		delay := s.backoff(st.consecFails)
		since := st.pendingSince
		s.mu.Unlock()

		time.Sleep(delay)
		if s.ld.lookup(name) == nil {
			// Unloaded out from under the supervisor — nothing to revive.
			s.mu.Lock()
			if !st.queued {
				st.pending = false
			}
			s.mu.Unlock()
			continue
		}
		_, err := s.ld.Reload(s.th, name)

		var ev SupervisorEvent
		s.mu.Lock()
		if err == nil {
			st.restarts++
			st.consecFails = 0
			s.restarts.Add(1)
			if !st.queued {
				st.pending = false
			}
			s.recovery.Observe(time.Since(since).Nanoseconds())
			ev = SupervisorEvent{Kind: EventRestart, Module: name, Restarts: st.restarts}
		} else if inst, ok := s.ld.Instance(name); ok && !inst.Module().Dead() {
			// The successor failed but the loader rolled back to a fresh
			// generation of the old code: the module serves again.
			st.restarts++
			st.consecFails++
			s.restarts.Add(1)
			if !st.queued {
				st.pending = false
			}
			s.recovery.Observe(time.Since(since).Nanoseconds())
			ev = SupervisorEvent{Kind: EventRestart, Module: name, Restarts: st.restarts, Err: err}
		} else {
			st.permDead = true
			st.pending = false
			ev = SupervisorEvent{Kind: EventRestartFailed, Module: name, Restarts: st.restarts, Err: err}
		}
		s.mu.Unlock()
		if ev.Kind == EventRestartFailed {
			d := s.snapshot("supervisor: restart failed: "+name, nil)
			s.mu.Lock()
			st.dump = d
			s.mu.Unlock()
		}
		s.emit(ev)
	}
}

// Restarts returns the lifetime restart count across all modules.
func (s *Supervisor) Restarts() uint64 { return s.restarts.Load() }

// BreakerOpen reports whether name's circuit breaker has tripped.
func (s *Supervisor) BreakerOpen(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.states[name]
	return st != nil && st.breakerOpen
}

// Dump returns the forensic coredump captured when name was given up on
// (breaker or double-failed restart), or nil.
func (s *Supervisor) Dump(name string) *coredump.Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.states[name]
	if st == nil {
		return nil
	}
	return st.dump
}

// WaitIdle blocks until no module is quarantined or mid-restart (true),
// or the timeout elapses (false). Permanently dead modules do not count
// as busy — they are an outcome, not pending work.
func (s *Supervisor) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0
		if idle {
			for _, st := range s.states {
				if st.pending {
					idle = false
					break
				}
			}
		}
		s.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// metrics is the System.Metrics() source registered while the
// supervisor runs.
func (s *Supervisor) metrics() *core.SupervisorMetrics {
	s.mu.Lock()
	var quar, dead uint64
	for _, st := range s.states {
		switch {
		case st.permDead:
			dead++
		case st.pending:
			quar++
		}
	}
	s.mu.Unlock()
	return &core.SupervisorMetrics{
		RestartsTotal:   s.restarts.Load(),
		Quarantined:     quar,
		BreakerOpen:     dead,
		RecoverySamples: s.recovery.Count(),
		RecoveryP99Ns:   s.recovery.Quantile(0.99),
		RecoveryNs:      s.recovery.Snapshot(),
	}
}
