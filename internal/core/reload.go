// Hot module reload, the runtime half (the policy half — descriptor
// lookup, substrate unhooking, capability migration — lives in
// internal/modules).
//
// A reload replaces a module generation in place:
//
//  1. BeginReload flips the module to quiescing. New crossings park at
//     the gate (enterModule blocks on the wake channel); in-flight
//     crossings — visible as the active counter the entry protocol
//     maintains alongside the shadow stack — drain.
//  2. The caller snapshots capabilities, unhooks substrates, and calls
//     RetireModule: the name is freed for the successor and the old
//     generation's capabilities are revoked (epoch bump), but its
//     function registrations stay resolvable so stale function-pointer
//     slots still dispatch.
//  3. After the fresh generation loads, CompleteReload publishes it as
//     the successor and retires the old one. Parked crossings wake and
//     re-bind to the successor's declaration of the same name; direct
//     use of a retired generation's Gate is a violation under
//     enforcement (gate.go).
//
// The bind-time gate architecture is what makes this tractable: every
// crossing enters through a small number of choke points
// (callModuleDecl for inbound, Gate for outbound), so quiescing
// the module means parking exactly those.
package core

import (
	"fmt"
	"runtime"
	"time"
)

// Module lifecycle states.
const (
	lcLive int32 = iota
	lcQuiescing
	lcRetired
)

// insideModule reports whether the thread is currently executing in m
// or has m anywhere on its shadow stack. Such a thread must not park
// at m's gate during a quiesce: it is part of the drain the quiescer
// is waiting for, and blocking it would deadlock the reload
// (module → kernel → module callback re-entry).
func (t *Thread) insideModule(m *Module) bool {
	if t.curMod == m {
		return true
	}
	for i := len(t.shadow) - 1; i >= 0; i-- {
		if t.shadow[i].savedMod == m {
			return true
		}
	}
	return false
}

// enterModule is the crossing entry protocol: it registers the
// crossing in m's active counter and resolves which module generation
// (and which declaration) actually runs. On success the active count
// of the returned module has been incremented; the caller must
// decrement it when the crossing returns.
//
// The increment-then-check order is what makes the quiesce race-free:
// a crossing that observed the live state has already published itself
// in active, so the quiescer's active==0 read cannot miss it.
func (t *Thread) enterModule(m *Module, fn *FuncDecl) (*Module, *FuncDecl, error) {
	for {
		m.active.Add(1)
		state := m.lcState.Load()
		if state == lcLive {
			break
		}
		m.active.Add(-1)
		if state == lcQuiescing {
			if t.insideModule(m) {
				// Re-entrant crossing from inside the draining module:
				// it belongs to the drain itself and must proceed.
				m.active.Add(1)
				break
			}
			// Park until the reload transitions the module (complete or
			// abort). The channel is loaded before the state re-check:
			// a transition after the load closes exactly this channel.
			ch := m.lcWake.Load()
			if m.lcState.Load() == lcQuiescing && ch != nil {
				<-*ch
			}
			continue
		}
		// Retired: follow the successor chain.
		succ := m.successor.Load()
		if succ == nil {
			return nil, nil, fmt.Errorf("%w (%s: reload failed)", ErrModuleDead, m.Name)
		}
		m = succ
	}
	// The generation check: callers enter through the declaration's own
	// generation (dispatch goes through fn.owner), so fn belongs to an
	// earlier generation exactly when the loop above followed the
	// successor chain — a stale function-pointer slot, or a caller still
	// holding the retired *Module. The crossing is re-bound to the
	// entered generation's declaration of the same name.
	if fn.owner != nil && fn.owner != m {
		nf, ok := m.Funcs[fn.Name]
		if !ok {
			m.active.Add(-1)
			return nil, nil, fmt.Errorf(
				"core: reload of %s removed function %q", m.Name, fn.Name)
		}
		fn = nf
	}
	return m, fn, nil
}

// BeginReload quiesces module m: new crossings park at the gate while
// in-flight crossings drain. On success the module is left quiescing
// with zero crossings inside it; the caller must finish with
// CompleteReload, FailReload, or AbortReload (all of which wake parked
// crossings). A drain that exceeds timeout aborts the quiesce and
// returns the module to live.
func (s *System) BeginReload(m *Module, timeout time.Duration) error {
	if !m.lcState.CompareAndSwap(lcLive, lcQuiescing) {
		return fmt.Errorf("core: module %s is not live (concurrent reload?)", m.Name)
	}
	deadline := time.Now().Add(timeout)
	for m.active.Load() != 0 {
		if time.Now().After(deadline) {
			n := m.active.Load()
			m.lcTransition(lcLive)
			return fmt.Errorf("core: module %s: quiesce timed out with %d crossings in flight",
				m.Name, n)
		}
		runtime.Gosched()
	}
	return nil
}

// RetireModule unpublishes a quiesced module: the name is freed for
// the successor and the generation's capabilities are revoked (the
// epoch bump invalidates every per-thread check cache), but — unlike
// UnloadModule — its function registrations stay in the address
// registry so stale function-pointer slots still resolve and can be
// redirected through the successor. Lock order: core.System.mu before
// the caps locks, as in LoadModule/UnloadModule.
func (s *System) RetireModule(m *Module) {
	s.mu.Lock()
	if cur, ok := s.modules[m.Name]; ok && cur == m {
		delete(s.modules, m.Name)
	}
	s.Caps.UnloadModule(m.Set)
	s.mu.Unlock()
}

// CompleteReload publishes succ as m's successor and retires m,
// waking every crossing parked at m's gate (each re-binds to succ).
func (s *System) CompleteReload(m, succ *Module) {
	m.successor.Store(succ)
	m.lcTransition(lcRetired)
}

// FailReload retires m with no successor: the fresh generation failed
// to load after the old one was already unhooked, so the module is
// gone — parked and future crossings fail with ErrModuleDead.
func (s *System) FailReload(m *Module) {
	m.lcTransition(lcRetired)
}

// AbortReload returns a quiescing module to live (the reload was
// abandoned before the module was retired).
func (s *System) AbortReload(m *Module) {
	m.lcTransition(lcLive)
}
