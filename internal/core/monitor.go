package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lxfi/internal/mem"
	"lxfi/internal/trace"
)

// Mode selects whether LXFI enforcement is active.
type Mode uint8

// Enforcement modes.
const (
	// Off runs modules with no isolation — the "stock" kernel baseline
	// used throughout §8.
	Off Mode = iota
	// Enforce runs all LXFI guards.
	Enforce
)

func (m Mode) String() string {
	if m == Enforce {
		return "lxfi"
	}
	return "stock"
}

// Violation describes one failed LXFI check.
type Violation struct {
	Module    string
	Principal string
	Op        string // "memwrite", "call", "indcall", "annotation", "cfi", ...
	Addr      mem.Addr
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("lxfi violation [%s, principal %s]: %s at %#x: %s",
		v.Module, v.Principal, v.Op, uint64(v.Addr), v.Detail)
}

// ErrViolation is wrapped by every violation error.
var ErrViolation = errors.New("lxfi violation")

// ErrModuleDead is returned when calling into a killed module.
var ErrModuleDead = errors.New("lxfi: module has been killed after a violation")

// DegradedError is the graceful-degradation wrapper substrates return
// while a module is quarantined: a crossing failed with ErrModuleDead
// and the substrate mapped it to the errno its syscall surface would
// produce (EIO for a dead filesystem, ENETDOWN for a dead protocol or
// driver). It unwraps to the original error, so errors.Is(err,
// ErrModuleDead) keeps holding — callers that already retry on module
// death (the writeback flusher parking dirty pages) are unaffected.
type DegradedError struct {
	Errno int64  // the errno the syscall layer surfaces (kernel package values)
	Op    string // the operation that degraded, e.g. "vfs.write"
	Err   error  // the underlying crossing error (wraps ErrModuleDead)
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%s: degraded (errno %d): %v", e.Op, e.Errno, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// Degrade is the graceful-degradation boundary of a syscall entry that
// crosses into a module: while the module is dead (killed after a
// violation, or quarantined by the supervisor awaiting restart), err
// wraps ErrModuleDead, and Degrade maps it to the DegradedError
// carrying errno, the errno the substrate's syscall surface returns.
// Every other error, and one an inner op already mapped, passes
// through unchanged.
func Degrade(errno int64, op string, err error) error {
	if err == nil || !errors.Is(err, ErrModuleDead) {
		return err
	}
	var d *DegradedError
	if errors.As(err, &d) {
		return err // already mapped by an inner op
	}
	return &DegradedError{Errno: errno, Op: op, Err: err}
}

// Stats counts executed guards by type, matching the guard taxonomy of
// Figure 13. Counters are atomic so benchmark harnesses may sample them
// concurrently.
type Stats struct {
	AnnotationActions atomic.Uint64 // capability grant/revoke/check from annotations
	FuncEntries       atomic.Uint64 // wrapper entries
	FuncExits         atomic.Uint64 // wrapper exits
	MemWriteChecks    atomic.Uint64 // guards before module memory writes
	IndCallAll        atomic.Uint64 // kernel indirect-call guards executed
	IndCallSlow       atomic.Uint64 // ... that took the slow (non-empty writer set) path
	PrincipalSwitches atomic.Uint64
	CapGrants         atomic.Uint64
	CapRevokes        atomic.Uint64
	CapChecks         atomic.Uint64
	CapCacheHits      atomic.Uint64 // checks answered by a thread's epoch-valid cache
	FailedResolutions atomic.Uint64 // CallKernel/CallModule lookups of unknown names
}

// Snapshot is a point-in-time copy of Stats. MetricsSnapshot embeds
// it, so its JSON tags are the metrics registry's keys. IndCacheHits
// has no counter behind it and reads 0: kernel indirect calls have no
// slot cache. The key stays for the metrics' existing readers.
type Snapshot struct {
	AnnotationActions uint64 `json:"annotation_actions"`
	FuncEntries       uint64 `json:"func_entries"`
	FuncExits         uint64 `json:"func_exits"`
	MemWriteChecks    uint64 `json:"mem_write_checks"`
	IndCallAll        uint64 `json:"ind_call_all"`
	IndCallSlow       uint64 `json:"ind_call_slow"`
	IndCacheHits      uint64 `json:"ind_cache_hits"`
	PrincipalSwitches uint64 `json:"principal_switches"`
	CapGrants         uint64 `json:"cap_grants"`
	CapRevokes        uint64 `json:"cap_revokes"`
	CapChecks         uint64 `json:"cap_checks"`
	CapCacheHits      uint64 `json:"cap_cache_hits"`
	FailedResolutions uint64 `json:"failed_resolutions"`
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		AnnotationActions: s.AnnotationActions.Load(),
		FuncEntries:       s.FuncEntries.Load(),
		FuncExits:         s.FuncExits.Load(),
		MemWriteChecks:    s.MemWriteChecks.Load(),
		IndCallAll:        s.IndCallAll.Load(),
		IndCallSlow:       s.IndCallSlow.Load(),
		PrincipalSwitches: s.PrincipalSwitches.Load(),
		CapGrants:         s.CapGrants.Load(),
		CapRevokes:        s.CapRevokes.Load(),
		CapChecks:         s.CapChecks.Load(),
		CapCacheHits:      s.CapCacheHits.Load(),
		FailedResolutions: s.FailedResolutions.Load(),
	}
}

// Sub returns s - o, field-wise.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		AnnotationActions: s.AnnotationActions - o.AnnotationActions,
		FuncEntries:       s.FuncEntries - o.FuncEntries,
		FuncExits:         s.FuncExits - o.FuncExits,
		MemWriteChecks:    s.MemWriteChecks - o.MemWriteChecks,
		IndCallAll:        s.IndCallAll - o.IndCallAll,
		IndCallSlow:       s.IndCallSlow - o.IndCallSlow,
		PrincipalSwitches: s.PrincipalSwitches - o.PrincipalSwitches,
		CapGrants:         s.CapGrants - o.CapGrants,
		CapRevokes:        s.CapRevokes - o.CapRevokes,
		CapChecks:         s.CapChecks - o.CapChecks,
		CapCacheHits:      s.CapCacheHits - o.CapCacheHits,
		FailedResolutions: s.FailedResolutions - o.FailedResolutions,
	}
}

// Monitor holds the runtime's enforcement configuration and violation
// log. The mode is atomic (it is consulted on every guard from every
// thread) and the violation log has its own mutex, a leaf lock that is
// never held while calling out.
type Monitor struct {
	mode  atomic.Uint32
	Stats Stats

	// Metrics is the flight-recorder half of the registry: the sampled
	// crossing-latency histogram and per-module violation counters.
	Metrics *trace.Metrics

	vmu        sync.Mutex
	violations []*Violation

	// KillOnViolation controls whether a violating module is killed
	// (default true). The paper's runtime panics the kernel; killing the
	// module keeps the simulation testable while preserving "the
	// operation does not happen".
	KillOnViolation bool

	// OnViolationThread, if set, is called for every violation on the
	// violating thread's own goroutine, after the module has been killed.
	// Because it runs on the thread itself, the hook may safely read the
	// thread's unsynchronized per-CPU state (shadow stack, trace ring) —
	// which is what the coredump wiring uses to capture forensic dumps.
	OnViolationThread func(*Violation, *Thread)

	// DisableWriterSetOpt turns off the writer-set fast path of §4.1 so
	// every kernel indirect call takes the full capability check. It
	// exists for the ablation benchmarks: correctness is unchanged, only
	// cost.
	DisableWriterSetOpt bool

	// subs are the multi-listener complement to the single
	// OnViolationThread slot (which the forensics rigs own); the module
	// supervisor subscribes here so both can observe the same death.
	subMu  sync.Mutex
	subSeq int
	subs   map[int]func(*Violation, *Thread)
}

// NewMonitor returns a monitor in Off mode.
func NewMonitor() *Monitor {
	return &Monitor{KillOnViolation: true, Metrics: trace.NewMetrics()}
}

// Mode returns the current enforcement mode.
func (m *Monitor) Mode() Mode { return Mode(m.mode.Load()) }

// SetMode switches enforcement on or off.
func (m *Monitor) SetMode(mode Mode) { m.mode.Store(uint32(mode)) }

// Enforcing reports whether guards are active.
func (m *Monitor) Enforcing() bool { return Mode(m.mode.Load()) == Enforce }

// Violations returns a snapshot of all recorded violations.
func (m *Monitor) Violations() []*Violation {
	m.vmu.Lock()
	defer m.vmu.Unlock()
	return append([]*Violation(nil), m.violations...)
}

// LastViolation returns the most recent violation, or nil.
func (m *Monitor) LastViolation() *Violation {
	m.vmu.Lock()
	defer m.vmu.Unlock()
	if len(m.violations) == 0 {
		return nil
	}
	return m.violations[len(m.violations)-1]
}

// ResetViolations clears the violation log.
func (m *Monitor) ResetViolations() {
	m.vmu.Lock()
	defer m.vmu.Unlock()
	m.violations = nil
}

// ResetStats zeroes the guard counters and the metrics registry
// (ResetViolations leaves both intact). Callers must quiesce concurrent
// guard execution first: the counters are reset one atomic at a time,
// so a racing guard could split its increments across the reset.
// Scenario harnesses use it between runs to scope deltas to one run.
func (m *Monitor) ResetStats() {
	m.Stats.AnnotationActions.Store(0)
	m.Stats.FuncEntries.Store(0)
	m.Stats.FuncExits.Store(0)
	m.Stats.MemWriteChecks.Store(0)
	m.Stats.IndCallAll.Store(0)
	m.Stats.IndCallSlow.Store(0)
	m.Stats.PrincipalSwitches.Store(0)
	m.Stats.CapGrants.Store(0)
	m.Stats.CapRevokes.Store(0)
	m.Stats.CapChecks.Store(0)
	m.Stats.CapCacheHits.Store(0)
	m.Stats.FailedResolutions.Store(0)
	m.Metrics.Reset()
}

// SubscribeViolationThread registers fn to run on every violation, on
// the violating thread's goroutine, after OnViolationThread. Unlike
// that single slot any number of subscribers may coexist. The returned
// cancel removes the subscription; it is safe to call more than once.
func (m *Monitor) SubscribeViolationThread(fn func(*Violation, *Thread)) (cancel func()) {
	m.subMu.Lock()
	if m.subs == nil {
		m.subs = make(map[int]func(*Violation, *Thread))
	}
	id := m.subSeq
	m.subSeq++
	m.subs[id] = fn
	m.subMu.Unlock()
	return func() {
		m.subMu.Lock()
		delete(m.subs, id)
		m.subMu.Unlock()
	}
}

// notifyThread delivers a violation to the single-slot hook and every
// subscriber, on the violating goroutine (the cold path — the copy is
// fine).
func (m *Monitor) notifyThread(v *Violation, t *Thread) {
	if h := m.OnViolationThread; h != nil {
		h(v, t)
	}
	m.notifySubscribers(v, t)
}

// notifySubscribers delivers only to subscribers. The stock-mode oops
// path uses it directly: a panic in an unenforced module still kills
// the module (and the supervisor must hear about it), but no violation
// is recorded — there is no policy engine doing the attributing.
func (m *Monitor) notifySubscribers(v *Violation, t *Thread) {
	m.subMu.Lock()
	fns := make([]func(*Violation, *Thread), 0, len(m.subs))
	for _, fn := range m.subs {
		fns = append(fns, fn)
	}
	m.subMu.Unlock()
	for _, fn := range fns {
		fn(v, t)
	}
}

func (m *Monitor) record(v *Violation) error {
	m.Metrics.Violation(v.Module)
	m.vmu.Lock()
	m.violations = append(m.violations, v)
	m.vmu.Unlock()
	return fmt.Errorf("%w: %s", ErrViolation, v.Error())
}
