package core

import (
	"encoding/binary"
	"fmt"

	"lxfi/internal/caps"
	"lxfi/internal/mem"
	"lxfi/internal/trace"
)

// Thread is one simulated kernel thread. It carries the LXFI per-thread
// context of §5: the current principal and the shadow stack that saves
// principals and return addresses across wrapper entries/exits and
// interrupts.
//
// Thread is also the only interface through which module code touches
// kernel memory or kernel functions — the role the compile-time rewriter
// plays in the original system.
//
// A Thread is confined to one goroutine at a time (use System.Spawn to
// run threads concurrently): its fields mirror a per-CPU context and are
// not synchronized. Everything a Thread reaches through Sys is.
type Thread struct {
	Sys  *System
	Name string

	// mon and csys are hot-path shortcuts to Sys.Mon and Sys.Caps (set
	// by System.NewThread): the per-check guards would otherwise pay two
	// dependent pointer loads before reaching the mode word or the
	// capability epoch.
	mon  *Monitor
	csys *caps.System

	// cur is the currently executing principal; nil means the core
	// kernel (fully trusted).
	cur    *caps.Principal
	curMod *Module

	shadow []frame
	// tokens numbers the thread's shadow-stack return tokens. A token is
	// only compared within its own stack, so a per-thread count keeps
	// each stack strictly increasing without a shared counter.
	tokens uint64

	// KernelDS models set_fs(KERNEL_DS): when true, uaccess routines
	// skip the user-pointer check — the kernel bug (CVE-2010-4258) that
	// the Econet exploit chains with.
	KernelDS bool

	// Task is the address of the current task_struct; maintained by the
	// kernel package.
	Task mem.Addr

	// ccache is the per-thread capability check cache (checkcache.go):
	// direct-mapped verdicts validated against the global capability
	// epoch. Like the shadow stack it is per-CPU context — unsynchronized
	// and confined to the thread's goroutine.
	ccache [checkCacheSize]checkCacheEntry

	// envFree and capFree recycle crossing scratch (argEnv objects and
	// annotation capability slices) so mediated calls do not allocate.
	envFree []*argEnv
	capFree [][]caps.Cap

	// argStack is the thread's crossing-argument stack: every crossing
	// entry point (gate.go, calls.go) pushes its arguments here and
	// passes a slice of it down the wrapper path, so no crossing
	// allocates an argument slice. Frames nest with crossings; each
	// entry truncates back to its base on return.
	argStack []uint64

	// iterBuf and emit serve capability-iterator resolution: emit is a
	// single closure bound at thread creation that appends to iterBuf,
	// so iterator-form actions do not allocate a closure per crossing
	// (resolveIterCaps swaps iterBuf stack-style around each run).
	iterBuf []caps.Cap
	emit    func(caps.Cap) error

	// writers is the scratch slice the writer-set slow path of kernel
	// indirect calls collects a slot's grantees into
	// (checkIndCallSlow), so those calls do not allocate.
	writers []*caps.Principal

	// iargBuf is the scratch slice for iterator arguments. A local
	// array would escape through the indirect iterator call, costing
	// one heap allocation per iterator-form crossing; resolveIterCaps
	// swaps this buffer stack-style the same way it does iterBuf.
	iargBuf []int64

	// pendChecks/pendMisses/pendMemWrites tally guard executions
	// locally; they are folded into Monitor.Stats at wrapper exits and
	// every statsFlushBatch checks (a cached hit must not pay a shared
	// atomic). Cache hits are checks minus misses.
	pendChecks    uint64
	pendMisses    uint64
	pendMemWrites uint64

	// lifeChecks/lifeMisses are the thread's monotonic lifetime check
	// tallies (pend counters roll into them at each flush); the flight
	// recorder diffs them across a crossing to stamp the event's
	// check/miss counts. Per-thread, unsynchronized.
	lifeChecks uint64
	lifeMisses uint64

	// rec is the thread's flight-recorder ring (trace.go); nil when
	// tracing is off, which keeps the crossing cost at one nil check.
	rec *trace.Ring
}

type frame struct {
	fn       *FuncDecl
	savedCur *caps.Principal
	savedMod *Module
	retToken uint64
}

// CurrentPrincipal returns the principal the thread runs as (nil for
// the core kernel).
func (t *Thread) CurrentPrincipal() *caps.Principal { return t.cur }

// CurrentModule returns the module the thread is executing, if any.
func (t *Thread) CurrentModule() *Module { return t.curMod }

// InKernel reports whether the thread runs in trusted kernel context.
func (t *Thread) InKernel() bool { return t.cur == nil }

// ShadowDepth returns the current shadow-stack depth.
func (t *Thread) ShadowDepth() int { return len(t.shadow) }

// ShadowFrame is the introspectable form of one shadow-stack frame,
// used by coredump snapshots.
type ShadowFrame struct {
	Func      string // function entered ("" for interrupt frames)
	SavedPrin string // principal saved at entry
	SavedMod  string // module saved at entry ("kernel" when none)
	RetToken  uint64
}

// ShadowFrames copies out the shadow stack, outermost frame first.
// Owner-only, like every other read of per-thread state.
func (t *Thread) ShadowFrames() []ShadowFrame {
	out := make([]ShadowFrame, len(t.shadow))
	for i, f := range t.shadow {
		sf := ShadowFrame{
			SavedPrin: f.savedCur.String(),
			SavedMod:  moduleName(f.savedMod),
			RetToken:  f.retToken,
		}
		if f.fn != nil {
			sf.Func = f.fn.Name
		}
		out[i] = sf
	}
	return out
}

func (t *Thread) violation(op string, addr mem.Addr, detail string) error {
	return t.violationAt(t.curMod, t.cur, op, addr, detail)
}

func moduleName(m *Module) string {
	if m == nil {
		return "kernel"
	}
	return m.Name
}

// --- mediated memory access ---

// checkWrite is the guard the rewriter inserts before every module
// memory write (§4.2 "Memory writes").
func (t *Thread) checkWrite(addr mem.Addr, size uint64) error {
	if t.cur == nil || !t.mon.Enforcing() {
		return nil
	}
	t.pendMemWrites++
	// The cache probe is embedded (not behind checkCap) so the guard's
	// hot path is one inlined compare chain; a cached deny re-runs the
	// authoritative check on the cold violation route below. t.cur is
	// known non-nil and a plain size has no kind-tag bits, the two
	// preconditions cacheProbe documents.
	if size>>sizeKindShift == 0 {
		if v, hit := t.cacheProbe(t.cur, addr, size, t.csys.Epoch()); hit && v {
			t.pendChecks++
			return nil
		}
	}
	if t.checkCapSlow(t.cur, caps.WriteCap(addr, size)) {
		return nil
	}
	return t.violation("memwrite", addr,
		fmt.Sprintf("no WRITE capability for [%#x,%#x)", uint64(addr), uint64(addr)+size))
}

// Write stores data at addr on behalf of the current principal.
func (t *Thread) Write(addr mem.Addr, data []byte) error {
	if err := t.checkWrite(addr, uint64(len(data))); err != nil {
		return err
	}
	return t.Sys.AS.Write(addr, data)
}

// WriteU64 stores a 64-bit little-endian value.
func (t *Thread) WriteU64(addr mem.Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return t.Write(addr, b[:])
}

// WriteU32 stores a 32-bit little-endian value.
func (t *Thread) WriteU32(addr mem.Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return t.Write(addr, b[:])
}

// WriteU16 stores a 16-bit little-endian value.
func (t *Thread) WriteU16(addr mem.Addr, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return t.Write(addr, b[:])
}

// WriteU8 stores one byte.
func (t *Thread) WriteU8(addr mem.Addr, v uint8) error {
	return t.Write(addr, []byte{v})
}

// Zero clears [addr, addr+size) on behalf of the current principal.
func (t *Thread) Zero(addr mem.Addr, size uint64) error {
	if err := t.checkWrite(addr, size); err != nil {
		return err
	}
	return t.Sys.AS.Zero(addr, size)
}

// Reads are not instrumented: LXFI targets integrity, not secrecy (§2).

// Read copies memory into buf.
func (t *Thread) Read(addr mem.Addr, buf []byte) error { return t.Sys.AS.Read(addr, buf) }

// ReadU64 loads a 64-bit value.
func (t *Thread) ReadU64(addr mem.Addr) (uint64, error) { return t.Sys.AS.ReadU64(addr) }

// ReadU32 loads a 32-bit value.
func (t *Thread) ReadU32(addr mem.Addr) (uint32, error) { return t.Sys.AS.ReadU32(addr) }

// ReadU16 loads a 16-bit value.
func (t *Thread) ReadU16(addr mem.Addr) (uint16, error) { return t.Sys.AS.ReadU16(addr) }

// ReadU8 loads one byte.
func (t *Thread) ReadU8(addr mem.Addr) (uint8, error) { return t.Sys.AS.ReadU8(addr) }

// ReadBytes loads size bytes into a fresh slice.
func (t *Thread) ReadBytes(addr mem.Addr, size uint64) ([]byte, error) {
	return t.Sys.AS.ReadBytes(addr, size)
}

// --- privileged runtime entry points used by (modified) module code ---

// LxfiCheck is lxfi_check from Fig. 4: an explicit check a module
// developer inserts before a privileged operation (Guideline 6).
func (t *Thread) LxfiCheck(c caps.Cap) error {
	if t.cur == nil || !t.mon.Enforcing() {
		return nil
	}
	if c.Size>>sizeKindShift == 0 {
		if v, hit := t.cacheProbe(t.cur, c.Addr, packSizeKind(c), t.csys.Epoch()); hit && v {
			t.pendChecks++
			return nil
		}
	}
	if t.checkCapSlow(t.cur, c) {
		return nil
	}
	return t.violation("check", c.Addr, "lxfi_check failed for "+c.String())
}

// PrincAlias is lxfi_princ_alias from §3.3: it makes alias a second
// name for the principal currently named existing. Only module code may
// call it, and (mirroring the paper's static-call requirement) callers
// must precede it with an adequate LxfiCheck.
func (t *Thread) PrincAlias(existing, alias mem.Addr) error {
	if t.curMod == nil {
		return fmt.Errorf("core: lxfi_princ_alias called outside module context")
	}
	if !t.Sys.Mon.Enforcing() {
		return nil
	}
	return t.curMod.Set.Alias(existing, alias)
}

// SwitchGlobal switches the thread to the module's global principal for
// cross-instance operations (Guideline 6); the returned function
// restores the previous principal. The module developer must guard
// callers with adequate checks — LXFI's CFI guarantees (here: Go's
// static call graph) prevent an adversary from jumping into the middle
// of such a function.
func (t *Thread) SwitchGlobal() (restore func(), err error) {
	if t.curMod == nil {
		return nil, fmt.Errorf("core: SwitchGlobal outside module context")
	}
	prev := t.cur
	t.cur = t.curMod.Set.Global()
	t.Sys.Mon.Stats.PrincipalSwitches.Add(1)
	return func() { t.cur = prev }, nil
}

// SwitchInstance switches the thread to the instance principal named by
// addr within the current module; used by module-internal privilege
// management.
func (t *Thread) SwitchInstance(addr mem.Addr) (restore func(), err error) {
	if t.curMod == nil {
		return nil, fmt.Errorf("core: SwitchInstance outside module context")
	}
	prev := t.cur
	t.cur = t.curMod.Set.Instance(addr)
	t.Sys.Mon.Stats.PrincipalSwitches.Add(1)
	return func() { t.cur = prev }, nil
}

// Interrupt runs handler in trusted kernel context, saving the current
// principal on the shadow stack and restoring it afterwards — "if an
// interrupt comes in while a module is executing, the module's
// privileges are saved before handling the interrupt, and restored on
// interrupt exit" (§3.1).
func (t *Thread) Interrupt(handler func(*Thread)) {
	t.shadow = append(t.shadow, frame{savedCur: t.cur, savedMod: t.curMod, retToken: t.token()})
	savedDepth := len(t.shadow)
	t.cur, t.curMod = nil, nil
	handler(t)
	if len(t.shadow) != savedDepth {
		// Unbalanced shadow stack: control-flow integrity violation.
		_ = t.violation("cfi", 0, "unbalanced shadow stack across interrupt")
	}
	f := t.shadow[len(t.shadow)-1]
	t.shadow = t.shadow[:len(t.shadow)-1]
	t.cur, t.curMod = f.savedCur, f.savedMod
}

// CallerModule returns the module that entered the currently-running
// kernel function (the saved module of the innermost shadow frame), or
// nil when the kernel was not entered from module code. Kernel-function
// bodies run trusted (CurrentModule is nil there), so exports that need
// to remember who registered something use this instead.
func (t *Thread) CallerModule() *Module {
	if len(t.shadow) == 0 {
		return nil
	}
	return t.shadow[len(t.shadow)-1].savedMod
}

func (t *Thread) token() uint64 {
	t.tokens++
	return t.tokens
}

// pushArgs copies a crossing's arguments onto the argument stack and
// returns the copy, which is what flows down the wrapper path, and the
// base popArgs restores. The entry points' variadic slices therefore
// never escape, and the stack's backing array is retained across
// calls, so steady-state crossings push without allocating.
func (t *Thread) pushArgs(args []uint64) ([]uint64, int) {
	base := len(t.argStack)
	t.argStack = append(t.argStack, args...)
	return t.argStack[base:], base
}

func (t *Thread) popArgs(base int) { t.argStack = t.argStack[:base] }

// pushFrame records a wrapper entry on the shadow stack and returns the
// frame's return token.
func (t *Thread) pushFrame(fn *FuncDecl) uint64 {
	tok := t.token()
	t.shadow = append(t.shadow, frame{fn: fn, savedCur: t.cur, savedMod: t.curMod, retToken: tok})
	return tok
}

// popFrame validates the return token (return-address CFI, §5 "Shadow
// stack") and restores the saved principal. Wrapper exit is also where
// the thread's local check tallies reach the shared stats.
func (t *Thread) popFrame(tok uint64) error {
	if t.pendChecks != 0 || t.pendMemWrites != 0 {
		t.flushCheckStats()
	}
	if len(t.shadow) == 0 {
		return t.violation("cfi", 0, "shadow stack underflow")
	}
	f := t.shadow[len(t.shadow)-1]
	t.shadow = t.shadow[:len(t.shadow)-1]
	if f.retToken != tok {
		return t.violation("cfi", 0, "return address corrupted (shadow stack mismatch)")
	}
	t.cur, t.curMod = f.savedCur, f.savedMod
	return nil
}

// tamperShadow corrupts the top shadow-stack token; used only by tests
// to demonstrate return-CFI enforcement.
func (t *Thread) tamperShadow() {
	if len(t.shadow) > 0 {
		t.shadow[len(t.shadow)-1].retToken ^= 0xdead
	}
}
