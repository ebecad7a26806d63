// Package core implements the LXFI runtime: the reference monitor that
// mediates every control-flow transfer and every memory write between
// the simulated core kernel and kernel modules (§4 and §5 of the paper).
//
// In the original system a compiler plugin rewrites module code to call
// into the runtime at function entries/exits, memory writes, and
// indirect calls. In this reproduction the "rewriter" is the module
// loader plus the mediated Thread API: module code is written against
// Thread (its only handle on kernel memory and kernel functions), which
// places exactly the same guards at exactly the same points.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// Param describes one parameter of a function or function-pointer type.
// Type is the C type name ("struct sk_buff *"); it is used to resolve
// the sizeof(*ptr) default in annotations.
type Param struct {
	Name string
	Type string
}

// P is shorthand for constructing a Param.
func P(name, typ string) Param { return Param{Name: name, Type: typ} }

// Impl is the body of a simulated function. Simulated functions take and
// return machine words (addresses or integers), mirroring the uniform
// x86-64 calling convention the real LXFI interposes on.
type Impl func(t *Thread, args []uint64) uint64

// FuncDecl is a function known to the runtime: a core-kernel export, a
// module function, or attacker-controlled user code.
type FuncDecl struct {
	Name   string
	Module string // "" for core kernel; "user" for user-space code
	Params []Param
	// Annot is the function's annotation set. nil means *unannotated*:
	// per §2.2 the safe default is that modules cannot invoke it at all.
	// A non-nil empty set means "annotated as requiring nothing".
	Annot *annot.Set
	Impl  Impl
	Addr  mem.Addr

	// prog is the bind-time compiled form of Annot (program.go), the
	// action program every crossing into the function runs. nil exactly
	// when Annot is nil.
	prog *annotProg

	// subst memoizes Annot compiled against the parameters of the slot
	// type the declaration was last reached through, for a declaration
	// without a parameter list of its own (substProg).
	subst atomic.Pointer[substEntry]

	// owner is the module generation the declaration was registered for
	// (nil for kernel and user functions). Indirect dispatch enters the
	// module through it, so a stale slot reaches its own generation's
	// entry protocol: the crossing parks while a reload drains that
	// generation, then is re-bound to the successor's declaration of the
	// same name (reload.go).
	owner *Module
}

// IsKernel reports whether the function belongs to the core kernel.
func (f *FuncDecl) IsKernel() bool { return f.Module == "" }

// IsUser reports whether the function is user-space code.
func (f *FuncDecl) IsUser() bool { return f.Module == "user" }

func (f *FuncDecl) String() string {
	if f == nil {
		return "<nil func>"
	}
	where := f.Module
	if where == "" {
		where = "kernel"
	}
	return fmt.Sprintf("%s:%s@%#x", where, f.Name, uint64(f.Addr))
}

// FPtrType is a function-pointer type with annotations, e.g. the
// ndo_start_xmit member of struct net_device_ops in Fig. 4. Indirect
// calls are checked against the annotation hash of the slot's declared
// type (§4.1).
//
// A crossing through the slot runs the target function's annotation
// program, not the type's; a target declared without parameters has its
// program compiled against the type's parameter list (substProg).
type FPtrType struct {
	Name   string
	Params []Param
	Annot  *annot.Set
}

// FuncSpec describes one module function for loading.
type FuncSpec struct {
	Name   string
	Params []Param
	// Annot is an explicit annotation source, or "".
	Annot string
	// Type names an FPtrType to propagate annotations from (the loader
	// implements §4.2 "annotation propagation"). If both Annot and Type
	// are given, they must agree exactly.
	Type string
	Impl Impl
}

// ModuleSpec describes a module to be loaded.
type ModuleSpec struct {
	Name string
	// Imports lists the kernel exports in the module's symbol table. The
	// loader grants the module's shared principal CALL capabilities for
	// (the wrappers of) exactly these functions (§4.2).
	Imports []string
	Funcs   []FuncSpec
	// DataSize is the size of the module's writable sections (.data +
	// .bss). The loader grants a WRITE capability and registers the
	// module's shared principal in the writer set for this region (§5).
	DataSize uint64
	// RODataSize is the size of the module's read-only data. No WRITE
	// capability is granted for it — this is what blocks the primary RDS
	// exploit vector ("LXFI does not grant WRITE capabilities for a
	// module's read-only section", §8.1).
	RODataSize uint64
}

// Module is a loaded module.
type Module struct {
	Name    string
	Set     *caps.ModuleSet
	Funcs   map[string]*FuncDecl
	Imports []string
	// FuncTypes maps module function names to the function-pointer type
	// they instantiate (annotation propagation source), for annotation
	// accounting (Fig. 9).
	FuncTypes map[string]string

	// gates are the module's bound crossings, one per import, resolved
	// by the loader (§4.2 "Module initialization"). Immutable after
	// load; Gate hands them out.
	gates map[string]*Gate

	// Data andROData are the module's section base addresses.
	Data   mem.Addr
	ROData mem.Addr

	DataSize   uint64
	RODataSize uint64

	// dead is set when the module commits an isolation violation; every
	// subsequent interaction with it fails (the simulated analogue of
	// "the kernel panics" / the module being killed). It is atomic
	// because any thread's violation can kill a module other threads are
	// about to enter.
	dead       atomic.Bool
	killMu     sync.Mutex
	killReason *Violation

	// Lifecycle state for hot reload (reload.go): lcState moves
	// live → quiescing → retired; active counts crossings currently
	// executing inside the module (entered, not yet returned);
	// successor is the replacement generation once retired; lcWake is
	// closed and replaced on every lifecycle transition so crossings
	// parked at the gate re-check the state.
	lcState   atomic.Int32
	active    atomic.Int64
	successor atomic.Pointer[Module]
	lcWake    atomic.Pointer[chan struct{}]
}

// Dead reports whether the module has been killed after a violation.
func (m *Module) Dead() bool { return m.dead.Load() }

// Retired reports whether the module has been replaced by a reload.
// A retired generation stays stale for good: crossings into it (a stale
// function-pointer slot, or a caller still holding the old *Module)
// are redirected to the successor's declaration, and calls through its
// import Gates are refused under enforcement.
func (m *Module) Retired() bool { return m.lcState.Load() == lcRetired }

// Quiescing reports whether a reload is draining the module.
func (m *Module) Quiescing() bool { return m.lcState.Load() == lcQuiescing }

// lcTransition publishes a lifecycle state and wakes every crossing
// parked on the previous wake channel so it re-checks the state.
func (m *Module) lcTransition(state int32) {
	fresh := make(chan struct{})
	m.lcState.Store(state)
	if old := m.lcWake.Swap(&fresh); old != nil {
		close(*old)
	}
}

// KillReason returns the violation that killed the module, or nil.
func (m *Module) KillReason() *Violation {
	m.killMu.Lock()
	defer m.killMu.Unlock()
	return m.killReason
}

// kill marks the module dead; the first violation wins.
func (m *Module) kill(v *Violation) {
	m.killMu.Lock()
	defer m.killMu.Unlock()
	if m.dead.Load() {
		return
	}
	m.killReason = v
	m.dead.Store(true)
}

func (m *Module) String() string { return "module " + m.Name }
