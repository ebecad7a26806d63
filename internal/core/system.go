package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/trace"
	"lxfi/internal/wst"
)

// IterFunc is a programmer-supplied capability iterator (§3.3), such as
// skb_caps in Fig. 4. It enumerates the capabilities that make up a
// composite object by calling emit for each one; the runtime applies the
// current action (copy/transfer/check) to every emitted capability, the
// role lxfi_cap_iterate plays in the paper.
type IterFunc func(t *Thread, args []int64, emit func(caps.Cap) error) error

// System is the whole simulated machine: address space, allocators,
// capability state, function registry, and the LXFI monitor.
//
// Concurrency: threads created with NewThread/Spawn run on their own
// goroutines. The registries below (functions, fptr types, iterators,
// constants, modules) are guarded by mu — registration mostly happens at
// boot and module load, lookups happen on every mediated call. mu is
// never held across a call into module or kernel function bodies, nor
// across the caps/wst/mem locks (see the lock-order note in
// internal/caps).
type System struct {
	AS      *mem.AddressSpace
	Slab    *mem.Slab
	Statics *mem.Bump // static core-kernel objects
	User    *mem.Bump // user-space mappings
	Caps    *caps.System
	WST     *wst.Tracker
	Layouts *layout.Registry
	Mon     *Monitor

	mu          sync.RWMutex // guards the registries below
	funcsByAddr map[mem.Addr]*FuncDecl
	funcsByName map[string]*FuncDecl // kernel exports and user functions
	fptrTypes   map[string]*FPtrType
	iterators   map[string]IterFunc
	consts      map[string]int64
	modules     map[string]*Module

	kernelText *mem.Bump
	moduleArea *mem.Bump
	userText   *mem.Bump

	// refMu/refIDs intern REF type names into the nonzero IDs that the
	// compiled action programs pack into check-cache tags (program.go).
	refMu  sync.Mutex
	refIDs map[string]uint64

	// tracing makes NewThread attach a flight-recorder ring to every
	// thread created after EnableTracing (trace.go).
	tracing atomic.Bool

	// supSource, when set (SetSupervisorMetrics), contributes the module
	// supervisor's recovery counters to Metrics(). A pointer-to-func so
	// the registration itself is atomic against concurrent snapshots.
	supSource atomic.Pointer[func() *SupervisorMetrics]
}

// SetSupervisorMetrics registers (or, with nil, removes) the source of
// the supervisor slice of the metrics registry. internal/modules calls
// it when a Supervisor starts.
func (s *System) SetSupervisorMetrics(fn func() *SupervisorMetrics) {
	if fn == nil {
		s.supSource.Store(nil)
		return
	}
	s.supSource.Store(&fn)
}

// NewSystem boots an empty simulated machine with LXFI off.
func NewSystem() *System {
	as := mem.NewAddressSpace()
	s := &System{
		AS:          as,
		Slab:        mem.NewSlab(as, mem.KernelHeap),
		Statics:     mem.NewBump(as, mem.KernelHeap+0x1000_0000),
		User:        mem.NewBump(as, mem.UserHeap),
		Caps:        caps.NewSystem(),
		WST:         wst.New(),
		Layouts:     layout.NewRegistry(),
		Mon:         NewMonitor(),
		funcsByAddr: make(map[mem.Addr]*FuncDecl),
		funcsByName: make(map[string]*FuncDecl),
		fptrTypes:   make(map[string]*FPtrType),
		iterators:   make(map[string]IterFunc),
		consts:      make(map[string]int64),
		modules:     make(map[string]*Module),
		kernelText:  mem.NewBump(as, mem.KernelText),
		moduleArea:  mem.NewBump(as, mem.ModuleText),
		userText:    mem.NewBump(as, mem.UserText),
	}
	return s
}

// --- registration ---

// funcSlotSize is the fake text footprint of one simulated function.
const funcSlotSize = 16

func (s *System) registerFunc(f *FuncDecl, text *mem.Bump) *FuncDecl {
	f.Addr = text.Alloc(funcSlotSize, funcSlotSize)
	s.mu.Lock()
	s.funcsByAddr[f.Addr] = f
	s.mu.Unlock()
	return f
}

// RegisterKernelFunc registers a core-kernel export. annotSrc is parsed
// with annot.Parse; pass the empty string for functions whose contract
// requires nothing beyond the CALL capability.
func (s *System) RegisterKernelFunc(name string, params []Param, annotSrc string, impl Impl) *FuncDecl {
	set, err := annot.Parse(annotSrc)
	if err != nil {
		panic(fmt.Sprintf("core: bad annotation for %s: %v", name, err))
	}
	s.validateAnnot(name, params, set)
	f := &FuncDecl{Name: name, Params: params, Annot: set, Impl: impl}
	f.prog = s.mustCompileAnnot(name, params, set)
	s.registerFunc(f, s.kernelText)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.funcsByName[name]; dup {
		panic("core: duplicate kernel function " + name)
	}
	s.funcsByName[name] = f
	return f
}

// RegisterUnannotatedKernelFunc registers a kernel function that the
// developer forgot to annotate. Per §2.2's safe default, modules cannot
// invoke it even if they somehow obtain a CALL capability.
func (s *System) RegisterUnannotatedKernelFunc(name string, params []Param, impl Impl) *FuncDecl {
	f := &FuncDecl{Name: name, Params: params, Annot: nil, Impl: impl}
	s.registerFunc(f, s.kernelText)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.funcsByName[name]; dup {
		panic("core: duplicate kernel function " + name)
	}
	s.funcsByName[name] = f
	return f
}

// RegisterUserFunc registers attacker-controlled user-space code at a
// user address. If the kernel is ever tricked into calling it, the
// attacker's payload runs with full kernel privilege (a *Thread in
// kernel context) — the privilege-escalation end state of every exploit
// in §8.1.
func (s *System) RegisterUserFunc(name string, impl Impl) *FuncDecl {
	f := &FuncDecl{Name: name, Module: "user", Impl: impl}
	s.registerFunc(f, s.userText)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcsByName[name] = f
	return f
}

// RegisterUserFuncAt registers user code at a specific address (e.g.
// page zero for NULL-page mapping exploits).
func (s *System) RegisterUserFuncAt(name string, addr mem.Addr, impl Impl) *FuncDecl {
	f := &FuncDecl{Name: name, Module: "user", Impl: impl, Addr: addr}
	s.AS.Map(addr, funcSlotSize)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcsByAddr[addr] = f
	s.funcsByName[name] = f
	return f
}

// RegisterFPtrType registers an annotated function-pointer type.
func (s *System) RegisterFPtrType(name string, params []Param, annotSrc string) *FPtrType {
	set, err := annot.Parse(annotSrc)
	if err != nil {
		panic(fmt.Sprintf("core: bad annotation for fptr type %s: %v", name, err))
	}
	s.validateAnnot(name, params, set)
	ft := &FPtrType{Name: name, Params: params, Annot: set}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.fptrTypes[name]; dup {
		panic("core: duplicate fptr type " + name)
	}
	s.fptrTypes[name] = ft
	return ft
}

// RegisterIterator registers a capability iterator under the name used
// in annotation sources.
func (s *System) RegisterIterator(name string, fn IterFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.iterators[name]; dup {
		panic("core: duplicate iterator " + name)
	}
	s.iterators[name] = fn
}

// RegisterConst makes a symbolic constant (e.g. NETDEV_TX_BUSY)
// available to annotation expressions. A name never rebinds: programs
// compiled after its registration fold its value as a literal, so a
// rebind to a different value panics. Re-stating an existing binding
// stays legal.
func (s *System) RegisterConst(name string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.consts[name]; ok && old != v {
		panic(fmt.Sprintf("core: constant %s rebound from %d to %d", name, old, v))
	}
	s.consts[name] = v
}

// Const returns a registered constant.
func (s *System) Const(name string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.consts[name]
	return v, ok
}

// validateAnnot rejects annotations that reference identifiers that are
// neither parameters, "return", nor registered constants/iterator names.
// (Constants may be registered later, so only obvious typos — empty
// parameter lists with argument references — are caught eagerly.)
func (s *System) validateAnnot(what string, params []Param, set *annot.Set) {
	if set.Empty() {
		return
	}
	known := map[string]bool{"return": true}
	for _, p := range params {
		known[p.Name] = true
	}
	for _, id := range set.Idents() {
		if !known[id] {
			// Might be a constant registered later; allow names that look
			// like constants (contain an upper-case letter).
			if strings.ToLower(id) != id {
				continue
			}
			panic(fmt.Sprintf("core: annotation for %s references unknown identifier %q", what, id))
		}
	}
}

// --- lookup ---

// FuncByName returns a registered kernel or user function.
func (s *System) FuncByName(name string) (*FuncDecl, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.funcsByName[name]
	return f, ok
}

// FuncByAddr returns the function at a text address.
func (s *System) FuncByAddr(addr mem.Addr) (*FuncDecl, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.funcsByAddr[addr]
	return f, ok
}

// iterator returns a registered capability iterator.
func (s *System) iterator(name string) (IterFunc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn, ok := s.iterators[name]
	return fn, ok
}

// FPtrType returns a registered function-pointer type.
func (s *System) FPtrType(name string) (*FPtrType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.fptrTypes[name]
	return t, ok
}

// FPtrTypes returns a snapshot of all registered function-pointer types.
func (s *System) FPtrTypes() map[string]*FPtrType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]*FPtrType, len(s.fptrTypes))
	for n, t := range s.fptrTypes {
		out[n] = t
	}
	return out
}

// KernelFuncs returns all registered core-kernel functions by name.
func (s *System) KernelFuncs() map[string]*FuncDecl {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]*FuncDecl)
	for n, f := range s.funcsByName {
		if f.IsKernel() {
			out[n] = f
		}
	}
	return out
}

// Module returns a loaded module. A name mid-load (reserved but not
// yet published) reads as absent.
func (s *System) Module(name string) (*Module, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.modules[name]
	return m, ok && m != nil
}

// Modules returns a snapshot of all loaded modules.
func (s *System) Modules() map[string]*Module {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]*Module, len(s.modules))
	for n, m := range s.modules {
		if m != nil {
			out[n] = m
		}
	}
	return out
}

// --- module loading (§4.2 "Module initialization") ---

// LoadModule loads a module: it allocates text and data, performs
// annotation propagation from function-pointer types, and grants the
// initial capabilities — CALL capabilities for every import and a WRITE
// capability for the writable sections, all to the module's shared
// principal.
func (s *System) LoadModule(spec ModuleSpec) (*Module, error) {
	// Reserve the name atomically: two concurrent loads of one name must
	// not both pass the duplicate check and then fight over the registry
	// slot. The nil placeholder is invisible to lookups (Module treats it
	// as absent) and is replaced or deleted before LoadModule returns.
	s.mu.Lock()
	if _, dup := s.modules[spec.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: module %s already loaded", spec.Name)
	}
	s.modules[spec.Name] = nil
	s.mu.Unlock()
	m := &Module{
		Name:       spec.Name,
		Set:        s.Caps.LoadModule(spec.Name),
		Funcs:      make(map[string]*FuncDecl),
		Imports:    append([]string(nil), spec.Imports...),
		FuncTypes:  make(map[string]string),
		DataSize:   spec.DataSize,
		RODataSize: spec.RODataSize,
	}
	wake := make(chan struct{})
	m.lcWake.Store(&wake)
	fail := func(format string, args ...any) (*Module, error) {
		s.mu.Lock()
		s.dropModule(m)
		s.mu.Unlock()
		return nil, fmt.Errorf("core: module %s: "+format, append([]any{spec.Name}, args...)...)
	}

	// Register module functions, propagating annotations from fptr types
	// (§4.2): a function assigned to an annotated function-pointer member
	// inherits that member's annotations; if the function also carries
	// explicit annotations they must match exactly.
	for _, fs := range spec.Funcs {
		var set *annot.Set
		if fs.Type != "" {
			ft, ok := s.FPtrType(fs.Type)
			if !ok {
				return fail("function %s references unknown fptr type %q", fs.Name, fs.Type)
			}
			set = ft.Annot
			if fs.Annot != "" {
				own, err := annot.Parse(fs.Annot)
				if err != nil {
					return fail("%s: %v", fs.Name, err)
				}
				if own.Hash() != set.Hash() {
					return fail("%s: conflicting annotations (explicit %q vs type %s %q)",
						fs.Name, own, fs.Type, set)
				}
			}
			if len(fs.Params) == 0 {
				fs.Params = ft.Params
			}
		} else {
			var err error
			set, err = annot.Parse(fs.Annot)
			if err != nil {
				return fail("%s: %v", fs.Name, err)
			}
		}
		// Bind-time compilation (§4.2): the annotation set is lowered
		// into its action program once, here, instead of being
		// re-interpreted on every crossing into the module.
		prog, err := s.compileAnnot(fs.Params, set)
		if err != nil {
			return fail("%s: %v", fs.Name, err)
		}
		f := &FuncDecl{Name: fs.Name, Module: spec.Name, Params: fs.Params, Annot: set, Impl: fs.Impl, prog: prog, owner: m}
		s.registerFunc(f, s.moduleArea)
		m.Funcs[fs.Name] = f
		if fs.Type != "" {
			m.FuncTypes[fs.Name] = fs.Type
		}
	}

	// Allocate data sections.
	if spec.DataSize > 0 {
		m.Data = s.moduleArea.Alloc(spec.DataSize, mem.PageSize)
	}
	if spec.RODataSize > 0 {
		m.ROData = s.moduleArea.Alloc(spec.RODataSize, mem.PageSize)
	}

	shared := m.Set.Shared()

	// Initial capabilities (§3.2): WRITE to the writable data section...
	if spec.DataSize > 0 {
		s.Caps.Grant(shared, caps.WriteCap(m.Data, spec.DataSize))
		// "When a module is loaded, that module's shared principal is
		// added to the writer set for all of its writable sections" (§5).
		s.WST.MarkRange(m.Data, spec.DataSize)
	}
	// ... and CALL capabilities to all imported kernel routines. (In the
	// paper these name the functions' wrappers; here wrapping is implicit
	// in call mediation, so the capability names the function address.)
	// Each import is also resolved into a bound Gate — the module's
	// pre-linked crossing into that export — so module code never
	// repeats the symbol lookup per call (§4.2: resolution happens at
	// module initialization, not on the call path).
	m.gates = make(map[string]*Gate, len(spec.Imports))
	for _, imp := range spec.Imports {
		f, ok := s.FuncByName(imp)
		if !ok || !f.IsKernel() {
			return fail("imports unknown kernel symbol %q", imp)
		}
		s.Caps.Grant(shared, caps.CallCap(f.Addr))
		m.gates[imp] = &Gate{fn: f, owner: m}
	}
	// A module may call its own functions and store pointers to them in
	// kernel-visible slots (control flow integrity permits a module to
	// execute its own code).
	for _, f := range m.Funcs {
		s.Caps.Grant(shared, caps.CallCap(f.Addr))
	}

	s.mu.Lock()
	s.modules[spec.Name] = m
	s.mu.Unlock()
	return m, nil
}

// UnloadModule removes a module and revokes all its capabilities. The
// capability teardown happens inside the registry critical section so a
// concurrent LoadModule of the same name cannot slip between the two
// (lock order: core.System.mu before the caps locks, same as the grants
// in LoadModule's callees).
func (s *System) UnloadModule(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.modules[name]; m != nil {
		s.dropModule(m)
	}
}

// dropModule unpublishes m, with s.mu held: its function addresses, its
// name, and its principal set.
func (s *System) dropModule(m *Module) {
	for _, f := range m.Funcs {
		delete(s.funcsByAddr, f.Addr)
	}
	delete(s.modules, m.Name)
	s.Caps.UnloadModule(m.Set)
}

// killModule marks a module dead after a violation.
func (s *System) killModule(m *Module, v *Violation) {
	if m == nil {
		return
	}
	m.kill(v)
}

// NewThread creates an execution context (one simulated kernel thread
// with its own shadow stack).
func (s *System) NewThread(name string) *Thread {
	t := &Thread{Sys: s, Name: name, mon: s.Mon, csys: s.Caps}
	if s.tracing.Load() {
		t.rec = trace.NewRing(trace.DefaultEvents, trace.DefaultSampleEvery)
	}
	t.emit = func(c caps.Cap) error {
		t.iterBuf = append(t.iterBuf, c)
		return nil
	}
	return t
}
