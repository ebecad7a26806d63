// Call gates: bind-time resolved crossing entry points.
//
// LXFI resolves a module's imports when the module is loaded and
// routes every crossing through a wrapper compiled for that function
// (§4.2). The simulation's analogue is the Gate: the loader resolves
// each import into a *Gate holding the pre-resolved declaration (whose
// annotation program was compiled at registration), and module code
// calls through the gate's one variadic entry point. A gate call
// therefore performs no name lookup, no registry lock, and no argument
// slice allocation — the arguments are copied onto the thread's
// crossing stack (pushArgs), so the caller's slice never escapes.
//
// Gates do not weaken isolation: the CALL capability check, the
// annotation programs, and the shadow stack still run on every
// mediated crossing exactly as they do for the string-keyed paths
// (CallKernel / IndirectCall), which remain for cold callers, tests,
// and exploit payloads. A gate only removes the per-call resolution
// cost the paper moves to bind time.
package core

import (
	"fmt"
	"sync/atomic"

	"lxfi/internal/mem"
)

// Gate is one bound module→kernel crossing: a pre-resolved kernel
// export. Obtained from Module.Gate at load time. owner is the module
// generation the gate was bound for: once that generation is retired
// by a reload, calling through the gate is a violation under
// enforcement (a stale gate is a dangling pointer into the old
// generation's import table).
type Gate struct {
	fn    *FuncDecl
	owner *Module
}

// guard refuses crossings through a gate whose owning module
// generation has been retired by a reload. During the quiesce drain
// (owner still quiescing) the gate keeps working — in-flight crossings
// must be able to finish. On a stock kernel the stale gate silently
// keeps working, which is exactly the use-after-reload window the
// StaleGateUseAfterReload exploit drives through.
func (g *Gate) guard(t *Thread) error {
	if g.owner == nil || g.owner.lcState.Load() != lcRetired {
		return nil
	}
	if !t.mon.Enforcing() {
		return nil
	}
	return t.violationAt(g.owner, g.owner.Set.Shared(), "stalegate", g.fn.Addr,
		fmt.Sprintf("crossing through stale gate %s of reloaded module %s",
			g.fn.Name, g.owner.Name))
}

// Gate returns the bound gate for one of the module's imports. Gates
// exist exactly for the loader-granted import list; asking for
// anything else is a module programming error and panics loudly at
// bind time (the same stage the real loader would fail relocation).
func (m *Module) Gate(name string) *Gate {
	g, ok := m.gates[name]
	if !ok {
		panic(fmt.Sprintf("core: module %s has no bound gate for %q (not in its import list)", m.Name, name))
	}
	return g
}

// Func returns the gate's resolved declaration.
func (g *Gate) Func() *FuncDecl { return g.fn }

// Call crosses into the gate's kernel export with args.
func (g *Gate) Call(t *Thread, args ...uint64) (uint64, error) {
	if err := g.guard(t); err != nil {
		return 0, err
	}
	frame, base := t.pushArgs(args)
	ret, err := t.callKernelDecl(g.fn, frame)
	t.popArgs(base)
	return ret, err
}

// IndGate is a bound indirect-call interface: a pre-resolved
// function-pointer type. Kernel substrates bind one per interface slot
// at init (System.BindIndirect) so the per-crossing path never repeats
// the string-keyed type lookup.
//
// Each gate also carries a small direct-mapped (slot → target) cache
// validated against the capability epoch and the enforcement mode
// (calls.go, indirectCallGate): once a slot's full writer-set check
// has passed, repeat crossings through the same unchanged slot skip
// the writer-set probe, the grantee sweep, and the System.mu registry
// lookups. Entries are immutable and swapped atomically, so gates are
// safe to share between threads.
type IndGate struct {
	ft    *FPtrType
	cache [indCacheSlots]atomic.Pointer[indCacheEnt]
}

// indCacheSlots is the per-gate cache size; slots of one interface
// hash by address, so a gate serving a handful of live objects keeps
// them all resident.
const indCacheSlots = 8

// indCacheEnt is one validated (slot → resolved target) binding. All
// fields are written before the entry is published and never mutated.
type indCacheEnt struct {
	slot      mem.Addr
	target    uint64
	epoch     uint64
	enforcing bool
	fn        *FuncDecl
}

// BindIndirect resolves a registered function-pointer type into an
// indirect-call gate. It panics on an unknown type, exactly as the
// per-call IndirectCall path does — binding just moves the failure to
// init time.
func (s *System) BindIndirect(typeName string) *IndGate {
	ft, ok := s.FPtrType(typeName)
	if !ok {
		panic("core: indirect call through unregistered fptr type " + typeName)
	}
	return &IndGate{ft: ft}
}

// Type returns the gate's resolved function-pointer type.
func (g *IndGate) Type() *FPtrType { return g.ft }

// Call performs the kernel-side checked indirect call through the
// pointer stored at slot (the lxfi_check_indcall path of §4.1).
func (g *IndGate) Call(t *Thread, slot mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.indirectCallGate(g, slot, frame)
	t.popArgs(base)
	return ret, err
}

// CallAddr is the module-side indirect call to target, a function
// pointer of the gate's type: Thread.CallAddr without the per-call
// type lookup.
func (g *IndGate) CallAddr(t *Thread, target mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.callAddrFT(target, g.ft, frame)
	t.popArgs(base)
	return ret, err
}
