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
// The kernel-side analogue for indirect calls is the registered
// function-pointer type itself: a substrate keeps the *FPtrType its
// RegisterFPtrType call returned and calls through FPtrType.Call.
//
// Gates do not weaken isolation: the CALL capability check, the
// annotation programs, the writer-set check, and the shadow stack still
// run on every mediated crossing exactly as they do for the
// string-keyed paths (CallKernel / IndirectCall), which remain for cold
// callers, tests, and exploit payloads. A gate only removes the
// per-call resolution cost the paper moves to bind time.
package core

import (
	"fmt"

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

// Call performs the kernel-side checked indirect call through the
// pointer stored at slot, a slot of type ft (the lxfi_check_indcall
// path of §4.1). Kernel substrates keep the *FPtrType RegisterFPtrType
// returns and call through it, so the per-crossing path never repeats
// IndirectCall's string-keyed type lookup; both run one body.
func (ft *FPtrType) Call(t *Thread, slot mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.indirectCall(slot, ft, frame)
	t.popArgs(base)
	return ret, err
}

// CallAddr is the module-side indirect call to target, a function
// pointer of type ft: Thread.CallAddr without the per-call type lookup.
func (ft *FPtrType) CallAddr(t *Thread, target mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.callAddrFT(target, ft, frame)
	t.popArgs(base)
	return ret, err
}
