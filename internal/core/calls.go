package core

import (
	"fmt"

	"lxfi/internal/caps"
	"lxfi/internal/failpoint"
	"lxfi/internal/mem"
	"lxfi/internal/trace"
)

func init() {
	failpoint.Register("kernel.entry")
}

// CallKernel invokes a core-kernel export on behalf of the current
// context. In module context this is the function-wrapper path of §4.2:
// the wrapper checks the CALL capability, runs pre actions, switches to
// trusted kernel context, invokes the function, runs post actions, and
// validates the shadow stack on the way out.
//
// In kernel context (t.cur == nil) the call is direct: "Since LXFI
// assumes that the core kernel is fully trusted, it can omit most checks
// for performance" (§4).
// Hot callers should bind a Gate at load time instead (gate.go); the
// string-keyed path remains for cold callers, tests, and exploit
// payloads.
func (t *Thread) CallKernel(name string, args ...uint64) (uint64, error) {
	fn, ok := t.Sys.FuncByName(name)
	if !ok || !fn.IsKernel() {
		// A failed resolution is part of the violation picture (a module
		// probing for symbols it was not linked against), so it lands in
		// the monitor's stats even though no capability check ran.
		t.Sys.Mon.Stats.FailedResolutions.Add(1)
		return 0, fmt.Errorf("core: no such kernel function %q", name)
	}
	frame, base := t.pushArgs(args)
	ret, err := t.callKernelDecl(fn, frame)
	t.popArgs(base)
	return ret, err
}

func (t *Thread) callKernelDecl(fn *FuncDecl, args []uint64) (uint64, error) {
	mediated := t.cur != nil && t.Sys.Mon.Enforcing()
	callerMod := t.curMod
	callerPrin := t.cur
	var env *argEnv

	// Fault site at the kernel-export boundary, module callers only —
	// in both modes, so chaos runs compare stock and enforced behavior.
	// A panic policy here unwinds into the calling module's crossing
	// gate, which contains it as a module oops; pure kernel-context
	// calls never evaluate the site.
	if callerMod != nil {
		if err := failpoint.InjectArg("kernel.entry", fn.Name); err != nil {
			return 0, err
		}
	}

	// Only mediated crossings are flight-recorded: kernel-context calls
	// are direct jumps with nothing to observe.
	traced := mediated && t.rec != nil
	var tc traceCtx
	if traced {
		tc = t.traceBegin()
	}

	if mediated {
		t.Sys.Mon.Stats.FuncEntries.Add(1)
		// Safe default (§2.2): a kernel function with no annotations
		// cannot be accessed by a kernel module at all.
		if fn.Annot == nil {
			return 0, t.violation("call", fn.Addr,
				fmt.Sprintf("call to unannotated kernel function %s", fn.Name))
		}
		// The module may only call functions it holds CALL capabilities
		// for (granted for its imports at load time).
		if !t.checkCap(t.cur, caps.CallCap(fn.Addr)) {
			return 0, t.violation("call", fn.Addr,
				fmt.Sprintf("no CALL capability for %s", fn.Name))
		}
		env = t.getEnv(args)
		defer t.putEnv(env)
		// pre: ownership checked on the caller (module); grants flow
		// caller -> callee (kernel).
		if err := t.runProgram(t, "pre", fn.Name, fn.prog.pre, env, callerPrin, t.Sys.Caps.Trusted, callerMod); err != nil {
			return 0, err
		}
	}

	ret, err := t.runBody(fn, args, nil, nil, callerMod, callerPrin)
	if err != nil {
		return ret, err
	}

	if mediated {
		t.Sys.Mon.Stats.FuncExits.Add(1)
		if callerMod != nil && callerMod.Dead() {
			return ret, ErrModuleDead
		}
		env.ret, env.hasRet = ret, true
		// post: ownership checked on the callee (kernel, trivially true);
		// grants flow callee -> caller.
		if err := t.runProgram(t, "post", fn.Name, fn.prog.post, env, t.Sys.Caps.Trusted, callerPrin, callerMod); err != nil {
			return ret, err
		}
	}
	if traced {
		t.traceEnd(trace.KindKernelCall, fn.Name, callerMod, callerPrin, fn.Addr, tc)
	}
	return ret, nil
}

// runBody is every crossing's body: it pushes the shadow frame, runs
// fn as principal p of module m (both nil for trusted kernel and user
// code; p is nil in a module when enforcement is off), and pops the
// frame. A panic raised anywhere inside the crossing — the body, or a
// nested call that unwound back into it — is recovered into a
// synthetic "panic" violation blamed on blameMod and blamePrin instead
// of unwinding the host kernel: a module oopsed, or a kernel function
// was fed bad state by its calling module. With no module to blame
// there is nothing to contain the panic with, and it propagates as a
// genuine kernel panic.
func (t *Thread) runBody(fn *FuncDecl, args []uint64, m *Module, p *caps.Principal, blameMod *Module, blamePrin *caps.Principal) (ret uint64, err error) {
	depth := len(t.shadow)
	argBase := len(t.argStack)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if blameMod == nil {
			panic(rec)
		}
		t.recoverCrossing(depth, argBase)
		ret, err = 0, t.panicViolation(blameMod, blamePrin, fn, rec)
	}()
	tok := t.pushFrame(fn)
	t.cur, t.curMod = p, m
	ret = fn.Impl(t, args)
	err = t.popFrame(tok)
	return ret, err
}

// recoverCrossing restores the thread's crossing state after a panic
// unwound past nested pushFrame'd crossings without their popFrame
// running. Every frame at or above the recovery point is discarded
// wholesale — per-frame CFI return-token validation is meaningless
// mid-unwind, and running it would misreport the oops as shadow-stack
// tampering — and the caller context is restored from the frame this
// crossing pushed. The argument stack is truncated the same way (the
// entry points pop it after a normal return).
func (t *Thread) recoverCrossing(depth, argBase int) {
	if len(t.shadow) > depth {
		f := t.shadow[depth]
		t.cur, t.curMod = f.savedCur, f.savedMod
		t.shadow = t.shadow[:depth]
	}
	t.popArgs(argBase)
}

// panicViolation routes a panic recovered at a crossing boundary into
// the violation pipeline. Under enforcement it is a first-class
// violation — recorded, module killed, forensics hook and supervisor
// subscribers notified. On the stock kernel there is no monitor doing
// the attributing: the oops still kills the module and wakes the
// supervisor's subscribers, but records nothing, mirroring how a stock
// oops takes the module down with no isolation log.
func (t *Thread) panicViolation(m *Module, p *caps.Principal, fn *FuncDecl, rec any) error {
	if p == nil && m.Set != nil {
		p = m.Set.Shared()
	}
	detail := fmt.Sprintf("panic in %s: %v", fn.Name, rec)
	if t.Sys.Mon.Enforcing() {
		return t.violationAt(m, p, "panic", fn.Addr, detail)
	}
	v := &Violation{
		Module:    m.Name,
		Principal: p.String(),
		Op:        "panic",
		Addr:      fn.Addr,
		Detail:    detail,
	}
	t.Sys.killModule(m, v)
	t.Sys.Mon.notifySubscribers(v, t)
	return fmt.Errorf("%w (%s): %s", ErrModuleDead, m.Name, detail)
}

// CallModule invokes a module function by name from the current context
// (normally the core kernel, e.g. a driver probe or an ops callback
// reached through a checked indirect call).
func (t *Thread) CallModule(m *Module, fname string, args ...uint64) (uint64, error) {
	fn, ok := m.Funcs[fname]
	if !ok {
		t.Sys.Mon.Stats.FailedResolutions.Add(1)
		return 0, fmt.Errorf("core: module %s has no function %q", m.Name, fname)
	}
	frame, base := t.pushArgs(args)
	ret, err := t.callModuleDecl(m, fn, nil, frame)
	t.popArgs(base)
	return ret, err
}

// callModuleDecl is the wrapper of a module function. ft is the type of
// the slot a kernel-side indirect call reached fn through, nil for a
// direct call; a declaration without parameters runs its set compiled
// against ft's (substProg).
func (t *Thread) callModuleDecl(m *Module, fn *FuncDecl, ft *FPtrType, args []uint64) (uint64, error) {
	// Entry protocol (reload.go): register the crossing in the module's
	// active counter, park if a reload is quiescing the module, and
	// re-bind to the successor generation if it has been retired.
	var err error
	m, fn, err = t.enterModule(m, fn)
	if err != nil {
		return 0, err
	}
	entered := m
	defer entered.active.Add(-1)
	if m.Dead() {
		return 0, fmt.Errorf("%w (%s)", ErrModuleDead, m.Name)
	}
	enforcing := t.Sys.Mon.Enforcing()
	callerPrin := t.cur

	traced := enforcing && t.rec != nil
	var tc traceCtx
	if traced {
		tc = t.traceBegin()
	}

	var env *argEnv
	var prog *annotProg
	var callee *caps.Principal
	if enforcing {
		t.Sys.Mon.Stats.FuncEntries.Add(1)
		prog = fn.prog
		if ft != nil && len(fn.Params) == 0 {
			prog = t.Sys.substProg(fn, ft)
		}
		env = t.getEnv(args)
		defer t.putEnv(env)
		var err error
		// The wrapper "sets the appropriate principal" (§4.2) from the
		// principal(...) annotation before running the module function.
		callee, err = t.resolvePrincipal(m, prog, env)
		if err != nil {
			return 0, t.violationAt(m, m.Set.Shared(), "annotation", fn.Addr, err.Error())
		}
		t.Sys.Mon.Stats.PrincipalSwitches.Add(1)
		// pre: ownership checked on the caller; grants flow caller ->
		// callee principal.
		if err := t.runProgram(t, "pre", fn.Name, prog.pre, env, callerPrin, callee, t.curMod); err != nil {
			return 0, err
		}
	}

	ret, err := t.runBody(fn, args, m, callee, m, callee)
	if err != nil {
		return ret, err
	}

	if enforcing {
		t.Sys.Mon.Stats.FuncExits.Add(1)
		if m.Dead() {
			return ret, fmt.Errorf("%w (%s)", ErrModuleDead, m.Name)
		}
		env.ret, env.hasRet = ret, true
		// post: ownership checked on the callee (module); grants flow
		// callee -> caller.
		if err := t.runProgram(t, "post", fn.Name, prog.post, env, callee, callerPrin, m); err != nil {
			return ret, err
		}
	}
	if traced {
		t.traceEnd(trace.KindModuleCall, fn.Name, m, callee, fn.Addr, tc)
	}
	return ret, nil
}

// IndirectCall performs a core-kernel indirect call through the function
// pointer stored at slot, whose declared type is the registered FPtrType
// typeName. This is the lxfi_check_indcall path of §4.1: the kernel
// rewriter has replaced `(*slot)(args...)` with a checked call that
// passes the *address of the original function pointer* (Fig. 5), so the
// runtime can consult the writer set for that slot.
// Hot kernel-side callers call through the registered type instead
// (FPtrType.Call, gate.go); this path repeats the type lookup per call.
func (t *Thread) IndirectCall(slot mem.Addr, typeName string, args ...uint64) (uint64, error) {
	ft, ok := t.Sys.FPtrType(typeName)
	if !ok {
		panic("core: indirect call through unregistered fptr type " + typeName)
	}
	frame, base := t.pushArgs(args)
	ret, err := t.indirectCall(slot, ft, frame)
	t.popArgs(base)
	return ret, err
}

// indirectCall is the kernel-side indirect-call body behind
// IndirectCall and FPtrType.Call: load the slot, run the writer-set
// check under enforcement, resolve the target, and dispatch to it.
func (t *Thread) indirectCall(slot mem.Addr, ft *FPtrType, args []uint64) (uint64, error) {
	v, err := t.Sys.AS.ReadU64(slot)
	if err != nil {
		return 0, fmt.Errorf("core: indirect call: cannot load pointer at %#x: %v", uint64(slot), err)
	}
	target := mem.Addr(v)
	fn, _ := t.Sys.FuncByAddr(target)
	if t.mon.Enforcing() {
		t.Sys.Mon.Stats.IndCallAll.Add(1)
		// Fast path: if no principal was ever granted WRITE access to the
		// slot, no module can have supplied the pointer and the expensive
		// check is skipped (§4.1 writer-set tracking). The ablation flag
		// forces the slow path everywhere.
		if t.Sys.Mon.DisableWriterSetOpt || !t.Sys.WST.Empty(slot) {
			t.Sys.Mon.Stats.IndCallSlow.Add(1)
			if err := t.checkIndCallSlow(slot, target, fn, ft); err != nil {
				return 0, err
			}
		}
	}
	switch {
	case fn == nil:
		// A wild pointer: in the real kernel this is an oops (or, if the
		// attacker mapped the page, arbitrary code execution — modeled by
		// RegisterUserFuncAt).
		return 0, fmt.Errorf("core: kernel oops: indirect call to invalid address %#x", uint64(target))
	case fn.IsUser():
		// The kernel jumping to user-mapped code: the exploit payload runs
		// with full kernel privilege. (Under Enforce this is unreachable
		// for module-supplied pointers; the slow-path check rejects it.)
		return t.runBody(fn, args, nil, nil, nil, nil)
	case fn.IsKernel():
		return t.callKernelDecl(fn, args)
	case fn.owner == nil:
		return 0, fmt.Errorf("core: function %s belongs to unloaded module", fn)
	default:
		// Enter through the declaration's own generation. While a reload
		// replaces it, the entry protocol parks the crossing there and
		// follows the successor only once CompleteReload publishes it,
		// capabilities migrated. A by-name lookup would find the fresh
		// generation as soon as it loads and run it before the migration,
		// without the old generation's capabilities.
		return t.callModuleDecl(fn.owner, fn, ft, args)
	}
}

// checkIndCallSlow validates a module-writable function-pointer slot:
// every principal that could have written the slot must hold a CALL
// capability for the target, and the target's annotations must match the
// slot type's annotations. fn is the target's declaration, nil when the
// target is no function. The grantees are collected into the thread's
// own slice, so the check allocates nothing once that slice has grown,
// and the module to blame is looked up only for a violation.
func (t *Thread) checkIndCallSlow(slot, target mem.Addr, fn *FuncDecl, ft *FPtrType) error {
	// An empty sweep means the conservative bitmap said non-empty but no
	// principal holds WRITE over the slot any more: kernel-written.
	t.writers = t.csys.WriteGrantees(t.writers[:0], slot)
	for _, w := range t.writers {
		var why string
		switch {
		case fn == nil:
			why = fmt.Sprintf("module-writable slot %#x points to non-function address %#x",
				uint64(slot), uint64(target))
		case !t.checkCap(w, caps.CallCap(target)):
			why = fmt.Sprintf("writer %s lacks CALL capability for target %s of slot %#x",
				w, fn, uint64(slot))
		// Annotation-hash match (§4.1): the module must not launder a
		// function through a pointer type with different annotations.
		// Per §7, the check applies when the target has annotations.
		case fn.Annot != nil && fn.Annot.Hash() != ft.Annot.Hash():
			why = fmt.Sprintf("annotation mismatch: %s has %q but slot type %s has %q",
				fn, fn.Annot, ft.Name, ft.Annot)
		default:
			continue
		}
		blame, _ := t.Sys.Module(w.Module)
		return t.violationAt(blame, w, "indcall", target, why)
	}
	return nil
}

// CallAddr is the module-side indirect call: module code invoking a
// function pointer (e.g. a kernel-provided callback) of declared type
// typeName. The module rewriter instruments these sites so the runtime
// can verify the CALL capability and annotation match before the jump.
func (t *Thread) CallAddr(target mem.Addr, typeName string, args ...uint64) (uint64, error) {
	ft, ok := t.Sys.FPtrType(typeName)
	if !ok {
		panic("core: indirect call through unregistered fptr type " + typeName)
	}
	frame, base := t.pushArgs(args)
	ret, err := t.callAddrFT(target, ft, frame)
	t.popArgs(base)
	return ret, err
}

// callAddrFT is CallAddr past type resolution (FPtrType.CallAddr lands
// here).
func (t *Thread) callAddrFT(target mem.Addr, ft *FPtrType, args []uint64) (uint64, error) {
	fn, known := t.Sys.FuncByAddr(target)

	if t.cur != nil && t.Sys.Mon.Enforcing() {
		if !t.checkCap(t.cur, caps.CallCap(target)) {
			return 0, t.violation("call", target,
				fmt.Sprintf("module indirect call: no CALL capability for %#x", uint64(target)))
		}
		if known && fn.Annot != nil && fn.Annot.Hash() != ft.Annot.Hash() {
			return 0, t.violation("call", target,
				fmt.Sprintf("module indirect call: annotation mismatch for %s via %s", fn, ft.Name))
		}
	}
	if !known {
		return 0, fmt.Errorf("core: kernel oops: indirect call to invalid address %#x", uint64(target))
	}
	if fn.IsKernel() {
		return t.callKernelDecl(fn, args)
	}
	if fn.owner != nil {
		// The declaration's own generation, for the reason indirectCall
		// gives.
		return t.callModuleDecl(fn.owner, fn, nil, args)
	}
	return 0, fmt.Errorf("core: cannot dispatch %s", fn)
}
