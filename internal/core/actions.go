package core

import (
	"fmt"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// argEnv supplies a call's arguments (and, for post actions, its
// return value) to compiled annotation programs, which reference them
// by position.
type argEnv struct {
	sys    *System
	args   []uint64
	ret    uint64
	hasRet bool
}

// ProgArg implements annot.RunEnv.
func (e *argEnv) ProgArg(i int) (int64, bool) {
	if i < len(e.args) {
		return int64(e.args[i]), true
	}
	return 0, false
}

// ProgRet implements annot.RunEnv.
func (e *argEnv) ProgRet() (int64, bool) {
	if !e.hasRet {
		return 0, false
	}
	return int64(e.ret), true
}

// Const implements annot.RunEnv.
func (e *argEnv) Const(name string) (int64, bool) {
	return e.sys.Const(name)
}

// grant gives c to principal p, updating writer sets when a WRITE
// capability lands in module hands.
func (t *Thread) grant(p *caps.Principal, c caps.Cap) {
	t.Sys.Mon.Stats.CapGrants.Add(1)
	if p == nil || p.IsTrusted() {
		return
	}
	t.Sys.Caps.Grant(p, c)
	if c.Kind == caps.Write {
		t.Sys.WST.MarkRange(c.Addr, c.Size)
	}
}

// transfer revokes c from every principal in the system so no stale
// copies remain (§3.3), then grants it to p: one capability-system
// operation with one epoch bump.
func (t *Thread) transfer(p *caps.Principal, c caps.Cap) {
	mon := &t.Sys.Mon.Stats
	mon.CapRevokes.Add(1)
	mon.CapGrants.Add(1)
	t.Sys.Caps.Transfer(c, p)
	if c.Kind == caps.Write && p != nil && !p.IsTrusted() {
		t.Sys.WST.MarkRange(c.Addr, c.Size)
	}
}

// actionSeam is how runProgram acts on the world. A crossing passes
// its Thread, which probes through the per-thread check cache and
// applies the operation to the capability tables; TraceCrossing passes
// a traceRecorder (diff.go), which probes the authoritative tables and
// records each effect instead. Capabilities cross the seam by value, so
// a crossing's dynamic calls leave nothing on the heap.
type actionSeam interface {
	// owns reports whether from holds c. refTag is the step's
	// pre-interned REF cache tag, 0 when the verdict is uncacheable.
	owns(from *caps.Principal, c caps.Cap, refTag uint64) bool
	// capOp applies op (copy, transfer, check or revoke) to c; to
	// receives what copy and transfer grant.
	capOp(op annot.Op, c caps.Cap, to *caps.Principal)
	// violate reports a broken contract and returns the crossing's
	// error.
	violate(blame *Module, from *caps.Principal, addr mem.Addr, detail string) error
}

// runProgram executes one compiled pre or post action program (the
// crossing's side of the Fig. 3 contract) through seam. Ownership is
// probed on from, the side that must already hold each capability;
// copies and transfers then move capabilities from from to to. blame
// identifies the untrusted side to kill on a contract violation. The
// phase/fnName pair is joined only on the cold violation path, so the
// hot crossing builds no strings.
//
// Revoke probes nothing: stripping a capability from every principal
// can only remove rights, and the failure paths that use it (e.g.
// readpage errors) run exactly when the contract that would have
// justified ownership fell through. The other operators first verify
// ownership on the from side ("Both copy and transfer ensure that the
// capability is owned in the first place before granting it", §3.3).
func (t *Thread) runProgram(seam actionSeam, phase, fnName string, steps []actionStep, env *argEnv,
	from, to *caps.Principal, blame *Module) error {
steps:
	for i := range steps {
		st := &steps[i]
		for j := range st.conds {
			v, err := st.conds[j].prog.Eval(env)
			if err != nil {
				return seam.violate(blame, from, 0,
					fmt.Sprintf("%s %s: bad condition %q: %v", phase, fnName, st.conds[j].src, err))
			}
			if v == 0 {
				continue steps
			}
		}
		buf, err := t.resolveCaps(st, env, t.getCapBuf())
		if err != nil {
			t.putCapBuf(buf)
			return seam.violate(blame, from, 0, fmt.Sprintf("%s %s: %v", phase, fnName, err))
		}
		for _, c := range buf {
			if st.op != annot.Revoke && !seam.owns(from, c, st.refTag) {
				t.putCapBuf(buf)
				return seam.violate(blame, from, c.Addr,
					fmt.Sprintf("%s %s: %s action: %s does not own %s", phase, fnName, st.op, from, c))
			}
			seam.capOp(st.op, c, to)
		}
		t.putCapBuf(buf)
	}
	return nil
}

// owns is the crossing's ownership probe: through the per-thread check
// cache, under the step's REF tag when it has one (REF verdicts are
// only cacheable with an exact interned identity, see refTypeTag).
// Every probed action counts once; capOp counts the revokes.
func (t *Thread) owns(from *caps.Principal, c caps.Cap, refTag uint64) bool {
	t.Sys.Mon.Stats.AnnotationActions.Add(1)
	if c.Kind == caps.Ref && refTag != 0 {
		return t.checkCapTag(from, c, refTag)
	}
	return t.checkCap(from, c)
}

// capOp applies one action operator to one capability whose ownership
// owns has verified.
func (t *Thread) capOp(op annot.Op, c caps.Cap, to *caps.Principal) {
	switch op {
	case annot.Revoke:
		mon := &t.Sys.Mon.Stats
		mon.AnnotationActions.Add(1)
		mon.CapRevokes.Add(1)
		t.Sys.Caps.RevokeAll(c)
	case annot.Copy:
		t.grant(to, c)
	case annot.Transfer:
		t.transfer(to, c)
	}
}

// resolveCaps appends the capabilities step st names to out: the one
// capability of an inline caplist, or what its iterator emits.
func (t *Thread) resolveCaps(st *actionStep, env *argEnv, out []caps.Cap) ([]caps.Cap, error) {
	if st.iter != nil {
		return t.resolveIterCaps(st, env, out)
	}
	ptr, err := st.ptr.Eval(env)
	if err != nil {
		return out, err
	}
	addr := mem.Addr(uint64(ptr))
	switch st.kind {
	case annot.CapCall:
		return append(out, caps.CallCap(addr)), nil
	case annot.CapRef:
		return append(out, caps.RefCap(st.refType, addr)), nil
	case annot.CapWrite:
		v, err := st.size.Eval(env)
		if err != nil {
			return out, err
		}
		if v < 0 {
			v = 0
		}
		return append(out, caps.WriteCap(addr, uint64(v))), nil
	}
	return out, fmt.Errorf("core: bad caplist")
}

// resolveIterCaps runs an iterator-form step, appending the emitted
// capabilities to out. The emit closure is the thread's pre-bound
// t.emit (no per-crossing closure allocation); the buffer swap is
// stack-disciplined so a re-entrant iterator cannot clobber an outer
// resolution.
func (t *Thread) resolveIterCaps(st *actionStep, env *argEnv, out []caps.Cap) ([]caps.Cap, error) {
	// A local array would escape through the indirect iter call, so the
	// argument slice lives on the thread; swap it out around the run so
	// a re-entrant iterator gets a fresh one instead of clobbering ours.
	iargs := t.iargBuf
	t.iargBuf = nil
	if cap(iargs) < len(st.iterArgs) {
		iargs = make([]int64, 0, len(st.iterArgs))
	}
	iargs = iargs[:0]
	for i := range st.iterArgs {
		v, err := st.iterArgs[i].Eval(env)
		if err != nil {
			t.iargBuf = iargs
			return out, err
		}
		iargs = append(iargs, v)
	}
	saved := t.iterBuf
	t.iterBuf = out
	err := st.iter(t, iargs, t.emit)
	out = t.iterBuf
	t.iterBuf = saved
	t.iargBuf = iargs
	return out, err
}

// violate is the crossing's side of the seam: an annotation violation
// blamed on module m and principal p.
func (t *Thread) violate(m *Module, p *caps.Principal, addr mem.Addr, detail string) error {
	return t.violationAt(m, p, "annotation", addr, detail)
}

// violationAt records a violation attributed to module m and principal
// p, the thread's current ones or, e.g., a caller failing a pre-action
// ownership check.
func (t *Thread) violationAt(m *Module, p *caps.Principal, op string, addr mem.Addr, detail string) error {
	v := &Violation{
		Module:    moduleName(m),
		Principal: p.String(),
		Op:        op,
		Addr:      addr,
		Detail:    detail,
	}
	t.traceViolation(v, p)
	err := t.Sys.Mon.record(v)
	if t.Sys.Mon.KillOnViolation && m != nil {
		t.Sys.killModule(m, v)
	}
	t.Sys.Mon.notifyThread(v, t)
	return err
}

// resolvePrincipal evaluates the compiled principal annotation of a
// module function to the principal the function must run as (§3.1,
// §3.3).
func (t *Thread) resolvePrincipal(m *Module, prog *annotProg, env *argEnv) (*caps.Principal, error) {
	switch prog.prinKind {
	case annot.PrincipalGlobal:
		return m.Set.Global(), nil
	case annot.PrincipalShared, annot.PrincipalDefault:
		// "in the absence of this annotation, LXFI uses the module's
		// shared principal" (Fig. 3).
		return m.Set.Shared(), nil
	case annot.PrincipalExpr:
		v, err := prog.prinProg.Eval(env)
		if err != nil {
			return nil, fmt.Errorf("core: principal expression %q: %v", prog.prinSrc, err)
		}
		return m.Set.Instance(mem.Addr(uint64(v))), nil
	}
	return nil, fmt.Errorf("core: bad principal annotation")
}
