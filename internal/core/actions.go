package core

import (
	"fmt"
	"strings"

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

// sizeofType resolves "sizeof(*ptr)" for a parameter's declared C type:
// "struct sk_buff *" -> size of struct sk_buff in the layout registry.
func (s *System) sizeofType(typ string) (uint64, bool) {
	typ = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(typ), "*"))
	return s.Layouts.Sizeof(typ)
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

// runProgram executes one compiled pre or post action program (the
// crossing's side of the Fig. 3 contract). Ownership checks are made
// against from, the side that must already hold each capability; copies
// and transfers then move capabilities from from to to. blame
// identifies the untrusted side to kill on a contract violation. The
// phase/fnName pair is joined only on the cold violation path, so the
// hot crossing builds no strings.
func (t *Thread) runProgram(phase, fnName string, steps []actionStep, env *argEnv,
	from, to *caps.Principal, blame *Module) error {
steps:
	for i := range steps {
		st := &steps[i]
		for j := range st.conds {
			v, err := st.conds[j].prog.Eval(env)
			if err != nil {
				return t.violationAt(blame, from, "annotation", 0,
					fmt.Sprintf("%s %s: bad condition %q: %v", phase, fnName, st.conds[j].src, err))
			}
			if v == 0 {
				continue steps
			}
		}
		if st.isIterator() {
			buf, err := t.resolveIterCaps(st, env, t.getCapBuf())
			if err != nil {
				t.putCapBuf(buf)
				return t.violationAt(blame, from, "annotation", 0,
					fmt.Sprintf("%s %s: %v", phase, fnName, err))
			}
			for _, c := range buf {
				if err := t.applyCapOp(phase, fnName, st.op, c, 0, from, to, blame); err != nil {
					t.putCapBuf(buf)
					return err
				}
			}
			t.putCapBuf(buf)
			continue
		}
		c, err := t.resolveStepCap(st, env)
		if err != nil {
			return t.violationAt(blame, from, "annotation", 0,
				fmt.Sprintf("%s %s: %v", phase, fnName, err))
		}
		if err := t.applyCapOp(phase, fnName, st.op, c, st.refTag, from, to, blame); err != nil {
			return err
		}
	}
	return nil
}

// applyCapOp applies one action operator to one resolved capability —
// the shared tail of both caplist forms. Revoke needs no ownership
// check: stripping a capability from every principal can only remove
// rights, and the failure paths that use it (e.g. readpage errors) run
// exactly when the contract that would have justified ownership fell
// through. The other operators first verify ownership on the from side
// ("Both copy and transfer ensure that the capability is owned in the
// first place before granting it", §3.3). refTag, when nonzero, is the
// step's pre-interned REF cache tag; it routes the ownership check
// through the per-thread cache (REF verdicts are only cacheable with
// an exact interned identity, see refTypeTag).
func (t *Thread) applyCapOp(phase, fnName string, op annot.Op, c caps.Cap, refTag uint64,
	from, to *caps.Principal, blame *Module) error {
	mon := &t.Sys.Mon.Stats
	mon.AnnotationActions.Add(1)
	if op == annot.Revoke {
		mon.CapRevokes.Add(1)
		t.Sys.Caps.RevokeAll(c)
		return nil
	}
	var owned bool
	if c.Kind == caps.Ref && refTag != 0 {
		owned = t.checkCapTag(from, c, refTag)
	} else {
		owned = t.checkCap(from, c)
	}
	if !owned {
		return t.violationAt(blame, from, "annotation", c.Addr,
			fmt.Sprintf("%s %s: %s action: %s does not own %s", phase, fnName, op, from, c))
	}
	switch op {
	case annot.Check:
		// ownership verified above
	case annot.Copy:
		t.grant(to, c)
	case annot.Transfer:
		t.transfer(to, c)
	}
	return nil
}

// resolveStepCap materializes the capability of an inline-form step.
func (t *Thread) resolveStepCap(st *actionStep, env *argEnv) (caps.Cap, error) {
	ptr, err := st.ptr.Eval(env)
	if err != nil {
		return caps.Cap{}, err
	}
	addr := mem.Addr(uint64(ptr))
	switch st.kind {
	case annot.CapCall:
		return caps.CallCap(addr), nil
	case annot.CapRef:
		return caps.RefCap(st.refType, addr), nil
	case annot.CapWrite:
		var size uint64
		switch {
		case st.hasSize:
			v, err := st.size.Eval(env)
			if err != nil {
				return caps.Cap{}, err
			}
			if v < 0 {
				v = 0
			}
			size = uint64(v)
		case st.sizeofVal != 0:
			size = st.sizeofVal
		case st.sizeofType != "":
			v, ok := t.Sys.sizeofType(st.sizeofType)
			if !ok {
				return caps.Cap{}, fmt.Errorf("core: cannot resolve sizeof for %q", st.src.Ptr)
			}
			size = v
		default:
			return caps.Cap{}, fmt.Errorf("core: cannot resolve sizeof for %q", st.src.Ptr)
		}
		return caps.WriteCap(addr, size), nil
	}
	return caps.Cap{}, fmt.Errorf("core: bad caplist")
}

// resolveIterCaps runs an iterator-form step, appending the emitted
// capabilities to out. The emit closure is the thread's pre-bound
// t.emit (no per-crossing closure allocation); the buffer swap is
// stack-disciplined so a re-entrant iterator cannot clobber an outer
// resolution.
func (t *Thread) resolveIterCaps(st *actionStep, env *argEnv, out []caps.Cap) ([]caps.Cap, error) {
	iter := st.iter
	if iter == nil {
		var ok bool
		iter, ok = t.Sys.iterator(st.iterName)
		if !ok {
			return out, fmt.Errorf("core: unknown capability iterator %q", st.iterName)
		}
	}
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
	err := iter(t, iargs, t.emit)
	out = t.iterBuf
	t.iterBuf = saved
	t.iargBuf = iargs
	return out, err
}

// violationAt records a violation attributed to a specific module and
// principal (used when the violating side is not the thread's current
// principal, e.g. a caller failing a pre-action ownership check).
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
