// Dry-run tracing of compiled annotation programs.
//
// The tracers here run one phase of a declaration's action program on
// a synthetic crossing — resolving conditions, capabilities, and
// ownership exactly as runProgram does, but recording grants, revokes,
// and violations instead of applying them. internal/annotdb records
// these traces for every annotated export of a booted system and holds
// them to a golden ledger, which pins the crossing semantics.
package core

import (
	"fmt"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
)

// ActionTrace is one recorded annotation effect: Op is the action
// operator ("check", "copy", "transfer", "revoke") for applied
// actions, or "violation" with Err carrying the violation detail the
// real executor would have raised.
type ActionTrace struct {
	Op  string
	Cap string
	Err string
}

// TraceCrossing dry-runs one phase ("pre" or "post") of f's annotation
// program for a synthetic crossing. from is the principal whose
// ownership the phase checks.
func (f *FuncDecl) TraceCrossing(t *Thread, phase string, args []uint64, ret uint64, from *caps.Principal) []ActionTrace {
	return t.traceProgram(phase, f.Name, f.prog, args, ret, from)
}

// TraceCrossing is the FPtrType analogue, over the type's annotations
// compiled against its own parameter list.
func (ft *FPtrType) TraceCrossing(t *Thread, phase string, args []uint64, ret uint64, from *caps.Principal) []ActionTrace {
	return t.traceProgram(phase, ft.Name, t.Sys.compileAnnot(ft.Name, ft.Params, ft.Annot), args, ret, from)
}

// TracePrincipalValue evaluates ft's principal(...) expression on args
// without materializing an instance principal. isExpr is false when the
// annotation names no expression (shared, global, or the default).
func (ft *FPtrType) TracePrincipalValue(t *Thread, args []uint64) (v int64, isExpr bool, err error) {
	prog := t.Sys.compileAnnot(ft.Name, ft.Params, ft.Annot)
	if prog.prinKind != annot.PrincipalExpr {
		return 0, false, nil
	}
	env := t.getEnv(args)
	defer t.putEnv(env)
	v, err = prog.prinProg.Eval(env)
	return v, true, err
}

// traceProgram mirrors runProgram with recording effects. The
// violation formats are kept textually identical to the executor's.
func (t *Thread) traceProgram(phase, fnName string, prog *annotProg, args []uint64, ret uint64, from *caps.Principal) []ActionTrace {
	if prog == nil {
		return nil
	}
	env := t.getEnv(args)
	defer t.putEnv(env)
	steps := prog.pre
	if phase == "post" {
		steps = prog.post
		env.ret, env.hasRet = ret, true
	}
	var out []ActionTrace
steps:
	for i := range steps {
		st := &steps[i]
		for j := range st.conds {
			v, err := st.conds[j].prog.Eval(env)
			if err != nil {
				return append(out, ActionTrace{Op: "violation",
					Err: fmt.Sprintf("%s %s: bad condition %q: %v", phase, fnName, st.conds[j].src, err)})
			}
			if v == 0 {
				continue steps
			}
		}
		if st.isIterator() {
			buf, err := t.resolveIterCaps(st, env, t.getCapBuf())
			if err != nil {
				t.putCapBuf(buf)
				return append(out, ActionTrace{Op: "violation",
					Err: fmt.Sprintf("%s %s: %v", phase, fnName, err)})
			}
			for _, c := range buf {
				var stop bool
				out, stop = t.traceCapOp(phase, fnName, st.op, c, from, out)
				if stop {
					t.putCapBuf(buf)
					return out
				}
			}
			t.putCapBuf(buf)
			continue
		}
		c, err := t.resolveStepCap(st, env)
		if err != nil {
			return append(out, ActionTrace{Op: "violation",
				Err: fmt.Sprintf("%s %s: %v", phase, fnName, err)})
		}
		var stop bool
		out, stop = t.traceCapOp(phase, fnName, st.op, c, from, out)
		if stop {
			return out
		}
	}
	return out
}

// traceCapOp records the effect of one operator on one capability.
// Ownership consults the authoritative tables directly (no per-thread
// cache, so a dry run leaves no cached verdicts behind); nothing is
// granted or revoked.
func (t *Thread) traceCapOp(phase, fnName string, op annot.Op, c caps.Cap, from *caps.Principal, out []ActionTrace) ([]ActionTrace, bool) {
	if op == annot.Revoke {
		return append(out, ActionTrace{Op: "revoke", Cap: c.String()}), false
	}
	owned := from == nil || from.IsTrusted() || t.Sys.Caps.Check(from, c)
	if !owned {
		return append(out, ActionTrace{Op: "violation", Cap: c.String(),
			Err: fmt.Sprintf("%s %s: %s action: %s does not own %s", phase, fnName, op, from, c)}), true
	}
	return append(out, ActionTrace{Op: op.String(), Cap: c.String()}), false
}
