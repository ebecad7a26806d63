// Dry-run tracing of compiled annotation programs.
//
// The tracers here run one phase of a declaration's action program on
// a synthetic crossing through runProgram, the walk every crossing
// runs, with a recorder in place of the thread's seam: it records
// grants, revokes, checks and violations instead of applying them.
// internal/annotdb records these traces for every annotated export of
// a booted system and holds them to a golden ledger, which pins the
// crossing semantics.
package core

import (
	"errors"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
	"lxfi/internal/mem"
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
	return t.traceProgram(phase, ft.Name, t.Sys.mustCompileAnnot(ft.Name, ft.Params, ft.Annot), args, ret, from)
}

// TracePrincipalValue evaluates ft's principal(...) expression on args
// without materializing an instance principal. isExpr is false when the
// annotation names no expression (shared, global, or the default).
func (ft *FPtrType) TracePrincipalValue(t *Thread, args []uint64) (v int64, isExpr bool, err error) {
	prog := t.Sys.mustCompileAnnot(ft.Name, ft.Params, ft.Annot)
	if prog.prinKind != annot.PrincipalExpr {
		return 0, false, nil
	}
	env := t.getEnv(args)
	defer t.putEnv(env)
	v, err = prog.prinProg.Eval(env)
	return v, true, err
}

// traceProgram runs one phase of prog through a traceRecorder.
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
	r := &traceRecorder{csys: t.Sys.Caps}
	_ = t.runProgram(r, phase, fnName, steps, env, from, nil, nil)
	return r.out
}

// traceRecorder is runProgram's dry-run seam. Ownership consults the
// authoritative tables directly (no per-thread cache, so a dry run
// leaves no cached verdicts behind); nothing is granted or revoked.
type traceRecorder struct {
	csys   *caps.System
	out    []ActionTrace
	denied string // the capability the failed ownership probe named
}

var errTraced = errors.New("core: traced violation")

func (r *traceRecorder) owns(from *caps.Principal, c caps.Cap, _ uint64) bool {
	if from == nil || from.IsTrusted() || r.csys.Check(from, c) {
		return true
	}
	r.denied = c.String()
	return false
}

func (r *traceRecorder) capOp(op annot.Op, c caps.Cap, _ *caps.Principal) {
	r.out = append(r.out, ActionTrace{Op: op.String(), Cap: c.String()})
}

func (r *traceRecorder) violate(_ *Module, _ *caps.Principal, _ mem.Addr, detail string) error {
	r.out = append(r.out, ActionTrace{Op: "violation", Cap: r.denied, Err: detail})
	return errTraced
}
