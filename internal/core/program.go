// Bind-time compilation of annotation sets into action programs.
//
// The paper's loader compiles annotations into checking wrappers once,
// at module load (§4.2); calls then run the compiled checks. This file
// is that compile step for the simulation: when a function is
// registered, its annot.Set is lowered into an annotProg — a flat slice
// of fixed-size actionSteps whose expressions are opcode programs
// (annot.ExprProg) with parameter names resolved to argument indices,
// whose iterators and REF cache tags are pre-resolved, and whose
// if-chains are flattened into per-step condition lists. Every crossing
// in calls.go runs a program. A declaration without a parameter list
// that is reached through a function-pointer slot borrows the slot
// type's parameter names; substProg compiles that variant on first use
// and memoizes it on the declaration.
package core

import (
	"fmt"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
)

// compiledCond is one flattened if-condition. src is kept only for the
// cold violation path's error message.
type compiledCond struct {
	prog annot.ExprProg
	src  *annot.Expr
}

// actionStep is one compiled action: the opcode-program form of
// annot.Action with every bind-time-resolvable reference resolved.
type actionStep struct {
	op annot.Op // Copy, Transfer, Check, or Revoke (If is flattened into conds)

	// conds must all evaluate nonzero for the step to run (a flattened
	// `if (a) if (b) action` chain, evaluated in order and stopping at
	// the first zero).
	conds []compiledCond

	// src is the source caplist, used only in cold-path error text.
	src *annot.CapList

	// Inline caplist form:
	kind    annot.CapKind
	refType string
	refTag  uint64 // packed check-cache tag for REF verdicts (0 = uncacheable)
	ptr     annot.ExprProg
	size    annot.ExprProg
	hasSize bool
	// sizeof(*ptr) resolution when the size expression is omitted:
	// sizeofVal is the layout size resolved at compile time; when 0,
	// sizeofType (the named parameter's declared C type) is resolved
	// against the layout registry at run time, for layouts defined
	// after registration.
	sizeofType string
	sizeofVal  uint64

	// Iterator form (iterName != "" selects it): iter is the function
	// resolved at compile time, nil when the iterator was registered
	// later (run time then resolves it by name).
	iterName string
	iter     IterFunc
	iterArgs []annot.ExprProg
}

// isIterator reports whether the step is an iterator-func caplist.
func (st *actionStep) isIterator() bool { return st.iterName != "" }

// annotProg is the compiled form of one annot.Set for a specific
// parameter list.
type annotProg struct {
	pre, post []actionStep
	prinKind  annot.PrincipalKind
	prinProg  annot.ExprProg
	prinSrc   *annot.Expr
}

// bindEnv is the compile environment for bind-time lowering:
// parameter names resolve to argument indices, and registered
// constants fold to literals once the constant table has frozen at
// the first module load.
type bindEnv struct {
	params []Param
	sys    *System
}

// ParamIndex implements annot.CompileEnv.
func (e bindEnv) ParamIndex(name string) (int, bool) {
	for i, prm := range e.params {
		if prm.Name == name {
			return i, true
		}
	}
	return 0, false
}

// ConstValue implements annot.ConstEnv. It resolves nothing before the
// freeze: a pre-freeze RegisterConst may still rebind the name, so
// programs compiled that early (kernel exports registered at boot)
// keep runtime constant resolution.
func (e bindEnv) ConstValue(name string) (int64, bool) {
	if !e.sys.constsFrozen.Load() {
		return 0, false
	}
	return e.sys.Const(name)
}

// compileAnnot lowers set into an action program against params; a
// nil set (an unannotated kernel function) yields nil. The parser never
// produces a set that fails to compile, so a compile error is a broken
// invariant and panics at registration, like a parse error.
func (s *System) compileAnnot(name string, params []Param, set *annot.Set) *annotProg {
	if set == nil {
		return nil
	}
	cenv := bindEnv{params: params, sys: s}
	prog := &annotProg{prinKind: set.Principal.Kind}
	var err error
	if set.Principal.Kind == annot.PrincipalExpr {
		prog.prinProg, err = annot.Compile(set.Principal.Expr, cenv)
		prog.prinSrc = set.Principal.Expr
	}
	if err == nil {
		prog.pre, err = s.compileActions(set.Pre, cenv, params)
	}
	if err == nil {
		prog.post, err = s.compileActions(set.Post, cenv, params)
	}
	if err != nil {
		panic(fmt.Sprintf("core: annotation for %s does not compile: %v", name, err))
	}
	return prog
}

// substEntry is a declaration's annotation set compiled against the
// parameter list of the slot type ft it was reached through.
type substEntry struct {
	ft   *FPtrType
	prog *annotProg
}

// substProg returns the program of fn, a declaration without a
// parameter list, reached through a function-pointer slot of type ft.
// Such a declaration names its arguments by the slot type's parameters,
// so its set is compiled against ft.Params. The last such program is
// memoized on fn: a declaration is normally reached through one slot
// type, and threads that alternate types only recompile.
func (s *System) substProg(fn *FuncDecl, ft *FPtrType) *annotProg {
	if e := fn.subst.Load(); e != nil && e.ft == ft {
		return e.prog
	}
	e := &substEntry{ft: ft, prog: s.compileAnnot(fn.Name, ft.Params, fn.Annot)}
	fn.subst.Store(e)
	return e.prog
}

func (s *System) compileActions(actions []*annot.Action, cenv annot.CompileEnv, params []Param) ([]actionStep, error) {
	if len(actions) == 0 {
		return nil, nil
	}
	steps := make([]actionStep, 0, len(actions))
	for _, a := range actions {
		st, err := s.compileStep(a, cenv, params)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func (s *System) compileStep(a *annot.Action, cenv annot.CompileEnv, params []Param) (actionStep, error) {
	var st actionStep
	for a != nil && a.Op == annot.If {
		prog, err := annot.Compile(a.Cond, cenv)
		if err != nil {
			return st, err
		}
		st.conds = append(st.conds, compiledCond{prog: prog, src: a.Cond})
		a = a.Then
	}
	if a == nil || a.Caps == nil {
		return st, fmt.Errorf("core: action without a capability list")
	}
	st.op = a.Op
	cl := a.Caps
	st.src = cl
	if cl.IsIterator() {
		st.iterName = cl.Iter
		st.iter, _ = s.iterator(cl.Iter)
		st.iterArgs = make([]annot.ExprProg, 0, len(cl.IterArgs))
		for _, e := range cl.IterArgs {
			p, err := annot.Compile(e, cenv)
			if err != nil {
				return st, err
			}
			st.iterArgs = append(st.iterArgs, p)
		}
		return st, nil
	}
	st.kind = cl.Kind
	ptr, err := annot.Compile(cl.Ptr, cenv)
	if err != nil {
		return st, err
	}
	st.ptr = ptr
	switch cl.Kind {
	case annot.CapRef:
		st.refType = cl.RefType
		st.refTag = s.refTypeTag(cl.RefType)
	case annot.CapWrite:
		if cl.Size != nil {
			sz, err := annot.Compile(cl.Size, cenv)
			if err != nil {
				return st, err
			}
			st.size, st.hasSize = sz, true
		} else if cl.Ptr.Ident != "" {
			for _, p := range params {
				if p.Name == cl.Ptr.Ident {
					st.sizeofType = p.Type
					break
				}
			}
			if st.sizeofType != "" {
				if v, ok := s.sizeofType(st.sizeofType); ok {
					st.sizeofVal = v
				}
			}
		}
	}
	return st, nil
}

// refTypeTag interns a REF type name and returns its packed check-cache
// tag: a process-unique nonzero ID below the kind shift, or'd with the
// Ref kind bits. Tag equality therefore implies RefType string
// equality, which is what makes cached REF verdicts sound. Bind-time
// only; the hot path carries the tag in its actionStep.
func (s *System) refTypeTag(typ string) uint64 {
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if s.refIDs == nil {
		s.refIDs = make(map[string]uint64)
	}
	id, ok := s.refIDs[typ]
	if !ok {
		id = uint64(len(s.refIDs)) + 1
		s.refIDs[typ] = id
	}
	return id | uint64(caps.Ref)<<sizeKindShift
}
