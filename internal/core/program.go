// Bind-time compilation of annotation sets into action programs.
//
// The paper's loader compiles annotations into checking wrappers once,
// at module load (§4.2); calls then run the compiled checks. This file
// is that compile step for the simulation: when a function is
// registered, its annot.Set is lowered into an annotProg — a flat slice
// of fixed-size actionSteps whose expressions are opcode programs
// (annot.ExprProg) with parameter names resolved to argument indices
// and registered constants folded, whose iterators, sizeof(*p) layouts
// and REF cache tags are resolved, and whose if-chains are flattened
// into per-step condition lists. A name that does not bind fails the
// registration, as a parse error does. Every crossing in calls.go, and
// every dry run in diff.go, runs a program through runProgram. A
// declaration without a parameter list that is reached through a
// function-pointer slot borrows the slot type's parameter names;
// substProg compiles that variant on first use and memoizes it on the
// declaration.
package core

import (
	"fmt"
	"strings"

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

	// Inline caplist form. A WRITE caplist without a size expression
	// gets sizeof(*ptr) folded into size as a literal.
	kind    annot.CapKind
	refType string
	refTag  uint64 // packed check-cache tag for REF verdicts (0 = uncacheable)
	ptr     annot.ExprProg
	size    annot.ExprProg

	// Iterator form (iter != nil selects it).
	iter     IterFunc
	iterArgs []annot.ExprProg
}

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
// constants fold to literals (RegisterConst never rebinds one). A name
// bound to neither keeps its run-time lookup.
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

// ConstValue implements annot.ConstEnv.
func (e bindEnv) ConstValue(name string) (int64, bool) {
	return e.sys.Const(name)
}

// compileAnnot lowers set into an action program against params; a
// nil set (an unannotated kernel function) yields nil. Every name the
// set uses binds here: a capability iterator that is not registered,
// or a sizeof(*p) whose layout is not defined, fails the compile.
func (s *System) compileAnnot(params []Param, set *annot.Set) (*annotProg, error) {
	if set == nil {
		return nil, nil
	}
	cenv := bindEnv{params: params, sys: s}
	prog := &annotProg{prinKind: set.Principal.Kind}
	var err error
	if set.Principal.Kind == annot.PrincipalExpr {
		prog.prinProg, err = annot.Compile(set.Principal.Expr, cenv)
		prog.prinSrc = set.Principal.Expr
	}
	if err == nil {
		prog.pre, err = s.compileActions(set.Pre, cenv)
	}
	if err == nil {
		prog.post, err = s.compileActions(set.Post, cenv)
	}
	return prog, err
}

// mustCompileAnnot is compileAnnot for a set that is already bound
// into the system (a kernel export at registration, a slot type at
// use): a compile error there panics, like a parse error.
func (s *System) mustCompileAnnot(name string, params []Param, set *annot.Set) *annotProg {
	prog, err := s.compileAnnot(params, set)
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
	e := &substEntry{ft: ft, prog: s.mustCompileAnnot(fn.Name, ft.Params, fn.Annot)}
	fn.subst.Store(e)
	return e.prog
}

func (s *System) compileActions(actions []*annot.Action, cenv bindEnv) ([]actionStep, error) {
	if len(actions) == 0 {
		return nil, nil
	}
	steps := make([]actionStep, 0, len(actions))
	for _, a := range actions {
		st, err := s.compileStep(a, cenv)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func (s *System) compileStep(a *annot.Action, cenv bindEnv) (actionStep, error) {
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
	if cl.IsIterator() {
		var ok bool
		if st.iter, ok = s.iterator(cl.Iter); !ok {
			return st, fmt.Errorf("core: unknown capability iterator %q", cl.Iter)
		}
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
			st.size = sz
		} else {
			size, ok := s.sizeofParam(cenv.params, cl.Ptr.Ident)
			if !ok {
				return st, fmt.Errorf("core: cannot resolve sizeof for %q", cl.Ptr)
			}
			n := int64(size)
			st.size, _ = annot.Compile(&annot.Expr{Num: &n}, cenv)
		}
	}
	return st, nil
}

// sizeofParam resolves sizeof(*name) for the parameter name from its
// declared C type: "struct sk_buff *" -> the size of struct sk_buff in
// the layout registry.
func (s *System) sizeofParam(params []Param, name string) (uint64, bool) {
	for _, p := range params {
		if p.Name == name {
			typ := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p.Type), "*"))
			return s.Layouts.Sizeof(typ)
		}
	}
	return 0, false
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
