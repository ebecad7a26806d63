package annot

import "fmt"

// This file is the bind-time half of the annotation language: a
// compiler from the parsed expression trees of expr.go to flat opcode
// programs. The paper compiles annotations into checking wrappers when
// a module is loaded (§4.2); here the same move turns every c-expr
// that a crossing would otherwise re-interpret — principal selectors,
// capability pointers and sizes, if-conditions — into a small stack
// program with parameter references resolved to argument indices, so
// the per-crossing cost is a tight opcode loop instead of a recursive
// tree walk with by-name parameter lookups.
//
// Semantics are bit-identical to Expr.Eval: signed 64-bit arithmetic,
// short-circuit && and || (compiled to conditional jumps), and the
// same identifier resolution order (argument, then registered
// constant) with the same error text on unbound names. Constants fold
// to literal pushes when the compile environment exposes a bind-time
// table (ConstEnv) — core folds every constant registered before the
// program compiles, since a registered constant never rebinds — and
// stay runtime-resolved (opConst) otherwise, or when the name is not
// bound yet at compile time. Programs are the only
// evaluator on the crossing path; Expr.Eval stays as the oracle that
// the fuzz target FuzzExprProgram holds them equal to, and that target
// also fails on any parser-produced expression that will not compile.

// Expression opcodes. The machine is a pure stack machine: value ops
// push one result, binary ops pop two and push one, jump ops implement
// the short-circuit logicals.
const (
	opLit    uint8 = iota // push K
	opArg                 // push args[A]; unbound → const Names[K]; else error
	opConst               // push const(Names[A]); unbound → error
	opRet                 // push return value; unbound → const "return"; else error
	opNeg                 // arithmetic negate
	opNot                 // logical not
	opBitNot              // bitwise complement
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opBitAnd
	opBitOr
	opBool     // pop v, push v != 0
	opJzPush0  // pop v; if v == 0 push 0 and jump to A (short-circuit &&)
	opJnzPush1 // pop v; if v != 0 push 1 and jump to A (short-circuit ||)
)

// ExprOp is one fixed-size instruction.
type ExprOp struct {
	Code uint8
	A    int32 // argument index, name index, or jump target
	K    int64 // literal value; name index for opArg's constant fallback
}

// ExprProg is a compiled expression. The zero value is an empty
// program (IsZero reports it); evaluating one is an error, mirroring
// Expr.Eval on a nil expression.
type ExprProg struct {
	Ops []ExprOp
	// Names holds identifiers that still need runtime resolution
	// (constants, and the fallback name of every argument reference).
	Names []string
	// Depth is the maximum operand-stack depth the program reaches;
	// Eval sizes its stack from it.
	Depth int
}

// IsZero reports whether the program is empty (nothing was compiled).
func (p *ExprProg) IsZero() bool { return len(p.Ops) == 0 }

// CompileEnv resolves parameter names to argument indices at compile
// time. Names it does not know stay runtime-resolved constants, the
// same fallback order Expr.Eval uses.
type CompileEnv interface {
	ParamIndex(name string) (int, bool)
}

// ConstEnv is an optional extension of CompileEnv: a bind-time
// constant table. Identifiers that resolve here (after the parameter
// check) compile to literal pushes instead of runtime opConst lookups.
// Only sound when the caller guarantees the table can no longer rebind
// a resolved name to a different value.
type ConstEnv interface {
	ConstValue(name string) (int64, bool)
}

// ParamsEnv is a CompileEnv over an ordered parameter-name list.
type ParamsEnv []string

// ParamIndex implements CompileEnv.
func (p ParamsEnv) ParamIndex(name string) (int, bool) {
	for i, n := range p {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// RunEnv supplies runtime values to a compiled program: positional
// arguments, the return value (post actions only), and registered
// constants.
type RunEnv interface {
	// ProgArg returns the value of argument i, false when the call
	// supplied fewer arguments.
	ProgArg(i int) (int64, bool)
	// ProgRet returns the call's return value, false in pre phase.
	ProgRet() (int64, bool)
	// Const resolves a symbolic constant.
	Const(name string) (int64, bool)
}

// compiler accumulates ops and tracks stack depth.
type compiler struct {
	prog  ExprProg
	depth int
}

func (c *compiler) emit(op ExprOp, delta int) {
	c.prog.Ops = append(c.prog.Ops, op)
	c.depth += delta
	if c.depth > c.prog.Depth {
		c.prog.Depth = c.depth
	}
}

func (c *compiler) name(s string) int32 {
	for i, n := range c.prog.Names {
		if n == s {
			return int32(i)
		}
	}
	c.prog.Names = append(c.prog.Names, s)
	return int32(len(c.prog.Names) - 1)
}

// Compile translates e into an opcode program whose identifier
// references are resolved against env. Shapes Expr.Eval would reject
// at runtime (nil or empty nodes, unknown operators) are compile
// errors here; the parser never produces them.
func Compile(e *Expr, env CompileEnv) (ExprProg, error) {
	var c compiler
	if err := c.compile(e, env); err != nil {
		return ExprProg{}, err
	}
	return c.prog, nil
}

func (c *compiler) compile(e *Expr, env CompileEnv) error {
	switch {
	case e == nil:
		return fmt.Errorf("annot: nil expression")
	case e.Num != nil:
		c.emit(ExprOp{Code: opLit, K: *e.Num}, 1)
		return nil
	case e.Ident != "":
		if e.Ident == "return" {
			c.emit(ExprOp{Code: opRet, K: int64(c.name("return"))}, 1)
			return nil
		}
		if idx, ok := env.ParamIndex(e.Ident); ok {
			c.emit(ExprOp{Code: opArg, A: int32(idx), K: int64(c.name(e.Ident))}, 1)
			return nil
		}
		if ce, ok := env.(ConstEnv); ok {
			if v, ok := ce.ConstValue(e.Ident); ok {
				c.emit(ExprOp{Code: opLit, K: v}, 1)
				return nil
			}
		}
		c.emit(ExprOp{Code: opConst, A: c.name(e.Ident)}, 1)
		return nil
	case e.Un != nil:
		if err := c.compile(e.Un.X, env); err != nil {
			return err
		}
		var code uint8
		switch e.Un.Op {
		case "-":
			code = opNeg
		case "!":
			code = opNot
		case "~":
			code = opBitNot
		default:
			return fmt.Errorf("annot: bad unary op %q", e.Un.Op)
		}
		c.emit(ExprOp{Code: code}, 0)
		return nil
	case e.Bin != nil:
		// Short-circuit logicals become conditional jumps: the branch
		// that skips the right operand pushes the settled result, so
		// both paths meet the join with one value on the stack.
		if e.Bin.Op == "&&" || e.Bin.Op == "||" {
			if err := c.compile(e.Bin.L, env); err != nil {
				return err
			}
			code := uint8(opJzPush0)
			if e.Bin.Op == "||" {
				code = opJnzPush1
			}
			jmp := len(c.prog.Ops)
			c.emit(ExprOp{Code: code}, -1)
			if err := c.compile(e.Bin.R, env); err != nil {
				return err
			}
			c.emit(ExprOp{Code: opBool}, 0)
			c.prog.Ops[jmp].A = int32(len(c.prog.Ops))
			return nil
		}
		if err := c.compile(e.Bin.L, env); err != nil {
			return err
		}
		if err := c.compile(e.Bin.R, env); err != nil {
			return err
		}
		var code uint8
		switch e.Bin.Op {
		case "==":
			code = opEq
		case "!=":
			code = opNe
		case "<":
			code = opLt
		case "<=":
			code = opLe
		case ">":
			code = opGt
		case ">=":
			code = opGe
		case "+":
			code = opAdd
		case "-":
			code = opSub
		case "*":
			code = opMul
		case "&":
			code = opBitAnd
		case "|":
			code = opBitOr
		default:
			return fmt.Errorf("annot: bad binary op %q", e.Bin.Op)
		}
		c.emit(ExprOp{Code: code}, -1)
		return nil
	}
	return fmt.Errorf("annot: empty expression")
}

// evalStackSize is the operand stack kept on the Go stack; real
// annotation expressions stay well under it, and deeper programs fall
// back to one allocation.
const evalStackSize = 16

// Eval runs the program. The hot crossing paths call this with a
// pooled env; a program whose Depth fits evalStackSize performs no
// allocation.
func (p *ExprProg) Eval(env RunEnv) (int64, error) {
	if len(p.Ops) == 0 {
		return 0, fmt.Errorf("annot: nil expression")
	}
	var stackArr [evalStackSize]int64
	stack := stackArr[:0]
	if p.Depth > evalStackSize {
		stack = make([]int64, 0, p.Depth)
	}
	i := 0
	for i < len(p.Ops) {
		op := &p.Ops[i]
		i++
		switch op.Code {
		case opLit:
			stack = append(stack, op.K)
		case opArg:
			if v, ok := env.ProgArg(int(op.A)); ok {
				stack = append(stack, v)
				continue
			}
			name := p.Names[op.K]
			if v, ok := env.Const(name); ok {
				stack = append(stack, v)
				continue
			}
			return 0, fmt.Errorf("annot: unbound identifier %q", name)
		case opConst:
			name := p.Names[op.A]
			if v, ok := env.Const(name); ok {
				stack = append(stack, v)
				continue
			}
			return 0, fmt.Errorf("annot: unbound identifier %q", name)
		case opRet:
			if v, ok := env.ProgRet(); ok {
				stack = append(stack, v)
				continue
			}
			if v, ok := env.Const("return"); ok {
				stack = append(stack, v)
				continue
			}
			return 0, fmt.Errorf("annot: unbound identifier %q", "return")
		case opNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
		case opNot:
			stack[len(stack)-1] = b2i(stack[len(stack)-1] == 0)
		case opBitNot:
			stack[len(stack)-1] = ^stack[len(stack)-1]
		case opBool:
			stack[len(stack)-1] = b2i(stack[len(stack)-1] != 0)
		case opJzPush0:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == 0 {
				stack = append(stack, 0)
				i = int(op.A)
			}
		case opJnzPush1:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v != 0 {
				stack = append(stack, 1)
				i = int(op.A)
			}
		default:
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var v int64
			switch op.Code {
			case opEq:
				v = b2i(l == r)
			case opNe:
				v = b2i(l != r)
			case opLt:
				v = b2i(l < r)
			case opLe:
				v = b2i(l <= r)
			case opGt:
				v = b2i(l > r)
			case opGe:
				v = b2i(l >= r)
			case opAdd:
				v = l + r
			case opSub:
				v = l - r
			case opMul:
				v = l * r
			case opBitAnd:
				v = l & r
			case opBitOr:
				v = l | r
			default:
				return 0, fmt.Errorf("annot: bad opcode %d", op.Code)
			}
			stack[len(stack)-1] = v
		}
	}
	return stack[len(stack)-1], nil
}
