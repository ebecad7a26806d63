// Package annot implements LXFI's annotation language (Fig. 2 of the
// paper):
//
//	annotation ::= pre(action) | post(action) | principal(c-expr)
//	action     ::= copy(caplist) | transfer(caplist) | check(caplist)
//	             | revoke(caplist) | if (c-expr) action
//	caplist    ::= (c, ptr, [size]) | iterator-func(c-expr)
//
// where c is one of write, call, or ref(<type>). The special principal
// names "global" and "shared" select the module's global and shared
// principals.
//
// Annotations are attached (in the original system, as clang attributes)
// to function declarations and function-pointer types. The package also
// provides the stable annotation hash used by lxfi_check_indcall to
// verify that a module has not laundered a function through a
// function-pointer type with different annotations (§4.1).
package annot

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
)

// Op is an action operator.
type Op uint8

// Action operators from the grammar.
const (
	Copy Op = iota
	Transfer
	Check
	If
	// Revoke strips the listed capabilities from every principal in the
	// system without granting them anywhere. It is the failure-path
	// counterpart of transfer: when a callee was handed a capability and
	// the call did not complete its contract (e.g. readpage returning an
	// error), revoke ensures no module retains access to an object the
	// kernel is about to recycle.
	Revoke
)

func (o Op) String() string {
	switch o {
	case Copy:
		return "copy"
	case Transfer:
		return "transfer"
	case Check:
		return "check"
	case If:
		return "if"
	case Revoke:
		return "revoke"
	}
	return "?"
}

// CapKind mirrors caps.Kind without importing it (annot stays a leaf
// package usable by the compile-time tooling).
type CapKind uint8

// Capability kinds in caplists.
const (
	CapWrite CapKind = iota
	CapRef
	CapCall
)

func (k CapKind) String() string {
	switch k {
	case CapWrite:
		return "write"
	case CapRef:
		return "ref"
	case CapCall:
		return "call"
	}
	return "?"
}

// CapList is either an inline capability spec or an iterator-func call.
type CapList struct {
	// Inline form:
	Kind    CapKind
	RefType string // for CapRef
	Ptr     *Expr
	Size    *Expr // nil means "sizeof(*ptr)", resolved by the runtime

	// Iterator form (exclusive with the above; Iter != "" selects it):
	Iter     string
	IterArgs []*Expr
}

// IsIterator reports whether the caplist is an iterator-func call.
func (c *CapList) IsIterator() bool { return c.Iter != "" }

func (c *CapList) String() string {
	if c.IsIterator() {
		args := make([]string, len(c.IterArgs))
		for i, a := range c.IterArgs {
			args[i] = a.String()
		}
		return c.Iter + "(" + strings.Join(args, ", ") + ")"
	}
	kind := c.Kind.String()
	if c.Kind == CapRef {
		kind = "ref(" + c.RefType + ")"
	}
	s := kind + ", " + c.Ptr.String()
	if c.Size != nil {
		s += ", " + c.Size.String()
	}
	return s
}

// Action is one action from the grammar.
type Action struct {
	Op   Op
	Caps *CapList // for copy/transfer/check
	Cond *Expr    // for if
	Then *Action  // for if
}

func (a *Action) String() string {
	if a.Op == If {
		return "if (" + a.Cond.String() + ") " + a.Then.String()
	}
	return a.Op.String() + "(" + a.Caps.String() + ")"
}

// PrincipalKind selects how the callee principal is named.
type PrincipalKind uint8

// Principal annotation kinds.
const (
	// PrincipalDefault: no principal annotation; the module's shared
	// principal is used (Fig. 3, last row).
	PrincipalDefault PrincipalKind = iota
	// PrincipalExpr: the principal is named by the pointer value of the
	// given expression over the function's arguments.
	PrincipalExpr
	// PrincipalGlobal selects the module's global principal.
	PrincipalGlobal
	// PrincipalShared selects the module's shared principal explicitly.
	PrincipalShared
)

// Principal is a parsed principal(...) annotation.
type Principal struct {
	Kind PrincipalKind
	Expr *Expr // for PrincipalExpr
}

func (p *Principal) String() string {
	switch p.Kind {
	case PrincipalExpr:
		return "principal(" + p.Expr.String() + ")"
	case PrincipalGlobal:
		return "principal(global)"
	case PrincipalShared:
		return "principal(shared)"
	}
	return ""
}

// Set is the full annotation set of one function or function-pointer
// type: an optional principal spec plus ordered pre and post actions. A
// set is immutable once parsed.
type Set struct {
	Principal Principal
	Pre       []*Action
	Post      []*Action

	hash atomic.Uint64 // memoized Hash; 0 until first computed
}

// Empty reports whether the set carries no annotations at all.
func (s *Set) Empty() bool {
	return s == nil || (s.Principal.Kind == PrincipalDefault && len(s.Pre) == 0 && len(s.Post) == 0)
}

// String renders the set canonically; two sets with equal String() have
// equal Hash().
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if p := s.Principal.String(); p != "" {
		parts = append(parts, p)
	}
	for _, a := range s.Pre {
		parts = append(parts, "pre("+a.String()+")")
	}
	for _, a := range s.Post {
		parts = append(parts, "post("+a.String()+")")
	}
	return strings.Join(parts, " ")
}

// Hash returns the stable annotation hash ("ahash" in §4.1) used to
// compare a function's annotations against a function-pointer type's
// annotations at indirect call sites. It is computed on first use and
// memoized, so the indirect-call checks pay one load per set.
func (s *Set) Hash() uint64 {
	if s == nil {
		return hashString("")
	}
	if h := s.hash.Load(); h != 0 {
		return h
	}
	h := hashString(s.String())
	s.hash.Store(h)
	return h
}

func hashString(str string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(str))
	return h.Sum64()
}

// Idents returns every identifier referenced anywhere in the set.
func (s *Set) Idents() []string {
	var out []string
	if s == nil {
		return out
	}
	if s.Principal.Kind == PrincipalExpr {
		out = s.Principal.Expr.Idents(out)
	}
	var walk func(a *Action)
	walk = func(a *Action) {
		if a == nil {
			return
		}
		if a.Op == If {
			out = a.Cond.Idents(out)
			walk(a.Then)
			return
		}
		c := a.Caps
		if c.IsIterator() {
			for _, e := range c.IterArgs {
				out = e.Idents(out)
			}
			return
		}
		out = c.Ptr.Idents(out)
		if c.Size != nil {
			out = c.Size.Idents(out)
		}
	}
	for _, a := range s.Pre {
		walk(a)
	}
	for _, a := range s.Post {
		walk(a)
	}
	return out
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNum
	tokOp
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokKind
	val  string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentCont(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case c >= '0' && c <= '9':
			j := i
			if c == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
				j += 2
				for j < len(src) && isHex(src[j]) {
					j++
				}
			} else {
				for j < len(src) && src[j] >= '0' && src[j] <= '9' {
					j++
				}
			}
			toks = append(toks, token{tokNum, src[i:j], i})
			i = j
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||":
				toks = append(toks, token{tokOp, two, i})
				i += 2
				continue
			}
			switch c {
			case '<', '>', '+', '-', '*', '&', '|', '!', '~':
				toks = append(toks, token{tokOp, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("annot: illegal character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }
func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// --- parser ---

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) error {
	t := p.next()
	if t.kind != k {
		return fmt.Errorf("annot: expected %s at offset %d, got %q", what, t.pos, t.val)
	}
	return nil
}

// Parse parses a whitespace-separated sequence of annotations into a
// Set. An empty string yields an empty (but non-nil) Set.
func Parse(src string) (*Set, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	set := &Set{}
	for p.peek().kind != tokEOF {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("annot: expected annotation keyword at offset %d, got %q", t.pos, t.val)
		}
		switch t.val {
		case "pre", "post":
			if err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			a, err := p.parseAction()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			if t.val == "pre" {
				set.Pre = append(set.Pre, a)
			} else {
				set.Post = append(set.Post, a)
			}
		case "principal":
			if set.Principal.Kind != PrincipalDefault {
				return nil, fmt.Errorf("annot: duplicate principal annotation")
			}
			if err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			switch pt := p.peek(); {
			case pt.kind == tokIdent && pt.val == "global":
				p.next()
				set.Principal = Principal{Kind: PrincipalGlobal}
			case pt.kind == tokIdent && pt.val == "shared":
				p.next()
				set.Principal = Principal{Kind: PrincipalShared}
			default:
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				set.Principal = Principal{Kind: PrincipalExpr, Expr: e}
			}
			if err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("annot: unknown annotation %q at offset %d", t.val, t.pos)
		}
	}
	return set, nil
}

// MustParse is Parse that panics on error; for static annotation tables.
func MustParse(src string) *Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func (p *parser) parseAction() (*Action, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("annot: expected action at offset %d, got %q", t.pos, t.val)
	}
	switch t.val {
	case "copy", "transfer", "check", "revoke":
		op := map[string]Op{"copy": Copy, "transfer": Transfer, "check": Check, "revoke": Revoke}[t.val]
		if err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		cl, err := p.parseCapList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return &Action{Op: op, Caps: cl}, nil
	case "if":
		if err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		then, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		return &Action{Op: If, Cond: cond, Then: then}, nil
	}
	return nil, fmt.Errorf("annot: unknown action %q at offset %d", t.val, t.pos)
}

func (p *parser) parseCapList() (*CapList, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("annot: expected caplist at offset %d, got %q", t.pos, t.val)
	}
	switch t.val {
	case "write", "call":
		p.next()
		kind := CapWrite
		if t.val == "call" {
			kind = CapCall
		}
		if err := p.expect(tokComma, ","); err != nil {
			return nil, err
		}
		return p.finishInline(&CapList{Kind: kind})
	case "ref":
		p.next()
		if err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		typ, err := p.parseRefType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokComma, ","); err != nil {
			return nil, err
		}
		return p.finishInline(&CapList{Kind: CapRef, RefType: typ})
	default:
		// iterator-func(args...)
		name := p.next().val
		if err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var args []*Expr
		if p.peek().kind != tokRParen {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if p.peek().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return nil, fmt.Errorf("annot: iterator %q needs at least one argument", name)
		}
		return &CapList{Iter: name, IterArgs: args}, nil
	}
}

// parseRefType consumes tokens until the closing paren of ref(...),
// allowing multi-token C type names like "struct pci_dev".
func (p *parser) parseRefType() (string, error) {
	var words []string
	for {
		t := p.peek()
		switch t.kind {
		case tokIdent, tokNum:
			words = append(words, t.val)
			p.next()
		case tokOp:
			if t.val == "*" { // pointer types
				words = append(words, "*")
				p.next()
				continue
			}
			return "", fmt.Errorf("annot: bad token %q in ref type", t.val)
		case tokRParen:
			if len(words) == 0 {
				return "", fmt.Errorf("annot: empty ref type")
			}
			p.next()
			return strings.Join(words, " "), nil
		default:
			return "", fmt.Errorf("annot: bad token %q in ref type", t.val)
		}
	}
}

func (p *parser) finishInline(cl *CapList) (*CapList, error) {
	ptr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	cl.Ptr = ptr
	if p.peek().kind == tokComma {
		p.next()
		size, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cl.Size = size
	}
	return cl, nil
}
