package annot

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePaperExamples(t *testing.T) {
	// Every annotation form that appears in Fig. 3 and Fig. 4 of the
	// paper must parse.
	srcs := []string{
		"pre(copy(write, ptr, size))",
		"post(copy(write, ptr))",
		"pre(transfer(write, ptr, size))",
		"post(transfer(write, ptr, size))",
		"pre(check(write, ptr, size))",
		"pre(check(skb_iter(ptr)))",
		"pre(if (flags == 1) copy(write, buf, n))",
		"post(if (return < 0) transfer(ref(struct pci_dev), pcidev))",
		"principal(p)",
		"principal(global)",
		"principal(shared)",
		"principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) " +
			"post(if (return < 0) transfer(ref(struct pci_dev), pcidev))",
		"principal(dev) pre(transfer(skb_caps(skb))) " +
			"post(if (return == NETDEV_TX_BUSY) transfer(skb_caps(skb)))",
		"pre(check(ref(struct pci_dev), pcidev))",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	srcs := []string{
		"pre",
		"pre()",
		"pre(copy(write))",
		"pre(copy(bogus, x))(",
		"pre(grant(write, x, 1))",
		"post(if (x) )",
		"frob(x)",
		"pre(check(ref(), x))",
		"principal(x) principal(y)",
		"pre(copy(write, x, 1)) @",
		"pre(check(iter()))",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestEmptySet(t *testing.T) {
	s, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatal("empty source should give empty set")
	}
	var nilSet *Set
	if !nilSet.Empty() {
		t.Fatal("nil set is empty")
	}
	if nilSet.String() != "" {
		t.Fatal("nil set string")
	}
}

func TestSetStructure(t *testing.T) {
	s := MustParse("principal(dev) pre(transfer(skb_caps(skb))) " +
		"post(if (return == NETDEV_TX_BUSY) transfer(skb_caps(skb)))")
	if s.Principal.Kind != PrincipalExpr || s.Principal.Expr.Ident != "dev" {
		t.Fatalf("principal = %+v", s.Principal)
	}
	if len(s.Pre) != 1 || len(s.Post) != 1 {
		t.Fatalf("pre/post = %d/%d", len(s.Pre), len(s.Post))
	}
	pre := s.Pre[0]
	if pre.Op != Transfer || !pre.Caps.IsIterator() || pre.Caps.Iter != "skb_caps" {
		t.Fatalf("pre = %v", pre)
	}
	post := s.Post[0]
	if post.Op != If || post.Then.Op != Transfer {
		t.Fatalf("post = %v", post)
	}
}

func TestParseRevoke(t *testing.T) {
	s := MustParse("pre(transfer(page_caps(page))) " +
		"post(if (return == 0) transfer(page_caps(page))) " +
		"post(if (return != 0) revoke(page_caps(page)))")
	if len(s.Post) != 2 {
		t.Fatalf("post actions = %d", len(s.Post))
	}
	fail := s.Post[1]
	if fail.Op != If || fail.Then.Op != Revoke {
		t.Fatalf("failure post = %v", fail)
	}
	if got := fail.Then.String(); got != "revoke(page_caps(page))" {
		t.Fatalf("String() = %q", got)
	}
	// revoke must round-trip through the canonical form (hash stability).
	if _, err := Parse(s.String()); err != nil {
		t.Fatalf("reparse %q: %v", s.String(), err)
	}
}

func TestRefTypeMultiWord(t *testing.T) {
	s := MustParse("pre(check(ref(struct pci_dev), pcidev))")
	cl := s.Pre[0].Caps
	if cl.Kind != CapRef || cl.RefType != "struct pci_dev" {
		t.Fatalf("caplist = %+v", cl)
	}
	s = MustParse("pre(check(ref(io port), port))")
	if s.Pre[0].Caps.RefType != "io port" {
		t.Fatalf("ref type = %q", s.Pre[0].Caps.RefType)
	}
}

func TestEval(t *testing.T) {
	env := MapEnv{
		Args:   map[string]int64{"x": 5, "y": -3, "return": -22},
		Consts: map[string]int64{"EINVAL": 22},
	}
	cases := map[string]int64{
		"x":                 5,
		"-y":                3,
		"x + y":             2,
		"x * 2 + 1":         11,
		"x < 6":             1,
		"x < 5":             0,
		"x <= 5":            1,
		"x == 5 && y == -3": 1,
		"x == 5 && y == 0":  0,
		"x == 4 || y == -3": 1,
		"!x":                0,
		"!(x == 4)":         1,
		"~0":                -1,
		"return < 0":        1,
		"return == -EINVAL": 1,
		"0x10 + 2":          18,
		"x & 1 | 2":         3,
		"(x + y) * 2":       4,
		"x - -y":            2,
	}
	for src, want := range cases {
		toks, err := lex(src)
		if err != nil {
			t.Fatalf("lex(%q): %v", src, err)
		}
		p := &parser{toks: toks}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatalf("parse(%q): %v", src, err)
		}
		got, err := e.Eval(env)
		if err != nil {
			t.Fatalf("eval(%q): %v", src, err)
		}
		if got != want {
			t.Errorf("eval(%q) = %d, want %d", src, got, want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right side of && / || must not be evaluated when the left side
	// decides: "undef" is unbound and would error.
	env := MapEnv{Args: map[string]int64{"x": 0}}
	for src, want := range map[string]int64{
		"x && undef":      0,
		"x == 0 || undef": 1,
	} {
		toks, _ := lex(src)
		p := &parser{toks: toks}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Eval(env)
		if err != nil {
			t.Fatalf("eval(%q): %v", src, err)
		}
		if got != want {
			t.Errorf("eval(%q) = %d want %d", src, got, want)
		}
	}
}

func TestEvalUnbound(t *testing.T) {
	toks, _ := lex("nosuch + 1")
	p := &parser{toks: toks}
	e, _ := p.parseExpr()
	if _, err := e.Eval(MapEnv{}); err == nil {
		t.Fatal("unbound identifier should error")
	}
}

func TestHashStability(t *testing.T) {
	a := MustParse("pre(copy(write, ptr, size)) post(if (return < 0) transfer(write, ptr, size))")
	b := MustParse("pre( copy( write , ptr , size ) )   post(if(return<0) transfer(write, ptr, size))")
	if a.Hash() != b.Hash() {
		t.Fatalf("whitespace changed hash: %q vs %q", a, b)
	}
	c := MustParse("pre(copy(write, ptr, size)) post(if (return < 1) transfer(write, ptr, size))")
	if a.Hash() == c.Hash() {
		t.Fatal("different annotations must hash differently")
	}
	// This is the check that blocks annotation laundering through a
	// differently-annotated function pointer type (§4.1).
	d := MustParse("pre(copy(write, ptr, size))")
	if a.Hash() == d.Hash() {
		t.Fatal("subset annotation must hash differently")
	}
}

// TestHashMemoized: the ahash is computed once per set; repeating it (as
// every module-writable indirect call does) allocates nothing.
func TestHashMemoized(t *testing.T) {
	s := MustParse("principal(dev) pre(transfer(skb_caps(skb))) post(if (return == 0) copy(write, buf, len))")
	want := hashString(s.String())
	if s.Hash() != want {
		t.Fatalf("Hash() = %#x, want the hash of the canonical form %#x", s.Hash(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Hash() }); allocs != 0 {
		t.Fatalf("repeated Hash() allocates %.1f times, want 0", allocs)
	}
	var none *Set
	if none.Hash() != MustParse("").Hash() {
		t.Fatal("a nil set must hash like an empty one")
	}
}

func TestIdents(t *testing.T) {
	s := MustParse("principal(dev) pre(transfer(skb_caps(skb))) " +
		"post(if (return == 0) copy(write, buf, len))")
	got := s.Idents()
	want := map[string]bool{"dev": true, "skb": true, "return": true, "buf": true, "len": true}
	if len(got) != 5 {
		t.Fatalf("idents = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected ident %q", id)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	// property: Parse(s.String()).String() == s.String() for a corpus of
	// generated annotation sets.
	corpus := []string{
		"principal(sock) pre(check(call, fn)) post(copy(write, out, n))",
		"pre(if (a < b && c != 0) transfer(ref(struct bio), b))",
		"pre(check(iter_x(a, b, c)))",
		"post(if (return >= 0) copy(write, return, sz))",
	}
	for _, src := range corpus {
		s := MustParse(src)
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse %q: %v", canon, err)
		}
		if s2.String() != canon {
			t.Errorf("not canonical: %q -> %q", canon, s2.String())
		}
		if s2.Hash() != s.Hash() {
			t.Errorf("hash changed through round trip for %q", src)
		}
	}
}

// Property: expression printing is canonical — parse(print(e)) == print(e)
// for randomized arithmetic expressions built from a small grammar.
func TestExprCanonicalProperty(t *testing.T) {
	ops := []string{"+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "&", "|"}
	vars := []string{"a", "b", "sz", "return"}
	var build func(seed uint64, depth int) string
	build = func(seed uint64, depth int) string {
		if depth == 0 || seed%4 == 0 {
			if seed%2 == 0 {
				return vars[seed%uint64(len(vars))]
			}
			return "7"
		}
		op := ops[seed%uint64(len(ops))]
		return "(" + build(seed/3, depth-1) + " " + op + " " + build(seed/7, depth-1) + ")"
	}
	f := func(seed uint64) bool {
		src := "pre(if (" + build(seed, 3) + ") check(write, a, 8))"
		s, err := Parse(src)
		if err != nil {
			return false
		}
		canon := s.String()
		s2, err := Parse(canon)
		return err == nil && s2.String() == canon && s2.Hash() == s.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	s := MustParse("principal(global) pre(check(ref(struct sock), sk))")
	str := s.String()
	for _, want := range []string{"principal(global)", "ref(struct sock)", "sk"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	s := MustParse("post(if (return == -16) transfer(write, p, 8))")
	if !strings.Contains(s.String(), "-16") {
		t.Fatalf("negative literal not folded: %q", s.String())
	}
	got, err := s.Post[0].Cond.Eval(MapEnv{Args: map[string]int64{"return": -16}})
	if err != nil || got != 1 {
		t.Fatalf("eval = %d, %v", got, err)
	}
}
