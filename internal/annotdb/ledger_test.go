package annotdb

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// update rewrites testdata/ledger.golden from the running executor
// instead of comparing against it. Only a change that means to alter
// annotation semantics may pass it, and says so in its change notes.
var update = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerPath = "testdata/ledger.golden"

// lcg is a tiny deterministic generator for synthetic crossing
// arguments: the ledger must be reproducible run to run.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// synthArgs builds argument vectors that exercise the interesting
// regimes of annotation expressions: zeros (null pointers, failed
// returns), small integers (sizes, flags), heap-looking addresses
// (capability pointers), and mixes of all three.
func synthArgs(r *lcg, n int) [][]uint64 {
	if n == 0 {
		n = 1 // exercise the no-args/unbound-identifier paths too
	}
	heap := func() uint64 { return 0xffff_8800_0000_0000 | (r.next() & 0x00ff_ffff_f000) }
	out := [][]uint64{make([]uint64, n)} // all zero
	small := make([]uint64, n)
	for i := range small {
		small[i] = r.next() % 64
	}
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = heap()
	}
	mixed := make([]uint64, n)
	for i := range mixed {
		switch r.next() % 3 {
		case 0:
			mixed[i] = 0
		case 1:
			mixed[i] = r.next() % 4096
		default:
			mixed[i] = heap()
		}
	}
	return append(out, small, addrs, mixed)
}

// rets are the synthetic return values for post phases: success, two
// errno shapes, and arbitrary values (NETDEV_TX_BUSY among them).
var rets = []uint64{0, ^uint64(0), ^uint64(21), 16, 1, 4096}

type principalCase struct {
	name string
	p    *caps.Principal
}

// TestCompiledProgramsMatchTreeInterpreter pins the crossing semantics
// of every annotated kernel export and every registered
// function-pointer type in a fully-booted system (all ten Fig. 9
// modules): the grants, revokes, checks, violations, and
// principal-expression values the compiled action programs produce on
// a fixed set of synthetic crossings must equal testdata/ledger.golden,
// which the expression-tree interpreter wrote before it was retired.
func TestCompiledProgramsMatchTreeInterpreter(t *testing.T) {
	sys, err := BootAll(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	mods := sys.Modules()
	froms := []*principalCase{{name: "trusted", p: nil}}
	for _, name := range []string{"econet", "rds", "e1000"} {
		if m, ok := mods[name]; ok {
			froms = append(froms, &principalCase{name: name + "[shared]", p: m.Set.Shared()})
		}
	}
	checkLedger(t, "boot", buildLedger(t, "boot", sys, froms))
}

// TestCompiledProgramsMatchTreeInterpreterVFS extends the ledger to the
// VFS surface, whose annotations lean on capability iterators
// (name_caps, page_caps, alloc_caps) and per-superblock principals.
func TestCompiledProgramsMatchTreeInterpreterVFS(t *testing.T) {
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	bl.AddDisk(1, 1024)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("boot")
	tfs, err := tmpfssim.Load(th, k, v)
	if err != nil {
		t.Fatal(err)
	}
	mfs, err := minixsim.Load(th, k, v)
	if err != nil {
		t.Fatal(err)
	}
	froms := []*principalCase{
		{name: "trusted", p: nil},
		{name: "tmpfssim[shared]", p: tfs.M.Set.Shared()},
		{name: "minixsim[shared]", p: mfs.M.Set.Shared()},
	}
	checkLedger(t, "vfs", buildLedger(t, "vfs", k.Sys, froms))
}

// buildLedger dry-runs every annotated declaration of sys on the
// synthetic crossings and returns one entry per non-empty trace, keyed
// by surface, declaration, principal, arguments, and phase. The pre
// phase is traced once per input (the return value binds only in
// post); post once per entry of rets. An fptr type's principal value
// depends on the arguments alone, so it is recorded once per vector.
func buildLedger(t *testing.T, surface string, sys *core.System, froms []*principalCase) map[string]string {
	t.Helper()
	th := sys.NewThread("ledger")
	r := lcg(0x1ee7)
	out := make(map[string]string)
	record := func(key string, tr []core.ActionTrace) {
		if len(tr) > 0 {
			out[key] = renderTrace(tr)
		}
	}
	covered := 0
	// Iterate in sorted order: the lcg stream is shared, so map-order
	// iteration would hand each export different synthetic args every
	// run and break the reproducibility the seed promises.
	kfuncs := sys.KernelFuncs()
	for _, name := range sortedKeys(kfuncs) {
		fn := kfuncs[name]
		if fn.Annot == nil || fn.Annot.Empty() {
			continue
		}
		covered++
		for _, args := range synthArgs(&r, len(fn.Params)) {
			for _, fc := range froms {
				key := fmt.Sprintf("%s kernel %s from=%s args=%x", surface, name, fc.name, args)
				record(key+" pre", fn.TraceCrossing(th, "pre", args, 0, fc.p))
				for _, ret := range rets {
					record(fmt.Sprintf("%s post ret=%d", key, int64(ret)), fn.TraceCrossing(th, "post", args, ret, fc.p))
				}
			}
		}
	}
	ftypes := sys.FPtrTypes()
	for _, name := range sortedKeys(ftypes) {
		ft := ftypes[name]
		covered++
		for _, args := range synthArgs(&r, len(ft.Params)) {
			for _, fc := range froms {
				key := fmt.Sprintf("%s fptr %s from=%s args=%x", surface, name, fc.name, args)
				record(key+" pre", ft.TraceCrossing(th, "pre", args, 0, fc.p))
				for _, ret := range rets {
					record(fmt.Sprintf("%s post ret=%d", key, int64(ret)), ft.TraceCrossing(th, "post", args, ret, fc.p))
				}
			}
			if v, isExpr, err := ft.TracePrincipalValue(th, args); isExpr {
				key := fmt.Sprintf("%s fptr %s args=%x principal", surface, name, args)
				if err != nil {
					out[key] = "error " + err.Error()
				} else {
					out[key] = fmt.Sprintf("value %d", v)
				}
			}
		}
	}
	if covered < 15 {
		t.Fatalf("ledger covered only %d annotated exports — boot surface shrank?", covered)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderTrace(tr []core.ActionTrace) string {
	parts := make([]string, len(tr))
	for i, a := range tr {
		parts[i] = fmt.Sprintf("%s %q %q", a.Op, a.Cap, a.Err)
	}
	return strings.Join(parts, " | ")
}

// checkLedger compares the surface's entries with the golden's both
// ways, so a key missing on either side stands for an empty trace.
// Under -update it replaces the surface's entries in the golden.
func checkLedger(t *testing.T, surface string, got map[string]string) {
	t.Helper()
	golden := readLedger(t)
	prefix := surface + " "
	if *update {
		for k := range golden {
			if strings.HasPrefix(k, prefix) {
				delete(golden, k)
			}
		}
		for k, v := range got {
			golden[k] = v
		}
		writeLedger(t, golden)
		return
	}
	bad := 0
	report := func(format string, args ...any) {
		if bad++; bad <= 10 {
			t.Errorf(format, args...)
		}
	}
	n := 0
	for k, want := range golden {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		n++
		if g, ok := got[k]; !ok {
			report("%s:\n  golden: %s\n  got:    (empty trace)", k, want)
		} else if g != want {
			report("%s:\n  golden: %s\n  got:    %s", k, want, g)
		}
	}
	for k, g := range got {
		if _, ok := golden[k]; !ok {
			report("%s:\n  golden: (empty trace)\n  got:    %s", k, g)
		}
	}
	if bad > 0 {
		t.Fatalf("%d ledger entries differ from %s (%d golden entries for %s)", bad, ledgerPath, n, surface)
	}
}

func readLedger(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	data, err := os.ReadFile(ledgerPath)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", ledgerPath, line)
		}
		out[k] = v
	}
	return out
}

func writeLedger(t *testing.T, ledger map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, k := range sortedKeys(ledger) {
		b.WriteString(k + "\t" + ledger[k] + "\n")
	}
	if err := os.WriteFile(ledgerPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGrantingActionsMatchOnLiveState traces contracts against a module
// seeded with real capabilities, so copy/transfer ownership checks take
// the "owned" branch too (an all-deny state would let a broken
// ownership check hide behind violations).
func TestGrantingActionsMatchOnLiveState(t *testing.T) {
	sys, err := BootAll(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	th := sys.NewThread("ledger2")
	m, ok := sys.Modules()["econet"]
	if !ok {
		t.Fatal("econet missing from booted system")
	}
	shared := m.Set.Shared()

	// kfree's pre(transfer(alloc_caps(ptr))) over a really-allocated,
	// really-owned object.
	obj, err := sys.Slab.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	owned := caps.WriteCap(obj, 64)
	sys.Caps.Grant(shared, owned)
	kfree, _ := sys.FuncByName("kfree")
	if tr := kfree.TraceCrossing(th, "pre", []uint64{uint64(obj)}, 0, shared); len(tr) != 1 || tr[0].Op != "transfer" || tr[0].Cap != owned.String() {
		t.Fatalf("kfree (owned): got %v, want one transfer of %s", tr, owned)
	}

	// copy_from_user's pre(check(write, to, n)) with an owned window.
	cfu, _ := sys.FuncByName("copy_from_user")
	if tr := cfu.TraceCrossing(th, "pre", []uint64{uint64(obj), 0x1000, 64}, 0, shared); len(tr) == 0 || tr[0].Op != "check" || tr[0].Cap != owned.String() {
		t.Fatalf("copy_from_user (owned): got %v, want a check of %s", tr, owned)
	}
}
