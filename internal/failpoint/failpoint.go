// Package failpoint is a tiny registry of named fault-injection sites
// threaded through the kernel substrates at their natural seams:
// blockdev sector I/O, netstack xmit/poll, slab page allocation, the
// mediated kernel-export entry, and the module loader's lifecycle
// steps.
//
// A site is a single call — failpoint.Inject("blockdev.write_sector")
// — that does nothing until armed. Disarmed sites cost one atomic load
// and zero allocations, so they are compiled into production paths
// (the 0-alloc warm-crossing and trace-overhead perf gates hold with
// every site in place). Armed sites evaluate a per-site Policy: return
// an injected error, sleep, panic (simulating a module bug that oopses
// — the call gates contain it into a synthetic violation), or run an
// arbitrary test callback; firing is shaped by one-shot, every-Nth,
// probability, and argument-match triggers.
//
// Site names follow the "<package>.<seam>" convention (the catalog
// lives in PAPER.md): the package that owns the seam registers the
// site at init so chaos harnesses can enumerate Sites(), and passes a
// per-call argument (device name, kernel function name, module name)
// that policies can match with Arg.
//
// Sites are armed per-test with Arm/Disarm, or process-wide through
// the spec language of ArmSpec — also read from the LXFI_FAILPOINTS
// environment variable at startup, which is how CI arms the chaos
// battery:
//
//	LXFI_FAILPOINTS="blockdev.write_sector=every(50)->error;kernel.entry[kmalloc]=oneshot->panic"
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error an armed error-policy site
// returns, so callers and tests can errors.Is an injected fault apart
// from a real one.
var ErrInjected = errors.New("failpoint: injected fault")

// PanicValue is what an armed panic-policy site panics with. The call
// gates recover it (like any other panic raised inside a module
// crossing) into a synthetic violation; tests can assert on the Site.
type PanicValue struct {
	Site string
	Msg  string
}

func (p PanicValue) String() string {
	if p.Msg != "" {
		return fmt.Sprintf("failpoint %s: %s", p.Site, p.Msg)
	}
	return "failpoint " + p.Site
}

// Policy describes what an armed site does and when it fires. Exactly
// one action is used, checked in order: Do, Delay, Panic, error (the
// default — Err, or ErrInjected when Err is nil). All trigger fields
// are optional and combine conjunctively.
type Policy struct {
	// Err, when set, is the error an error-action site returns
	// (wrapped together with ErrInjected). Nil selects ErrInjected.
	Err error
	// Delay sleeps for the duration, then the call proceeds normally.
	Delay time.Duration
	// Panic panics with a PanicValue. Meant for module-mediated seams
	// (kernel.entry), where the call gates contain the panic; at a
	// kernel-context seam it is a kernel panic, exactly as in the real
	// thing.
	Panic bool
	// Msg annotates the injected error or panic.
	Msg string
	// Do runs an arbitrary callback instead of any built-in action
	// (tests only — not reachable from the spec language). The arg is
	// the Inject call's site argument.
	Do func(arg string) error

	// OneShot fires the site once, then never again until re-armed.
	OneShot bool
	// EveryNth fires on every Nth evaluation (1 or 0 = every time).
	EveryNth int64
	// Prob fires with the given probability in (0, 1); 0 disables the
	// probability trigger.
	Prob float64
	// Arg, when non-empty, fires only when the InjectArg call's
	// argument matches exactly.
	Arg string
}

// armedPolicy is a Policy plus its runtime trigger counters; a fresh
// one is built per Arm so re-arming resets one-shot and every-Nth
// state.
type armedPolicy struct {
	p     Policy
	err   error // precomputed wrapped error for the error action
	n     atomic.Int64
	fired atomic.Bool
}

var (
	// armed counts armed sites; the disarmed fast path is this single
	// load.
	armed atomic.Int64

	mu    sync.RWMutex
	sites = make(map[string]*siteState)
)

type siteState struct {
	pol atomic.Pointer[armedPolicy]
}

// Register declares a site so harnesses can enumerate it with Sites().
// Substrates call it from init (or their Init); registration is
// idempotent and arming implies it.
func Register(name string) {
	mu.Lock()
	if _, ok := sites[name]; !ok {
		sites[name] = &siteState{}
	}
	mu.Unlock()
}

// Sites returns every registered site name, sorted.
func Sites() []string {
	mu.RLock()
	out := make([]string, 0, len(sites))
	for n := range sites {
		out = append(out, n)
	}
	mu.RUnlock()
	sort.Strings(out)
	return out
}

// Arm installs a policy on a site (registering it if needed),
// replacing any previous policy and resetting trigger state.
func Arm(name string, p Policy) {
	ap := &armedPolicy{p: p}
	if !p.Panic && p.Do == nil && p.Delay == 0 {
		e := p.Err
		if e == nil {
			e = ErrInjected
		}
		if p.Msg != "" {
			ap.err = fmt.Errorf("%w at %s: %s", e, name, p.Msg)
		} else {
			ap.err = fmt.Errorf("%w at %s", e, name)
		}
		if p.Err != nil {
			// Keep both ErrInjected and the caller's error in the chain.
			ap.err = fmt.Errorf("%w: %w", ErrInjected, ap.err)
		}
	}
	mu.Lock()
	s, ok := sites[name]
	if !ok {
		s = &siteState{}
		sites[name] = s
	}
	mu.Unlock()
	if s.pol.Swap(ap) == nil {
		armed.Add(1)
	}
}

// Disarm removes a site's policy; the site stays registered.
func Disarm(name string) {
	mu.RLock()
	s := sites[name]
	mu.RUnlock()
	if s != nil && s.pol.Swap(nil) != nil {
		armed.Add(-1)
	}
}

// DisarmAll removes every armed policy (test teardown).
func DisarmAll() {
	mu.RLock()
	defer mu.RUnlock()
	for _, s := range sites {
		if s.pol.Swap(nil) != nil {
			armed.Add(-1)
		}
	}
}

// Armed reports whether any site is currently armed.
func Armed() bool { return armed.Load() != 0 }

// Inject is the fault site hook for sites without a per-call argument.
// Disarmed — the overwhelmingly common case — it is a single atomic
// load.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return injectSlow(name, "")
}

// InjectArg is Inject for sites that pass a per-call argument (device
// name, kernel function name, module name) for Policy.Arg matching.
func InjectArg(name, arg string) error {
	if armed.Load() == 0 {
		return nil
	}
	return injectSlow(name, arg)
}

func injectSlow(name, arg string) error {
	mu.RLock()
	s := sites[name]
	mu.RUnlock()
	if s == nil {
		return nil
	}
	ap := s.pol.Load()
	if ap == nil {
		return nil
	}
	if ap.p.Arg != "" && ap.p.Arg != arg {
		return nil
	}
	if ap.p.EveryNth > 1 && ap.n.Add(1)%ap.p.EveryNth != 0 {
		return nil
	}
	if ap.p.Prob > 0 && ap.p.Prob < 1 && rand.Float64() >= ap.p.Prob {
		return nil
	}
	if ap.p.OneShot && ap.fired.Swap(true) {
		return nil
	}
	switch {
	case ap.p.Do != nil:
		return ap.p.Do(arg)
	case ap.p.Delay > 0:
		time.Sleep(ap.p.Delay)
		return nil
	case ap.p.Panic:
		panic(PanicValue{Site: name, Msg: ap.p.Msg})
	default:
		return ap.err
	}
}

// ArmSpec arms sites from a spec string:
//
//	spec    := entry { ";" entry }
//	entry   := site [ "[" arg "]" ] "=" [ triggers "->" ] action
//	triggers:= trigger { "," trigger }
//	trigger := "oneshot" | "every(N)" | "prob(P)"
//	action  := "error" | "error(msg)" | "delay(duration)"
//	         | "panic" | "panic(msg)"
//
// e.g. "blockdev.write_sector=every(50)->error;kernel.entry[kmalloc]=oneshot->panic".
// It is also applied to the LXFI_FAILPOINTS environment variable at
// package init, which is how a process arms failpoints.
func ArmSpec(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, term, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("failpoint: spec entry %q has no '='", entry)
		}
		name = strings.TrimSpace(name)
		p := Policy{}
		if i := strings.IndexByte(name, '['); i >= 0 {
			if !strings.HasSuffix(name, "]") {
				return fmt.Errorf("failpoint: bad site arg in %q", entry)
			}
			p.Arg = name[i+1 : len(name)-1]
			name = name[:i]
		}
		if name == "" {
			return fmt.Errorf("failpoint: empty site name in %q", entry)
		}
		action := strings.TrimSpace(term)
		if trig, act, ok := strings.Cut(term, "->"); ok {
			action = strings.TrimSpace(act)
			for _, tr := range strings.Split(trig, ",") {
				if err := parseTrigger(&p, strings.TrimSpace(tr)); err != nil {
					return fmt.Errorf("failpoint: entry %q: %w", entry, err)
				}
			}
		}
		if err := parseAction(&p, action); err != nil {
			return fmt.Errorf("failpoint: entry %q: %w", entry, err)
		}
		Arm(name, p)
	}
	return nil
}

// call splits "kind(payload)" forms; ok is false for a bare word.
func call(s, kind string) (payload string, ok bool) {
	if strings.HasPrefix(s, kind+"(") && strings.HasSuffix(s, ")") {
		return s[len(kind)+1 : len(s)-1], true
	}
	return "", false
}

func parseTrigger(p *Policy, tr string) error {
	switch {
	case tr == "oneshot":
		p.OneShot = true
	case strings.HasPrefix(tr, "every"):
		n, ok := call(tr, "every")
		if !ok {
			return fmt.Errorf("bad trigger %q", tr)
		}
		v, err := strconv.ParseInt(n, 10, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("bad every(N) in %q", tr)
		}
		p.EveryNth = v
	case strings.HasPrefix(tr, "prob"):
		n, ok := call(tr, "prob")
		if !ok {
			return fmt.Errorf("bad trigger %q", tr)
		}
		v, err := strconv.ParseFloat(n, 64)
		if err != nil || v <= 0 || v > 1 {
			return fmt.Errorf("bad prob(P) in %q", tr)
		}
		p.Prob = v
	default:
		return fmt.Errorf("unknown trigger %q", tr)
	}
	return nil
}

func parseAction(p *Policy, act string) error {
	switch {
	case act == "error":
	case act == "panic":
		p.Panic = true
	case strings.HasPrefix(act, "error"):
		msg, ok := call(act, "error")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		p.Msg = msg
	case strings.HasPrefix(act, "panic"):
		msg, ok := call(act, "panic")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		p.Panic, p.Msg = true, msg
	case strings.HasPrefix(act, "delay"):
		dur, ok := call(act, "delay")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		d, err := time.ParseDuration(dur)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad delay(duration) in %q", act)
		}
		p.Delay = d
	default:
		return fmt.Errorf("unknown action %q", act)
	}
	return nil
}

func init() {
	if spec := os.Getenv("LXFI_FAILPOINTS"); spec != "" {
		if err := ArmSpec(spec); err != nil {
			panic(err) // a malformed chaos spec should fail fast, not silently run clean
		}
	}
}
