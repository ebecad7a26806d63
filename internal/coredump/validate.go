package coredump

import (
	"fmt"
	"sort"
	"strings"
)

// The validator re-checks the runtime's structural invariants against a
// decoded dump, in layers modeled on livecore's staged validation: each
// layer only assumes the layers before it held, so a corrupted dump
// fails with the *first* broken invariant instead of a cascade of
// secondary noise.
//
//	structure      the document itself: version, mode, shard geometry,
//	               section shapes (parallel arrays of equal length)
//	interval-index per-shard WRITE indexes: entries sorted by start,
//	               prefix-maximum column correct and non-decreasing
//	epoch          monotone snapshot bounds: the header epoch and every
//	               trace event's epoch never exceed the metrics epoch
//	               (recorded last); per-thread event seqs strictly
//	               increasing below the ring's write position
//	ownership      capability/directory agreement: principals resolve
//	               to their module, identities are unique, no
//	               capability hangs off a principal outside the live
//	               directory, dead modules carry their kill reason,
//	               page-cache entries back distinct pages
//	threads        shadow-stack/thread agreement: depth matches the
//	               frames, return tokens strictly increase inward (the
//	               token counter is monotone), check counts cover miss
//	               counts on every event

// Issue is one failed invariant.
type Issue struct {
	Layer     string `json:"layer"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (i Issue) String() string {
	return fmt.Sprintf("[%s] %s: %s", i.Layer, i.Invariant, i.Detail)
}

// Layers in validation order.
var Layers = []string{"structure", "interval-index", "epoch", "ownership", "threads"}

// Validate runs all layers and returns every failed invariant, in
// layer order. An empty slice means the dump is internally consistent.
func Validate(d *Dump) []Issue {
	var issues []Issue
	add := func(layer, inv, format string, args ...interface{}) {
		issues = append(issues, Issue{Layer: layer, Invariant: inv,
			Detail: fmt.Sprintf(format, args...)})
	}

	validStructure := validateStructure(d, add)
	if validStructure {
		// The deeper layers index into the shapes structure vouched for.
		validateIntervalIndex(d, add)
		validateEpoch(d, add)
		validateOwnership(d, add)
		validateThreads(d, add)
	}
	return issues
}

type addFunc func(layer, inv, format string, args ...interface{})

func validateStructure(d *Dump, add addFunc) bool {
	ok := true
	fail := func(inv, format string, args ...interface{}) {
		add("structure", inv, format, args...)
		ok = false
	}
	if d.Version < 1 || d.Version > FormatVersion {
		fail("version", "format version %d outside [1,%d]", d.Version, FormatVersion)
	}
	if d.Mode != "stock" && d.Mode != "lxfi" {
		fail("mode", "unknown enforcement mode %q", d.Mode)
	}
	if d.Shards < 1 || d.Shards&(d.Shards-1) != 0 {
		fail("shard-geometry", "shard count %d is not a positive power of two", d.Shards)
	}
	for mi, m := range d.Modules {
		if m.Name == "" {
			fail("module-name", "module %d has an empty name", mi)
		}
		for _, p := range m.Principals {
			for si, s := range p.WriteShards {
				if d.Shards >= 1 && (s.Shard < 0 || s.Shard >= d.Shards) {
					fail("shard-range", "%s write_shards[%d] names shard %d of %d",
						p.Name, si, s.Shard, d.Shards)
				}
				if len(s.Writes) != len(s.MaxEnd) {
					fail("index-shape", "%s shard %d: %d writes but %d max_end entries",
						p.Name, s.Shard, len(s.Writes), len(s.MaxEnd))
				}
			}
		}
	}
	if d.PageCache != nil && d.PageCache.DirtyCount > len(d.PageCache.Pages) {
		fail("page-cache-shape", "dirty_count %d exceeds %d cached pages",
			d.PageCache.DirtyCount, len(d.PageCache.Pages))
	}
	return ok
}

func validateIntervalIndex(d *Dump, add addFunc) {
	for _, m := range d.Modules {
		for _, p := range m.Principals {
			for _, s := range p.WriteShards {
				if len(s.Writes) != len(s.MaxEnd) {
					continue // structure layer already reported it
				}
				var runMax uint64
				for i, w := range s.Writes {
					if i > 0 && w.Addr < s.Writes[i-1].Addr {
						add("interval-index", "sortedness",
							"%s shard %d: entry %d starts at %#x, before entry %d at %#x",
							p.Name, s.Shard, i, w.Addr, i-1, s.Writes[i-1].Addr)
					}
					if end := rangeEnd(w); end > runMax {
						runMax = end
					}
					if s.MaxEnd[i] != runMax {
						add("interval-index", "prefix-max",
							"%s shard %d: max_end[%d] = %#x, want %#x",
							p.Name, s.Shard, i, s.MaxEnd[i], runMax)
					}
				}
			}
		}
	}
}

func validateEpoch(d *Dump, add addFunc) {
	// The header epoch is read before any table, the metrics registry
	// after every section: capability mutations during the snapshot only
	// move the epoch forward, so header <= metrics must hold, as must
	// every trace event recorded before the snapshot.
	bound := d.Metrics.CapEpoch
	if d.Epoch > bound {
		add("epoch", "header-bound",
			"header epoch %d exceeds metrics epoch %d (recorded later)", d.Epoch, bound)
	}
	for _, t := range d.Threads {
		prev := int64(-1)
		for i, e := range t.Events {
			if e.Epoch > bound {
				add("epoch", "event-bound",
					"thread %s event %d: epoch %d exceeds metrics epoch %d",
					t.Name, i, e.Epoch, bound)
			}
			if int64(e.Seq) <= prev {
				add("epoch", "event-seq",
					"thread %s event %d: seq %d not above predecessor %d",
					t.Name, i, e.Seq, prev)
			}
			prev = int64(e.Seq)
			if e.Seq >= t.TraceSeq {
				add("epoch", "event-seq",
					"thread %s event %d: seq %d at or past ring position %d",
					t.Name, i, e.Seq, t.TraceSeq)
			}
		}
	}
}

func validateOwnership(d *Dump, add addFunc) {
	modSeen := map[string]bool{}
	for _, m := range d.Modules {
		if modSeen[m.Name] {
			add("ownership", "module-unique", "module %q appears twice", m.Name)
		}
		modSeen[m.Name] = true
		if m.Dead && m.KillReason == "" {
			add("ownership", "kill-reason", "module %q is dead with no recorded violation", m.Name)
		}
		prinSeen := map[string]bool{}
		for _, p := range m.Principals {
			// A capability's owner must resolve to the live principal
			// directory: the rendered name embeds the module, so a
			// principal whose name does not carry its parent module is a
			// capability held by nothing the directory knows — the
			// dead-principal case.
			if !strings.HasPrefix(p.Name, m.Name) {
				add("ownership", "dead-principal",
					"principal %q (holding %d CALL, %d shard entries) does not belong to module %q",
					p.Name, len(p.Calls), len(p.WriteShards), m.Name)
			}
			switch p.Kind {
			case "shared", "global":
				if p.Addr != 0 {
					add("ownership", "principal-kind",
						"%s principal %q carries instance address %#x", p.Kind, p.Name, p.Addr)
				}
			case "instance":
				if p.Addr == 0 {
					add("ownership", "principal-kind", "instance principal %q has no address", p.Name)
				}
			default:
				add("ownership", "principal-kind", "principal %q has unknown kind %q", p.Name, p.Kind)
			}
			id := p.Kind + "/" + fmt.Sprint(p.Addr)
			if prinSeen[id] {
				add("ownership", "principal-unique",
					"module %q has two %s principals named %#x", m.Name, p.Kind, p.Addr)
			}
			prinSeen[id] = true
			for _, c := range p.Calls {
				if c == 0 {
					add("ownership", "call-target", "principal %q holds CALL for address 0", p.Name)
				}
			}
		}
	}
	if d.PageCache != nil {
		byPage := map[uint64]PageDump{}
		dirty := 0
		for _, pg := range d.PageCache.Pages {
			if pg.Page == 0 {
				add("ownership", "page-backing",
					"page cache entry (ino %#x, idx %d) backed by address 0", pg.Ino, pg.Idx)
			}
			if prev, dup := byPage[pg.Page]; dup {
				add("ownership", "page-aliased",
					"page %#x backs both (ino %#x, idx %d) and (ino %#x, idx %d)",
					pg.Page, prev.Ino, prev.Idx, pg.Ino, pg.Idx)
			}
			byPage[pg.Page] = pg
			if pg.Dirty {
				dirty++
			}
		}
		if dirty != d.PageCache.DirtyCount {
			add("ownership", "dirty-count",
				"%d pages marked dirty but dirty_count says %d", dirty, d.PageCache.DirtyCount)
		}
	}
}

func validateThreads(d *Dump, add addFunc) {
	for _, t := range d.Threads {
		if t.ShadowDepth != len(t.Shadow) {
			add("threads", "shadow-depth",
				"thread %s: shadow_depth %d but %d frames dumped", t.Name, t.ShadowDepth, len(t.Shadow))
		}
		// Return tokens come from the thread's monotone counter, and outer
		// frames are pushed before inner ones: tokens must strictly
		// increase toward the top of the stack. A corrupted token (the
		// forged-return CFI case) breaks the chain.
		for i := 1; i < len(t.Shadow); i++ {
			if t.Shadow[i].RetToken <= t.Shadow[i-1].RetToken {
				add("threads", "token-monotone",
					"thread %s: frame %d token %d not above frame %d token %d",
					t.Name, i, t.Shadow[i].RetToken, i-1, t.Shadow[i-1].RetToken)
			}
		}
		for i, e := range t.Events {
			if e.Misses > e.Checks {
				add("threads", "check-coverage",
					"thread %s event %d: %d cache misses out of %d checks",
					t.Name, i, e.Misses, e.Checks)
			}
		}
	}
}

// FormatIssues renders issues one per line, grouped in layer order.
func FormatIssues(issues []Issue) string {
	order := map[string]int{}
	for i, l := range Layers {
		order[l] = i
	}
	sorted := append([]Issue(nil), issues...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return order[sorted[i].Layer] < order[sorted[j].Layer]
	})
	var b strings.Builder
	for _, i := range sorted {
		b.WriteString(i.String())
		b.WriteByte('\n')
	}
	return b.String()
}
