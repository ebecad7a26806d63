package core

import (
	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// Per-thread capability check cache.
//
// The paper's per-CPU context makes capability checks the dominant
// crossing cost; the simulation's sharded tables still pay a shard read
// lock and an O(log n) interval probe per check. Threads, however,
// repeat the same few checks (the same spinlock word, the same page,
// the same CALL target) between capability mutations, so each
// core.Thread keeps a small direct-mapped cache of recent
// (principal, kind, addr, size) → verdict entries.
//
// Soundness comes from the capability epoch: every entry records the
// value of caps.System.Epoch read *before* the authoritative check ran,
// and a lookup only trusts an entry whose epoch still matches the
// current one. Every grant, revoke, transfer revocation, module
// load/unload, and DropInstance bumps the epoch, so a revoked WRITE can
// never be served from cache — at worst the cache misses and the
// sharded tables answer. A Thread is confined to one goroutine, so the
// cache itself needs no locking; the only shared word on a hit is the
// epoch's atomic load.

// checkCacheSize is the number of direct-mapped entries per thread.
const checkCacheSize = 64

// checkCacheEntry is one 32-byte direct-mapped slot. The capability's
// kind is packed into the size's top byte and the verdict into the
// epoch's low bit, so a hit loads and compares exactly four words.
// WRITE and CALL verdicts pack (size | kind) into sizeKind; REF
// verdicts pack an interned type ID instead of carrying the type
// string (checkCapTag), so all three kinds fit the same entry. The
// generic checkCap path still treats REF as uncacheable — only the
// compiled action programs, which pre-intern their tags at bind time,
// store and probe REF entries.
type checkCacheEntry struct {
	prin         *caps.Principal
	addr         mem.Addr
	sizeKind     uint64 // c.Size | kind<<sizeKindShift (size < 2^56 only)
	epochVerdict uint64 // epoch<<1 | verdict
}

// sizeKindShift positions the kind tag above any cacheable size. A size
// with bits at or above the shift skips the cache entirely, so a forged
// huge-size WRITE probe can never alias a cached CALL verdict.
const sizeKindShift = 56

// cacheSlot derives the direct-mapped slot for an address. Principal
// identity and the packed size/kind are verified on lookup, so neither
// needs to participate in the index; mixing two address strides keeps
// neighboring words and neighboring pages from colliding.
func cacheSlot(a uint64) int {
	return int((a>>3 ^ a>>9) & (checkCacheSize - 1))
}

// cacheable reports whether a capability's verdict may live in the
// per-thread cache.
func cacheable(c caps.Cap) bool {
	return c.Kind != caps.Ref && c.Size>>sizeKindShift == 0
}

// packSizeKind builds the entry's packed size/kind tag. Only valid for
// cacheable capabilities (size below the shift).
func packSizeKind(c caps.Cap) uint64 {
	return c.Size | uint64(c.Kind)<<sizeKindShift
}

// statsFlushBatch bounds how many checks a thread tallies locally
// before folding them into the shared atomic counters. A cached hit
// must not pay a shared-cache-line atomic per check; the counters are
// also flushed at every wrapper exit, so crossing-grained readers
// (netperf's guard breakdown) still see exact numbers.
const statsFlushBatch = 4096

// flushCheckStats folds the thread-local check tallies into the shared
// monitor counters.
func (t *Thread) flushCheckStats() {
	if t.pendChecks != 0 {
		t.Sys.Mon.Stats.CapChecks.Add(t.pendChecks)
		if hits := t.pendChecks - t.pendMisses; hits != 0 {
			t.Sys.Mon.Stats.CapCacheHits.Add(hits)
		}
		t.lifeChecks += t.pendChecks
		t.lifeMisses += t.pendMisses
		t.pendChecks, t.pendMisses = 0, 0
	}
	if t.pendMemWrites != 0 {
		t.Sys.Mon.Stats.MemWriteChecks.Add(t.pendMemWrites)
		t.pendMemWrites = 0
	}
}

// checkCap is the mediated-path capability check: cache first, sharded
// tables on a miss. All enforcement guards (memory writes, CALL checks,
// annotation ownership checks, lxfi_check) funnel through here. The
// body is kept small enough to inline into the guards; everything not
// on the hit path lives in checkCapSlow.
func (t *Thread) checkCap(p *caps.Principal, c caps.Cap) bool {
	if p != nil && c.Size>>sizeKindShift == 0 {
		if v, hit := t.cacheProbe(p, c.Addr, packSizeKind(c), t.csys.Epoch()); hit {
			t.pendChecks++
			return v
		}
	}
	return t.checkCapSlow(p, c)
}

// cacheProbe is the inlinable cache lookup the guards embed directly:
// (verdict, true) on an epoch-valid hit, (_, false) otherwise.
//
// Callers must guarantee p != nil (a zero entry would otherwise match a
// kernel-context check) and size < 2^sizeKindShift (an oversized probe
// could otherwise alias a stored entry's packed kind tag); trusted
// principals are never stored, and a REF probe's tag can never equal a
// stored WRITE/CALL tag.
func (t *Thread) cacheProbe(p *caps.Principal, addr mem.Addr, sizeKind, ep uint64) (bool, bool) {
	e := &t.ccache[cacheSlot(uint64(addr))]
	if e.prin == p && e.addr == addr && e.sizeKind == sizeKind && e.epochVerdict>>1 == ep {
		return e.epochVerdict&1 != 0, true
	}
	return false, false
}

// checkCapTag is checkCap with a caller-supplied packed cache tag; the
// compiled action programs use it to cache REF verdicts, whose tag
// (an interned type ID | Ref kind bits, see System.refTypeTag) cannot
// be derived from the Cap alone. Tag uniqueness is the caller's
// contract: equal tags must imply equal (kind, type, size) identity,
// which interning guarantees. Epoch validation is unchanged, so a
// revoked REF is never served stale.
func (t *Thread) checkCapTag(p *caps.Principal, c caps.Cap, tag uint64) bool {
	if p != nil {
		if v, hit := t.cacheProbe(p, c.Addr, tag, t.csys.Epoch()); hit {
			t.pendChecks++
			return v
		}
	}
	return t.checkCapMiss(p, c, tag, true)
}

// checkCapSlow handles kernel/trusted principals, cache misses, and the
// batched stats flush.
func (t *Thread) checkCapSlow(p *caps.Principal, c caps.Cap) bool {
	if cacheable(c) {
		return t.checkCapMiss(p, c, packSizeKind(c), true)
	}
	return t.checkCapMiss(p, c, 0, false)
}

// checkCapMiss is the shared miss path behind checkCapSlow and
// checkCapTag: batched stats, the trusted short-circuit, the
// authoritative table check, and (when store is set) the cache fill
// under the caller's packed tag. Cache hits are derived at flush time
// as checks minus misses, so the hit paths pay a single thread-local
// increment.
func (t *Thread) checkCapMiss(p *caps.Principal, c caps.Cap, tag uint64, store bool) bool {
	t.pendChecks++
	t.pendMisses++
	if t.pendChecks >= statsFlushBatch {
		t.flushCheckStats()
	}
	if p == nil || p.IsTrusted() {
		return true
	}
	// The epoch is read before the authoritative check: a mutation that
	// lands between the read and the check stamps the entry with an
	// already-stale epoch, so the next lookup revalidates rather than
	// trusting a verdict of unknown vintage.
	ep := t.csys.Epoch()
	v := t.csys.Check(p, c)
	if store {
		e := &t.ccache[cacheSlot(uint64(c.Addr))]
		e.prin, e.addr = p, c.Addr
		e.sizeKind = tag
		ev := ep << 1
		if v {
			ev |= 1
		}
		e.epochVerdict = ev
	}
	return v
}

// CheckCached exposes the thread's cached check for kernel-side callers
// that repeat capability probes on the hot path (the VFS rename
// re-check, the crossing microbenchmark). Semantics are identical to
// caps.System.Check.
func (t *Thread) CheckCached(p *caps.Principal, c caps.Cap) bool {
	return t.checkCap(p, c)
}

// --- crossing scratch pools ---
//
// The wrapper paths of calls.go burn one argEnv and a couple of
// capability slices per mediated crossing. Both are recycled through
// per-thread free lists (a Thread is goroutine-confined, so these are
// lock-free): with a warm cache a crossing performs no allocation.

// getEnv returns a recycled argEnv bound to this call's arguments.
func (t *Thread) getEnv(args []uint64) *argEnv {
	n := len(t.envFree)
	if n == 0 {
		return &argEnv{sys: t.Sys, args: args}
	}
	e := t.envFree[n-1]
	t.envFree = t.envFree[:n-1]
	e.args, e.ret, e.hasRet = args, 0, false
	return e
}

// putEnv returns an argEnv to the thread's free list.
func (t *Thread) putEnv(e *argEnv) {
	if e == nil {
		return
	}
	e.args = nil
	t.envFree = append(t.envFree, e)
}

// getCapBuf returns an empty capability scratch slice.
func (t *Thread) getCapBuf() []caps.Cap {
	n := len(t.capFree)
	if n == 0 {
		return make([]caps.Cap, 0, 4)
	}
	buf := t.capFree[n-1]
	t.capFree = t.capFree[:n-1]
	return buf[:0]
}

// putCapBuf recycles a capability scratch slice.
func (t *Thread) putCapBuf(buf []caps.Cap) {
	if buf == nil {
		return
	}
	t.capFree = append(t.capFree, buf[:0])
}
