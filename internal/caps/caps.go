// Package caps implements LXFI's capability system (§3.2 of the paper).
//
// LXFI tracks three kinds of capabilities per module principal:
//
//   - WRITE(ptr, size): the principal may write any value into the
//     kernel memory region [ptr, ptr+size).
//   - REF(t, a): the principal may pass a as an argument to kernel
//     functions requiring a REF capability of type t (object ownership
//     without write access).
//   - CALL(a): the principal may call or jump to address a.
//
// WRITE capabilities live in a sorted interval index per (principal,
// shard): lookups binary-search the start-sorted entries and consult a
// prefix maximum of entry ends, so `owns` and a revocation's victim
// search are O(log n) in the shard's entry count instead of scanning a
// hash bucket. The paper's 12-bit address masking survives as the shard
// hash (capability state is sharded by 4 KiB address bucket).
//
// Concurrency: simulated kernel threads run on their own goroutines, so
// the capability state is shared monitor state. It is guarded by
// address-hashed shard locks plus two directory locks:
//
//  1. shard[i].mu (RWMutex, i = bucket & mask) — the slice of every
//     principal's capability tables whose addresses hash to shard i.
//     Checks take one shard's read lock (the hot path). Grant, revoke
//     and transfer take the write locks of the shards the capability's
//     address range covers, and no more: a WRITE revocation collects its
//     victims there, and only when a victim entry reaches into further
//     shards does it release every lock and re-lock the union. Shard
//     locks are always acquired in ascending index order, and the
//     re-lock step holds none while it waits, so multi-shard operations
//     cannot deadlock.
//  2. ModuleSet.mu (RWMutex) — a module's principal directory (the
//     instances and aliases maps). Acquired before any shard lock
//     (global-principal checks walk the directory under it), never
//     after one.
//
// The principal-snapshot lock (System.prinMu) is a directory-level leaf
// ordered after ModuleSet.mu; no callback ever runs under any of these
// locks.
//
// Every mutation — grant, revoke, transfer, module load/unload,
// instance drop — bumps a global capability epoch (System.Epoch) once,
// after its tables changed and before it returns. Per-thread check
// caches in internal/core validate against the epoch, so a revoked
// capability can never be served from a stale cache entry.
package caps

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lxfi/internal/mem"
)

// Kind identifies a capability type.
type Kind uint8

// The three capability kinds of §3.2.
const (
	Write Kind = iota
	Ref
	Call
)

func (k Kind) String() string {
	switch k {
	case Write:
		return "WRITE"
	case Ref:
		return "REF"
	case Call:
		return "CALL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Cap is a single capability.
type Cap struct {
	Kind    Kind
	Addr    mem.Addr
	Size    uint64 // WRITE only
	RefType string // REF only
}

// WriteCap constructs a WRITE(addr, size) capability.
func WriteCap(addr mem.Addr, size uint64) Cap { return Cap{Kind: Write, Addr: addr, Size: size} }

// RefCap constructs a REF(typ, addr) capability.
func RefCap(typ string, addr mem.Addr) Cap { return Cap{Kind: Ref, Addr: addr, RefType: typ} }

// CallCap constructs a CALL(addr) capability.
func CallCap(addr mem.Addr) Cap { return Cap{Kind: Call, Addr: addr} }

func (c Cap) String() string {
	switch c.Kind {
	case Write:
		return fmt.Sprintf("WRITE(%#x,%d)", uint64(c.Addr), c.Size)
	case Ref:
		return fmt.Sprintf("REF(%s,%#x)", c.RefType, uint64(c.Addr))
	case Call:
		return fmt.Sprintf("CALL(%#x)", uint64(c.Addr))
	}
	return "CAP(?)"
}

// bucketShift mirrors the paper's optimization: "LXFI reduces the number
// of insertions by masking the least significant bits of the address
// (the last 12 bits in practice) when calculating hash keys." Here the
// masked bucket picks the shard a capability's tables live in.
const bucketShift = 12

func bucketOf(a mem.Addr) mem.Addr { return a >> bucketShift }

type writeEntry struct {
	addr mem.Addr
	size uint64
}

func (w writeEntry) covers(addr mem.Addr, size uint64) bool {
	end := addr + mem.Addr(size)
	return w.addr <= addr && addr <= end && end <= w.end()
}

// overlaps reports whether w shares a byte with [addr, addr+size). An
// empty range overlaps nothing.
func (w writeEntry) overlaps(addr mem.Addr, size uint64) bool {
	return size != 0 && w.addr <= lastByte(addr, size) && addr <= lastByte(w.addr, w.size)
}

// lastByte returns the last address of the nonempty range [addr,
// addr+size), saturated at the top of the address space when the range
// wraps past it: revocation then strips more than requested, never less.
func lastByte(addr mem.Addr, size uint64) mem.Addr { return satAdd(addr, size-1) }

// satAdd returns addr+n, or the top of the address space when the sum
// wraps past it. Entry ends and range last bytes both go through it, so
// a range that reaches 2^64 is never mistaken for one near address 0.
func satAdd(addr mem.Addr, n uint64) mem.Addr {
	if s := addr + mem.Addr(n); s >= addr {
		return s
	}
	return ^mem.Addr(0)
}

type refKey struct {
	typ  string
	addr mem.Addr
}

// PrincipalKind distinguishes instance principals from the two special
// per-module principals of §3.1.
type PrincipalKind uint8

// Principal kinds.
const (
	// Instance principals correspond to one instance of the module's
	// abstraction (one socket, one block device, ...). They are named by
	// the address of the data structure representing the instance.
	Instance PrincipalKind = iota
	// Shared is the module's shared principal: capabilities stored here
	// are implicitly accessible to every other principal in the module.
	Shared
	// Global is the module's global principal: it implicitly has access
	// to the capabilities of all principals in the module.
	Global
)

func (k PrincipalKind) String() string {
	switch k {
	case Instance:
		return "instance"
	case Shared:
		return "shared"
	case Global:
		return "global"
	}
	return "?"
}

// prinShard is one shard's slice of a principal's three capability
// tables. The maps are allocated lazily: most principals only ever hold
// capabilities in a few shards.
type prinShard struct {
	writes intervalSet
	refs   map[refKey]struct{}
	calls  map[mem.Addr]struct{}
}

// Principal holds one principal's capability tables, split across the
// owning system's shards.
type Principal struct {
	Module string
	Name   mem.Addr // 0 for shared/global
	Kind   PrincipalKind

	set *ModuleSet // owning module's principal set (nil only for Trusted)

	shards []prinShard // len is the system's shard count (a power of two)
}

func newPrincipal(set *ModuleSet, module string, name mem.Addr, kind PrincipalKind) *Principal {
	n := 1
	if set != nil && set.sys != nil {
		n = set.sys.nshards
	}
	return &Principal{
		Module: module,
		Name:   name,
		Kind:   kind,
		set:    set,
		shards: make([]prinShard, n),
	}
}

// String renders the principal for diagnostics, e.g. "econet[#c0de]".
func (p *Principal) String() string {
	if p == nil {
		return "<kernel>"
	}
	switch p.Kind {
	case Shared:
		return p.Module + "[shared]"
	case Global:
		return p.Module + "[global]"
	}
	return fmt.Sprintf("%s[%#x]", p.Module, uint64(p.Name))
}

// IsTrusted reports whether p is the fully-trusted core kernel principal.
func (p *Principal) IsTrusted() bool { return p != nil && p.set == nil && p.shards == nil }

// shardIdx maps an address to the index of the shard its tables live in.
func (p *Principal) shardIdx(a mem.Addr) int {
	return int(bucketOf(a)) & (len(p.shards) - 1)
}

// writeShardBits returns the bitmap of the n shards (a power of two, at
// most maxShards) whose tables a WRITE range touches, with the range's
// end saturated as in lastByte. A range spanning at least n buckets
// wraps around the whole ring and touches every shard; an empty range
// touches none.
func writeShardBits(addr mem.Addr, size uint64, n int) uint64 {
	if size == 0 {
		return 0
	}
	first := bucketOf(addr)
	last := bucketOf(lastByte(addr, size))
	if uint64(last-first)+1 >= uint64(n) {
		return allShardBits(n)
	}
	mask := mem.Addr(n - 1)
	var set uint64
	for b := first; b <= last; b++ {
		set |= uint64(1) << (b & mask)
	}
	return set
}

// allShardBits is the bitmap selecting every one of n shards.
func allShardBits(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// grant inserts c into p's own tables. Caller holds the covering shard
// write locks (or exclusively owns a bare principal).
func (p *Principal) grant(c Cap) {
	switch c.Kind {
	case Write:
		e := writeEntry{addr: c.Addr, size: c.Size}
		for set := writeShardBits(c.Addr, c.Size, len(p.shards)); set != 0; set &= set - 1 {
			p.shards[bits.TrailingZeros64(set)].writes.insert(e)
		}
	case Ref:
		sh := &p.shards[p.shardIdx(c.Addr)]
		if sh.refs == nil {
			sh.refs = make(map[refKey]struct{})
		}
		sh.refs[refKey{c.RefType, c.Addr}] = struct{}{}
	case Call:
		sh := &p.shards[p.shardIdx(c.Addr)]
		if sh.calls == nil {
			sh.calls = make(map[mem.Addr]struct{})
		}
		sh.calls[c.Addr] = struct{}{}
	}
}

// owns checks p's own tables only (no shared fallback, no global sweep).
// Caller holds the read lock of the shard c.Addr hashes to; an entry
// covering c was inserted into every shard its range touches, so the
// probe address's shard is authoritative.
func (p *Principal) owns(c Cap) bool {
	sh := &p.shards[p.shardIdx(c.Addr)]
	switch c.Kind {
	case Write:
		return sh.writes.covers(c.Addr, c.Size)
	case Ref:
		_, ok := sh.refs[refKey{c.RefType, c.Addr}]
		return ok
	case Call:
		_, ok := sh.calls[c.Addr]
		return ok
	}
	return false
}

// victim is one WRITE entry a revocation strips, held by the principal
// at index prin of the revocation's principal list.
type victim struct {
	e    writeEntry
	prin int
}

// appendWriteVictims appends to out, as victims of principal index pi,
// p's distinct WRITE entries overlapping c (the conservative direction:
// revocation strips whole entries, so it may remove more than requested,
// never less). It reads only the shards selected by scope, which must
// cover c's range: every overlapping entry was inserted there. It also
// returns the bitmap of every shard the victims' tables span. Caller
// holds the write locks of the scope shards.
func (p *Principal) appendWriteVictims(out []victim, pi int, c Cap, scope uint64) ([]victim, uint64) {
	from := len(out)
	var span uint64
	for ; scope != 0; scope &= scope - 1 {
		is := &p.shards[bits.TrailingZeros64(scope)].writes
		lo, hi := is.overlapWindow(c.Addr, c.Size)
	next:
		for _, e := range is.ents[lo:hi] {
			if !e.overlaps(c.Addr, c.Size) {
				continue
			}
			// An entry spanning several scope shards is met once per
			// shard; keep each distinct victim once.
			for _, v := range out[from:] {
				if v.e == e {
					continue next
				}
			}
			out = append(out, victim{e: e, prin: pi})
			span |= writeShardBits(e.addr, e.size, len(p.shards))
		}
	}
	return out, span
}

// removeVictims strips each victim entry from every shard its range
// spans and returns how many distinct principals lost one. vs is grouped
// by principal, as appendWriteVictims builds it. Caller holds the write
// locks of every shard the victims span.
func removeVictims(prins []*Principal, vs []victim) int {
	n, last := 0, -1
	for _, v := range vs {
		p := prins[v.prin]
		for set := writeShardBits(v.e.addr, v.e.size, len(p.shards)); set != 0; set &= set - 1 {
			p.shards[bits.TrailingZeros64(set)].writes.remove(v.e)
		}
		if v.prin != last {
			n, last = n+1, v.prin
		}
	}
	return n
}

// revokeKey removes a REF or CALL capability from p's own tables and
// reports whether p held it. Caller holds the covering shard's write
// lock.
func (p *Principal) revokeKey(c Cap) bool {
	sh := &p.shards[p.shardIdx(c.Addr)]
	switch c.Kind {
	case Ref:
		k := refKey{c.RefType, c.Addr}
		if _, ok := sh.refs[k]; ok {
			delete(sh.refs, k)
			return true
		}
	case Call:
		if _, ok := sh.calls[c.Addr]; ok {
			delete(sh.calls, c.Addr)
			return true
		}
	}
	return false
}

// lockTables takes every shard's read lock (in ascending order) so
// introspection can walk p's tables while other threads grant and
// revoke. The trusted principal (and test-built bare principals) have
// no owning system and need no lock.
func (p *Principal) lockTables() func() {
	if p == nil || p.set == nil || p.set.sys == nil {
		return func() {}
	}
	s := p.set.sys
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}
}

// WriteRegions returns the distinct WRITE capability regions held
// directly by p, sorted by address. Used by introspection and tests.
func (p *Principal) WriteRegions() []Cap {
	defer p.lockTables()()
	seen := map[writeEntry]bool{}
	var out []Cap
	for i := range p.shards {
		for _, e := range p.shards[i].writes.ents {
			if !seen[e] {
				seen[e] = true
				out = append(out, WriteCap(e.addr, e.size))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// CallTargets returns the CALL capability targets held directly by p.
func (p *Principal) CallTargets() []mem.Addr {
	defer p.lockTables()()
	var out []mem.Addr
	for i := range p.shards {
		for a := range p.shards[i].calls {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RefCaps returns the REF capabilities held directly by p.
func (p *Principal) RefCaps() []Cap {
	defer p.lockTables()()
	var out []Cap
	for i := range p.shards {
		for k := range p.shards[i].refs {
			out = append(out, RefCap(k.typ, k.addr))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].RefType < out[j].RefType
	})
	return out
}

// ShardWrites is one shard's raw WRITE-capability index as coredump
// snapshots see it: the sorted entries plus the prefix-maximum column,
// exposed so an offline validator can re-check the index invariants
// (sortedness, maxEnd[i] = max of entry ends up to i) without access to
// the live structure.
type ShardWrites struct {
	Writes []Cap
	MaxEnd []mem.Addr
}

// DumpShardWrites copies out every shard's WRITE index verbatim, in
// shard order. A capability whose range spans several buckets is
// inserted into every shard it touches, so the same entry may appear in
// more than one shard — consumers diffing totals must dedupe.
func (p *Principal) DumpShardWrites() []ShardWrites {
	defer p.lockTables()()
	out := make([]ShardWrites, len(p.shards))
	for i := range p.shards {
		is := &p.shards[i].writes
		if len(is.ents) == 0 {
			continue
		}
		sw := ShardWrites{
			Writes: make([]Cap, len(is.ents)),
			MaxEnd: append([]mem.Addr(nil), is.maxEnd...),
		}
		for j, e := range is.ents {
			sw.Writes[j] = WriteCap(e.addr, e.size)
		}
		out[i] = sw
	}
	return out
}

// ModuleSet holds all principals belonging to one loaded module.
type ModuleSet struct {
	Module string

	sys *System // owning system (shard locks, principal snapshot)

	// mu guards instances and aliases. Lock order: before any shard
	// lock (global checks walk the directory, then probe tables) and
	// before prinMu (instance creation publishes to the snapshot).
	mu        sync.RWMutex
	shared    *Principal
	global    *Principal
	instances map[mem.Addr]*Principal
	aliases   map[mem.Addr]*Principal // principal name -> canonical principal
}

// Shared returns the module's shared principal.
func (ms *ModuleSet) Shared() *Principal { return ms.shared }

// Global returns the module's global principal.
func (ms *ModuleSet) Global() *Principal { return ms.global }

// Instance returns the principal named by addr, creating it on first
// use. Aliases established with Alias resolve to their canonical
// principal.
func (ms *ModuleSet) Instance(addr mem.Addr) *Principal {
	// Fast path: the name already resolves.
	ms.mu.RLock()
	if p, ok := ms.aliases[addr]; ok {
		ms.mu.RUnlock()
		return p
	}
	ms.mu.RUnlock()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.instanceLocked(addr)
}

func (ms *ModuleSet) instanceLocked(addr mem.Addr) *Principal {
	if p, ok := ms.aliases[addr]; ok {
		return p
	}
	p, ok := ms.instances[addr]
	if !ok {
		p = newPrincipal(ms, ms.Module, addr, Instance)
		ms.instances[addr] = p
		ms.aliases[addr] = p
		ms.sys.addPrin(p)
	}
	return p
}

// Lookup returns the principal for addr without creating one.
func (ms *ModuleSet) Lookup(addr mem.Addr) (*Principal, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	p, ok := ms.aliases[addr]
	return p, ok
}

// Alias makes alias a second name for the principal currently named by
// existing (lxfi_princ_alias in the paper). The existing principal is
// created if absent.
func (ms *ModuleSet) Alias(existing, alias mem.Addr) error {
	if alias == 0 {
		return fmt.Errorf("caps: cannot alias the NULL name")
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	p := ms.instanceLocked(existing)
	if cur, ok := ms.aliases[alias]; ok && cur != p {
		return fmt.Errorf("caps: name %#x already bound to %s", uint64(alias), cur)
	}
	ms.aliases[alias] = p
	return nil
}

// DropInstance removes the principal named addr (and every alias of it)
// along with all of its capabilities; called when the instance's backing
// object is destroyed. Dropping bumps the capability epoch: a check
// cache warmed while the principal lived must not answer for a recycled
// name.
func (ms *ModuleSet) DropInstance(addr mem.Addr) {
	ms.mu.Lock()
	p, ok := ms.aliases[addr]
	if !ok {
		ms.mu.Unlock()
		return
	}
	for name, q := range ms.aliases {
		if q == p {
			delete(ms.aliases, name)
		}
	}
	delete(ms.instances, p.Name)
	ms.sys.removePrins(func(q *Principal) bool { return q == p })
	ms.mu.Unlock()
	ms.sys.bumpEpoch()
}

// Principals returns all principals of the module (shared, global, and
// all instances), sorted for determinism.
func (ms *ModuleSet) Principals() []*Principal {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return ms.principalsLocked()
}

func (ms *ModuleSet) principalsLocked() []*Principal {
	out := []*Principal{ms.shared, ms.global}
	var inst []*Principal
	for _, p := range ms.instances {
		inst = append(inst, p)
	}
	sort.Slice(inst, func(i, j int) bool { return inst[i].Name < inst[j].Name })
	return append(out, inst...)
}

// capShard is one lock of the sharded capability state, padded so
// neighboring shard locks do not share a cache line under contention.
type capShard struct {
	mu sync.RWMutex
	// victims is WRITE revocation's scratch list. A revocation uses the
	// scratch of the lowest shard it holds write-locked, which
	// serializes its users, and keeps the backing array, so the
	// transfer-heavy crossing paths stay allocation-free.
	victims []victim
	_       [16]byte
}

// maxShards bounds the shard count so a shard set fits one uint64
// bitmap. The per-principal tables grow with the count (one prinShard
// per shard), which is what keeps it from growing further.
const maxShards = 64

// shardsPerProc is how many capability shards each GOMAXPROCS slot gets.
const shardsPerProc = 4

// pickShardCount returns the smallest power of two covering
// shardsPerProc × GOMAXPROCS, clamped to [1, maxShards]: 8 shards on a
// 2-core host. No operation locks every shard on the crossing path (a
// WRITE revocation locks its range's shards), so more shards than
// threads make two threads' checks and transfers rarely meet on one
// lock.
func pickShardCount() int { return roundShards(shardsPerProc * runtime.GOMAXPROCS(0)) }

// roundShards rounds n up to a power of two, clamped to [1, maxShards].
func roundShards(n int) int {
	s := 1
	for s < n && s < maxShards {
		s <<= 1
	}
	return s
}

// System is the global capability state: every loaded module's principal
// set. Transfer actions revoke from all principals system-wide, so the
// system is the unit that owns revocation.
type System struct {
	nshards int
	mask    mem.Addr
	shards  []capShard

	// epoch counts capability mutations. Per-thread check caches carry
	// the epoch they were filled under and treat any mismatch as a miss,
	// so no revoked capability is ever served from a cache.
	epoch atomic.Uint64

	// prins is a copy-on-write snapshot of every principal in the
	// system, sorted (module, kind, name) — the traversal RevokeAll and
	// the grantee sweeps use without taking directory locks. prinMu
	// serializes writers.
	prinMu sync.Mutex
	prins  atomic.Pointer[[]*Principal]

	// Trusted is the core-kernel principal: all checks against it
	// succeed and grants to it are no-ops (the kernel is fully trusted,
	// §2.3).
	Trusted *Principal
}

// NewSystem returns an empty capability system sharded for the host
// (pickShardCount).
func NewSystem() *System {
	return NewSystemWithShards(pickShardCount())
}

// NewSystemWithShards returns an empty capability system with an
// explicit shard count (rounded up to a power of two, clamped to
// [1, 64]). Tests and benchmarks use it to exercise multi-shard
// behavior regardless of the host's core count.
func NewSystemWithShards(n int) *System {
	n = roundShards(n)
	s := &System{
		nshards: n,
		mask:    mem.Addr(n - 1),
		shards:  make([]capShard, n),
		Trusted: &Principal{Module: "kernel", Kind: Shared},
	}
	empty := []*Principal{}
	s.prins.Store(&empty)
	return s
}

// ShardCount returns the number of capability shards (diagnostics and
// the crossing microbenchmark report).
func (s *System) ShardCount() int { return s.nshards }

// Epoch returns the current capability epoch. Every grant, revoke,
// transfer revocation, module load/unload, and instance drop advances
// it; caches keyed to an older epoch must revalidate.
func (s *System) Epoch() uint64 { return s.epoch.Load() }

func (s *System) bumpEpoch() { s.epoch.Add(1) }

func (s *System) shardOf(a mem.Addr) int { return int(bucketOf(a) & s.mask) }

// shardBits returns the bitmap of shards capability c's tables touch.
func (s *System) shardBits(c Cap) uint64 {
	if c.Kind != Write {
		return uint64(1) << s.shardOf(c.Addr)
	}
	return writeShardBits(c.Addr, c.Size, s.nshards)
}

// lockShards write-locks the selected shards in ascending index order —
// the shard-ordering rule every multi-shard operation follows.
func (s *System) lockShards(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.shards[bits.TrailingZeros64(set)].mu.Lock()
	}
}

func (s *System) unlockShards(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.shards[bits.TrailingZeros64(set)].mu.Unlock()
	}
}

// addPrin publishes p in the sorted copy-on-write principal snapshot.
func (s *System) addPrin(p *Principal) {
	s.prinMu.Lock()
	defer s.prinMu.Unlock()
	old := *s.prins.Load()
	i := sort.Search(len(old), func(j int) bool { return prinLess(p, old[j]) })
	lst := make([]*Principal, len(old)+1)
	copy(lst, old[:i])
	lst[i] = p
	copy(lst[i+1:], old[i:])
	s.prins.Store(&lst)
}

// removePrins drops every principal matching the predicate from the
// snapshot.
func (s *System) removePrins(match func(*Principal) bool) {
	s.prinMu.Lock()
	defer s.prinMu.Unlock()
	old := *s.prins.Load()
	lst := make([]*Principal, 0, len(old))
	for _, q := range old {
		if !match(q) {
			lst = append(lst, q)
		}
	}
	s.prins.Store(&lst)
}

func prinRank(k PrincipalKind) int {
	switch k {
	case Shared:
		return 0
	case Global:
		return 1
	}
	return 2
}

func prinLess(a, b *Principal) bool {
	if a.Module != b.Module {
		return a.Module < b.Module
	}
	if ra, rb := prinRank(a.Kind), prinRank(b.Kind); ra != rb {
		return ra < rb
	}
	return a.Name < b.Name
}

// LoadModule creates a principal set for a module named name.
func (s *System) LoadModule(name string) *ModuleSet {
	ms := &ModuleSet{
		Module:    name,
		sys:       s,
		instances: make(map[mem.Addr]*Principal),
		aliases:   make(map[mem.Addr]*Principal),
	}
	ms.shared = newPrincipal(ms, name, 0, Shared)
	ms.global = newPrincipal(ms, name, 0, Global)
	s.addPrin(ms.shared)
	s.addPrin(ms.global)
	s.bumpEpoch()
	return ms
}

// UnloadModule discards all principals and capabilities of ms.
func (s *System) UnloadModule(ms *ModuleSet) {
	s.removePrins(func(q *Principal) bool { return q.set == ms })
	s.bumpEpoch()
}

// Grant gives capability c to principal p. Granting to the trusted
// kernel principal is a no-op: the kernel implicitly owns everything.
func (s *System) Grant(p *Principal, c Cap) {
	if p == nil || p.IsTrusted() {
		return
	}
	set := s.shardBits(c)
	s.lockShards(set)
	p.grant(c)
	s.unlockShards(set)
	s.bumpEpoch()
}

// Check reports whether principal p holds capability c, honoring the
// implicit-access rules of §3.1:
//
//   - every principal implicitly has the shared principal's capabilities;
//   - the global principal implicitly has every principal's capabilities;
//   - the trusted kernel principal holds everything.
//
// A nil principal means "running as the core kernel" and also passes.
// The hot path takes exactly one shard read lock and performs no
// allocation.
func (s *System) Check(p *Principal, c Cap) bool {
	if p == nil || p.IsTrusted() {
		return true
	}
	ms := p.set
	sh := &s.shards[s.shardOf(c.Addr)]
	switch p.Kind {
	case Global:
		ms.mu.RLock()
		sh.mu.RLock()
		ok := ms.shared.owns(c) || ms.global.owns(c)
		if !ok {
			for _, q := range ms.instances {
				if q.owns(c) {
					ok = true
					break
				}
			}
		}
		sh.mu.RUnlock()
		ms.mu.RUnlock()
		return ok
	case Shared:
		sh.mu.RLock()
		ok := ms.shared.owns(c)
		sh.mu.RUnlock()
		return ok
	default:
		sh.mu.RLock()
		ok := p.owns(c) || ms.shared.owns(c)
		sh.mu.RUnlock()
		return ok
	}
}

// OwnsDirectly reports whether p's own table holds c, with no implicit
// fallback. Used by tests and by transfer bookkeeping.
func (s *System) OwnsDirectly(p *Principal, c Cap) bool {
	if p == nil || p.IsTrusted() {
		return true
	}
	sh := &s.shards[s.shardOf(c.Addr)]
	sh.mu.RLock()
	ok := p.owns(c)
	sh.mu.RUnlock()
	return ok
}

// Revoke removes capability c from principal p only.
func (s *System) Revoke(p *Principal, c Cap) {
	if p == nil || p.IsTrusted() {
		return
	}
	s.revoke(p, c, nil)
}

// RevokeAll removes capability c from every principal of every module in
// the system and returns how many principals lost a capability. This
// implements the transfer semantics of §3.3: "Transfer actions revoke
// the transferred capability from all principals in the system, rather
// than just from the immediate source", so that no copies remain and the
// referenced object can be reused safely.
func (s *System) RevokeAll(c Cap) int { return s.revoke(nil, c, nil) }

// Transfer is the transfer action of §3.3 as one operation: it revokes c
// from every principal in the system, then grants it to `to` (a nil or
// trusted `to` receives nothing: the kernel owns everything), under one
// acquisition of the shard locks and with one epoch bump. A concurrent
// check sees either the old holders or the new one, never a capability
// held by nobody in between. It returns how many principals lost a
// capability.
func (s *System) Transfer(c Cap, to *Principal) int {
	if to != nil && to.IsTrusted() {
		to = nil
	}
	return s.revoke(nil, c, to)
}

// revoke strips c from only (every principal in the system when only is
// nil), then grants c to `to` when it is not nil, and bumps the epoch
// once. It write-locks the shards c's range covers and collects every
// victim there in one pass, into the scratch of the lowest locked
// shard. Only when a victim WRITE entry reaches into further shards does
// it release every lock, re-lock the union in ascending order and
// collect again: a re-lock holds nothing while it waits, so it adds no
// hold-and-wait edge. The principal snapshot is loaded after the locks
// are held: a grant of an overlapping entry holds a shard of c's range,
// so one that completed before we took that shard published its
// principal first (a freshly created one included), and the sweep
// cannot miss a holder.
func (s *System) revoke(only *Principal, c Cap, to *Principal) int {
	scope := s.shardBits(c)
	if scope == 0 { // an empty WRITE range names no byte
		s.bumpEpoch()
		return 0
	}
	held := scope
	one := [1]*Principal{only}
	for {
		s.lockShards(held)
		prins := *s.prins.Load()
		if only != nil {
			prins = one[:]
		}
		n := 0
		if c.Kind == Write {
			sh := &s.shards[bits.TrailingZeros64(held)]
			vs := sh.victims[:0]
			var span uint64
			for pi, p := range prins {
				var ps uint64
				vs, ps = p.appendWriteVictims(vs, pi, c, scope)
				span |= ps
			}
			sh.victims = vs[:0]
			if span&^held != 0 {
				s.unlockShards(held)
				held |= span
				continue
			}
			n = removeVictims(prins, vs)
		} else {
			for _, p := range prins {
				if p.revokeKey(c) {
					n++
				}
			}
		}
		if to != nil {
			to.grant(c)
		}
		s.unlockShards(held)
		s.bumpEpoch()
		return n
	}
}

// appendGrantees traverses the principal snapshot (already in stable
// order) and appends those whose own table holds probe to out.
func (s *System) appendGrantees(out []*Principal, probe Cap) []*Principal {
	sh := &s.shards[s.shardOf(probe.Addr)]
	sh.mu.RLock()
	// Snapshot after the lock, for the same reason as RevokeAll: a
	// writer granted before our acquisition must be visible to the
	// writer-set sweep behind indirect-call CFI.
	prins := *s.prins.Load()
	for _, p := range prins {
		if p.owns(probe) {
			out = append(out, p)
		}
	}
	sh.mu.RUnlock()
	return out
}

// RefGrantees returns every principal that directly holds a REF(typ, addr)
// capability. Introspection for tests and audits: after a transfer-based
// REF handoff returns (e.g. the VFS writepage path), no module principal
// should appear here for the page.
func (s *System) RefGrantees(typ string, addr mem.Addr) []*Principal {
	return s.appendGrantees(nil, RefCap(typ, addr))
}

// WriteGrantees appends to dst every principal that directly holds a
// WRITE capability covering addr, and returns the extended slice; a
// caller that keeps the slice and passes it back truncated sweeps
// without allocating. This is the slow path of writer-set tracking:
// "the actual contents of non-empty writer sets is computed by
// traversing a global list of principals" (§5).
func (s *System) WriteGrantees(dst []*Principal, addr mem.Addr) []*Principal {
	return s.appendGrantees(dst, WriteCap(addr, 1))
}
