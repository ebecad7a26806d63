package caps

import "lxfi/internal/mem"

// LinearWriteSet is the naive baseline for WRITE-capability lookup: a
// flat list of ranges scanned on every check. It exists for the
// ablation benchmarks of the paper's §5 design claim — that inserting
// each capability into every 4 KiB bucket it covers gives constant
// expected lookup time, where a flat (or tree) structure degrades as
// the capability count grows. The differential property test in
// linear_test.go verifies both implementations agree exactly.
type LinearWriteSet struct {
	entries []writeEntry
}

// Grant adds a WRITE range.
func (l *LinearWriteSet) Grant(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	e := writeEntry{addr: addr, size: size}
	for _, have := range l.entries {
		if have == e {
			return
		}
	}
	l.entries = append(l.entries, e)
}

// Check reports whether some entry covers [addr, addr+size).
func (l *LinearWriteSet) Check(addr mem.Addr, size uint64) bool {
	for _, e := range l.entries {
		if e.covers(addr, size) {
			return true
		}
	}
	return false
}

// RevokeOverlap removes every entry overlapping [addr, addr+size),
// mirroring the conservative semantics of System.Revoke.
func (l *LinearWriteSet) RevokeOverlap(addr mem.Addr, size uint64) bool {
	out := l.entries[:0]
	removed := false
	for _, e := range l.entries {
		if e.overlaps(addr, size) {
			removed = true
			continue
		}
		out = append(out, e)
	}
	l.entries = out
	return removed
}

// Len returns the number of live entries.
func (l *LinearWriteSet) Len() int { return len(l.entries) }

// BucketWriteSet wraps a lone principal's WRITE table — now the sorted
// interval index of interval.go, reached through the same bucket-hashed
// sharding the live system uses — with the same interface, for
// side-by-side benchmarking against the linear baseline.
type BucketWriteSet struct {
	p       *Principal
	victims []victim
}

// NewBucketWriteSet returns an empty bucketed set.
func NewBucketWriteSet() *BucketWriteSet {
	return &BucketWriteSet{p: newPrincipal(nil, "bench", 0, Instance)}
}

// Grant adds a WRITE range.
func (b *BucketWriteSet) Grant(addr mem.Addr, size uint64) {
	b.p.grant(WriteCap(addr, size))
}

// Check reports whether some entry covers [addr, addr+size).
func (b *BucketWriteSet) Check(addr mem.Addr, size uint64) bool {
	return b.p.owns(WriteCap(addr, size))
}

// RevokeOverlap removes overlapping entries.
func (b *BucketWriteSet) RevokeOverlap(addr mem.Addr, size uint64) bool {
	prins := []*Principal{b.p}
	b.victims, _ = b.p.appendWriteVictims(b.victims[:0], 0, WriteCap(addr, size), 1)
	return removeVictims(prins, b.victims) != 0
}
