// Package wst implements LXFI's writer-set tracking optimization (§4.1,
// §5 of the paper).
//
// To make core-kernel indirect calls cheap, LXFI keeps, per memory
// segment, a flag saying whether any module principal has ever been
// granted a WRITE capability covering that segment. At an indirect call
// site, if the flag is clear the expensive capability check is skipped
// entirely ("the runtime can bypass the relatively expensive capability
// check for the function pointer"). The actual contents of non-empty
// writer sets are computed on the slow path by traversing the global
// list of principals (caps.System.WriteGrantees).
//
// The tracker only accumulates: nothing clears a segment, so revoking
// or freeing memory leaves its flag set, and a later indirect call
// through it takes the slow path, whose grantee sweep finds the writer
// set empty. That is conservative: a clear flag always means no module
// principal was ever granted WRITE there.
//
// The structure mirrors the paper's "data structure similar to a page
// table": a map from page base to a 64-bit bitmap whose bits cover
// 64-byte segments of the page. MarkRange builds each page's segment
// mask and touches the map once per page.
package wst

import (
	"sync"

	"lxfi/internal/mem"
)

// SegmentSize is the granularity of writer-set emptiness tracking.
const SegmentSize = 64

const segsPerPage = mem.PageSize / SegmentSize // 64 — fits one uint64 bitmap

// Tracker records, per 64-byte segment, whether the writer set is
// non-empty.
type Tracker struct {
	mu    sync.Mutex
	pages map[mem.Addr]uint64 // page base -> segment bitmap

	marks  uint64 // MarkRange calls
	probes uint64 // Empty probes
	hits   uint64 // probes that found an empty writer set (fast path)
}

// New returns an empty tracker.
func New() *Tracker {
	return &Tracker{pages: make(map[mem.Addr]uint64)}
}

func segBit(a mem.Addr) (page mem.Addr, bit uint) {
	return mem.PageBase(a), uint((a & mem.PageMask) / SegmentSize)
}

// segRun is a run of segments [s, last], by segment number, walked one
// page at a time.
type segRun struct{ s, last mem.Addr }

// touching returns the run of segments the nonempty range [addr,
// addr+size) touches, its end saturated at the top of the address space
// (a range that wraps past it reaches the top, never address 0).
func touching(addr mem.Addr, size uint64) segRun {
	end := addr + mem.Addr(size-1)
	if end < addr {
		end = ^mem.Addr(0)
	}
	return segRun{addr / SegmentSize, end / SegmentSize}
}

// next returns the base of the next page the run touches and the mask
// of the run's segments in it, or ok false when the run is done.
func (r *segRun) next() (page mem.Addr, mask uint64, ok bool) {
	if r.s > r.last {
		return 0, 0, false
	}
	lo := r.s % segsPerPage
	hi := mem.Addr(segsPerPage - 1)
	if r.last-r.s < hi-lo {
		hi = lo + (r.last - r.s)
	}
	page = (r.s - lo) * SegmentSize
	mask = ^uint64(0) >> (segsPerPage - 1 - hi) & (^uint64(0) << lo)
	r.s += hi - lo + 1
	return page, mask, true
}

// MarkRange records that some principal was granted WRITE access to
// [addr, addr+size).
func (t *Tracker) MarkRange(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.marks++
	for r := touching(addr, size); ; {
		page, mask, ok := r.next()
		if !ok {
			return
		}
		t.pages[page] |= mask
	}
}

// Empty reports whether the writer set for the segment containing addr
// is empty. This is the constant-time fast-path test.
func (t *Tracker) Empty(addr mem.Addr) bool {
	page, bit := segBit(addr)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probes++
	empty := t.pages[page]&(1<<bit) == 0
	if empty {
		t.hits++
	}
	return empty
}

// Pages returns a copy of the page-base → segment-bitmap map, for
// coredump snapshots.
func (t *Tracker) Pages() map[mem.Addr]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[mem.Addr]uint64, len(t.pages))
	for k, v := range t.pages {
		out[k] = v
	}
	return out
}

// Stats returns (marks, probes, fast-path hits).
func (t *Tracker) Stats() (marks, probes, hits uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.marks, t.probes, t.hits
}
