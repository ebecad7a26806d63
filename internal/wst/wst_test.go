package wst

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"lxfi/internal/mem"
)

const base = mem.Addr(0xffff880000010000)

func TestMarkAndProbe(t *testing.T) {
	tr := New()
	if !tr.Empty(base) {
		t.Fatal("fresh tracker must be empty")
	}
	tr.MarkRange(base+10, 4)
	if tr.Empty(base + 10) {
		t.Fatal("marked segment reported empty")
	}
	// Same 64-byte segment.
	if tr.Empty(base) || tr.Empty(base+63) {
		t.Fatal("segment granularity: whole 64-byte segment should be marked")
	}
	// Next segment untouched.
	if !tr.Empty(base + 64) {
		t.Fatal("next segment should be empty")
	}
}

func TestMarkRangeSpanningSegmentsAndPages(t *testing.T) {
	tr := New()
	start := base + mem.PageSize - 100
	tr.MarkRange(start, 200) // crosses a page boundary
	for a := start; a < start+200; a += 16 {
		if tr.Empty(a) {
			t.Fatalf("addr %#x should be marked", uint64(a))
		}
	}
	if !tr.EmptyRange(base, 64) {
		t.Fatal("unrelated range marked")
	}
	if tr.EmptyRange(start, 200) {
		t.Fatal("EmptyRange over marked range")
	}
}

func TestClearRange(t *testing.T) {
	tr := New()
	tr.MarkRange(base, 256)
	// Clearing a partially-covered segment must be conservative.
	tr.ClearRange(base+1, 255)
	if tr.Empty(base) {
		t.Fatal("partially cleared first segment must stay marked")
	}
	for a := base + 64; a < base+256; a += 64 {
		if !tr.Empty(a) {
			t.Fatalf("segment %#x should be cleared", uint64(a))
		}
	}
	// Full clear.
	tr.MarkRange(base, 256)
	tr.ClearRange(base, 256)
	if !tr.EmptyRange(base, 256) {
		t.Fatal("full clear failed")
	}
}

func TestZeroSize(t *testing.T) {
	tr := New()
	tr.MarkRange(base, 0)
	if !tr.Empty(base) {
		t.Fatal("zero-size mark must be a no-op")
	}
	tr.ClearRange(base, 0)
	if !tr.EmptyRange(base, 0) {
		t.Fatal("zero-size range is trivially empty")
	}
}

func TestStats(t *testing.T) {
	tr := New()
	tr.MarkRange(base, 8)
	tr.Empty(base)      // slow path
	tr.Empty(base + 64) // fast path (empty)
	marks, probes, hits := tr.Stats()
	if marks != 1 || probes != 2 || hits != 1 {
		t.Fatalf("stats = %d/%d/%d", marks, probes, hits)
	}
	tr.Reset()
	marks, probes, hits = tr.Stats()
	if marks != 0 || probes != 0 || hits != 0 {
		t.Fatal("reset failed")
	}
	if !tr.Empty(base) {
		t.Fatal("reset should clear marks")
	}
}

// Property: every address inside a marked range probes non-empty, and a
// mark never affects addresses more than a segment away from the range.
func TestMarkProperty(t *testing.T) {
	f := func(off uint16, size uint16, probe uint16) bool {
		tr := New()
		sz := uint64(size%5000) + 1
		start := base + mem.Addr(off)
		tr.MarkRange(start, sz)
		// Inside: never empty.
		in := start + mem.Addr(uint64(probe)%sz)
		if tr.Empty(in) {
			return false
		}
		// Far outside: always empty.
		if !tr.Empty(start + mem.Addr(sz) + 2*SegmentSize) {
			return false
		}
		return tr.Empty(start - 2*SegmentSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// segRef is the per-segment reference the page-mask range operations
// must agree with: one bit per 64-byte segment, probed one at a time.
type segRef struct {
	marked       map[mem.Addr]bool // segment number -> marked
	probes, hits uint64
}

func refSegs(addr mem.Addr, size uint64) (first, last mem.Addr) {
	end := addr + mem.Addr(size-1)
	if end < addr {
		end = ^mem.Addr(0)
	}
	return addr / SegmentSize, end / SegmentSize
}

func (r *segRef) mark(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := refSegs(addr, size)
	for s := first; ; s++ {
		r.marked[s] = true
		if s == last {
			return
		}
	}
}

func (r *segRef) clear(addr mem.Addr, size uint64) {
	end := addr + mem.Addr(size)
	if size == 0 || end <= addr {
		return
	}
	for s := (addr + SegmentSize - 1) / SegmentSize; s < end/SegmentSize; s++ {
		delete(r.marked, s)
	}
}

func (r *segRef) emptyRange(addr mem.Addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first, last := refSegs(addr, size)
	for s := first; ; s++ {
		r.probes++
		if r.marked[s] {
			return false
		}
		r.hits++
		if s == last {
			return true
		}
	}
}

// TestRangeOpsMatchPerSegment drives MarkRange, ClearRange and
// EmptyRange, which update and read the map once per page, and a
// per-segment reference with the same seeded ranges: ranges that cross
// pages, start or end inside a segment, are empty, or reach the top of
// the address space. Every segment's state, the probe and hit counts and
// the map's shape (no page kept with an empty bitmap) must agree.
func TestRangeOpsMatchPerSegment(t *testing.T) {
	regions := []mem.Addr{base, ^mem.Addr(0) - 3*mem.PageSize + 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := &segRef{marked: map[mem.Addr]bool{}}
		for step := 0; step < 200; step++ {
			region := regions[rng.Intn(len(regions))]
			addr := region + mem.Addr(rng.Intn(3*mem.PageSize))
			var size uint64
			switch rng.Intn(8) {
			case 0:
				size = 0
			case 1:
				size = uint64(1 + rng.Intn(SegmentSize))
			default:
				size = uint64(1 + rng.Intn(3*mem.PageSize))
			}
			switch rng.Intn(3) {
			case 0:
				tr.MarkRange(addr, size)
				ref.mark(addr, size)
			case 1:
				tr.ClearRange(addr, size)
				ref.clear(addr, size)
			default:
				if got, want := tr.EmptyRange(addr, size), ref.emptyRange(addr, size); got != want {
					t.Fatalf("seed %d step %d: EmptyRange(%#x, %d) = %v, per segment %v",
						seed, step, uint64(addr), size, got, want)
				}
				if _, probes, hits := tr.Stats(); probes != ref.probes || hits != ref.hits {
					t.Fatalf("seed %d step %d: EmptyRange(%#x, %d) counted %d probes, %d hits; per segment %d, %d",
						seed, step, uint64(addr), size, probes, hits, ref.probes, ref.hits)
				}
			}
		}
		for _, region := range regions {
			for a := region - mem.PageSize; a != region+4*mem.PageSize; a += SegmentSize {
				if got, want := tr.Empty(a), !ref.marked[a/SegmentSize]; got != want {
					t.Fatalf("seed %d: segment at %#x empty = %v, per segment %v", seed, uint64(a), got, want)
				}
			}
		}
		for page, m := range tr.Pages() {
			if m == 0 {
				t.Fatalf("seed %d: page %#x kept with an empty bitmap", seed, uint64(page))
			}
		}
	}
}

// TestConcurrentMarkClearProbe: goroutines mark, probe and clear their
// own pages through the one tracker while probing each other's; each
// sees its own marks and clears exactly. Run under -race in CI's
// concurrency battery.
func TestConcurrentMarkClearProbe(t *testing.T) {
	tr := New()
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := base + mem.Addr(w)*4*mem.PageSize
			for i := 0; i < rounds; i++ {
				addr := own + mem.Addr(i%97)*SegmentSize
				size := uint64(i%3)*mem.PageSize + SegmentSize
				tr.MarkRange(addr, size)
				if tr.EmptyRange(addr, size) || tr.Empty(addr+mem.Addr(size)-1) {
					errs <- fmt.Errorf("worker %d round %d: marked range reads empty", w, i)
					return
				}
				tr.ClearRange(addr, size)
				if !tr.EmptyRange(addr, size) {
					errs <- fmt.Errorf("worker %d round %d: cleared range reads marked", w, i)
					return
				}
				_ = tr.Empty(base + mem.Addr((w+1)%workers)*4*mem.PageSize)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
