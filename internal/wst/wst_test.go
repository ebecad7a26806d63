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
	if !tr.Empty(base) {
		t.Fatal("unrelated segment marked")
	}
}

func TestZeroSize(t *testing.T) {
	tr := New()
	tr.MarkRange(base, 0)
	if !tr.Empty(base) {
		t.Fatal("zero-size mark must be a no-op")
	}
}

func TestStats(t *testing.T) {
	tr := New()
	tr.MarkRange(base, 8)
	tr.Empty(base)      // slow path
	tr.Empty(base + 64) // fast path (empty)
	if marks, probes, hits := tr.Stats(); marks != 1 || probes != 2 || hits != 1 {
		t.Fatalf("stats = %d/%d/%d", marks, probes, hits)
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

// segRef is the per-segment reference the page-mask MarkRange must
// agree with: one flag per 64-byte segment, marked one at a time.
type segRef map[mem.Addr]bool // segment number -> marked

func (r segRef) mark(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	end := addr + mem.Addr(size-1)
	if end < addr {
		end = ^mem.Addr(0)
	}
	for s := addr / SegmentSize; ; s++ {
		r[s] = true
		if s == end/SegmentSize {
			return
		}
	}
}

// TestRangeOpsMatchPerSegment drives MarkRange, which updates the map
// once per page, and a per-segment reference with the same seeded
// ranges: ranges that cross pages, start or end inside a segment, are
// empty, or reach the top of the address space. Every segment's Empty
// probe, and the probe and hit counts, must agree.
func TestRangeOpsMatchPerSegment(t *testing.T) {
	regions := []mem.Addr{base, ^mem.Addr(0) - 3*mem.PageSize + 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := segRef{}
		var probes, hits uint64
		for step := 0; step < 100; step++ {
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
			tr.MarkRange(addr, size)
			ref.mark(addr, size)
		}
		for _, region := range regions {
			for a := region - mem.PageSize; a != region+4*mem.PageSize; a += SegmentSize {
				want := !ref[a/SegmentSize]
				if got := tr.Empty(a); got != want {
					t.Fatalf("seed %d: segment at %#x empty = %v, per segment %v", seed, uint64(a), got, want)
				}
				probes++
				if want {
					hits++
				}
			}
		}
		if _, p, h := tr.Stats(); p != probes || h != hits {
			t.Fatalf("seed %d: counted %d probes, %d hits; per segment %d, %d", seed, p, h, probes, hits)
		}
	}
}

// TestConcurrentMarkProbe: goroutines mark and probe their own pages
// through the one tracker while probing each other's; each sees its own
// marks exactly, and never a mark outside them. Run under -race in CI's
// concurrency battery.
func TestConcurrentMarkProbe(t *testing.T) {
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
				if tr.Empty(addr) || tr.Empty(addr+mem.Addr(size)-1) {
					errs <- fmt.Errorf("worker %d round %d: marked range reads empty", w, i)
					return
				}
				// A mark ends at most 97 segments and two pages past
				// own, short of the last segment of the worker's pages.
				if !tr.Empty(own + 4*mem.PageSize - SegmentSize) {
					errs <- fmt.Errorf("worker %d round %d: unmarked segment reads marked", w, i)
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
