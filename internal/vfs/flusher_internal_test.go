package vfs

import (
	"testing"
	"time"

	"lxfi/internal/mem"
)

// White-box test of the adaptive flusher policy: under dirty pressure
// the tick halves per pass down to base/minIntervalDiv; once the cache
// runs clean it doubles back to the base. A zero threshold pins the
// fixed tick.
func TestFlusherAdaptiveInterval(t *testing.T) {
	v := &VFS{
		pages:     make(map[pageKey]*pageEnt),
		dirty:     make(map[pageKey]bool),
		flushKick: make(chan struct{}, 1),
	}
	const base = 8 * time.Millisecond
	v.EnableWriteback(base, 0.25)
	if got := v.FlushInterval(); got != base {
		t.Fatalf("initial interval = %v, want %v", got, base)
	}

	// Pressure: 6 of 10 budgeted pages dirty (0.6 > 0.25).
	v.pageBudget = 10
	for i := 0; i < 6; i++ {
		key := pageKey{ino: mem.Addr(0x1000 + i), idx: 0}
		v.pages[key] = &pageEnt{key: key, pg: mem.Addr(0x100000 + i*mem.PageSize)}
		v.dirty[key] = true
	}
	want := base
	for i := 0; i < 10; i++ {
		v.adaptInterval()
		if want > base/minIntervalDiv {
			want /= 2
		}
		if got := v.FlushInterval(); got != want {
			t.Fatalf("pass %d under pressure: interval = %v, want %v", i, got, want)
		}
	}
	if v.FlushInterval() != base/minIntervalDiv {
		t.Fatalf("floor = %v, want %v", v.FlushInterval(), base/minIntervalDiv)
	}

	// Clean again: the tick backs off to the base and stays there.
	v.dirty = make(map[pageKey]bool)
	for i := 0; i < 10; i++ {
		v.adaptInterval()
	}
	if got := v.FlushInterval(); got != base {
		t.Fatalf("after back-off: interval = %v, want %v", got, base)
	}

	// Threshold 0 disables adaptation even under full dirt.
	v.EnableWriteback(base, 0)
	for i := 0; i < 6; i++ {
		key := pageKey{ino: mem.Addr(0x1000 + i), idx: 0}
		v.dirty[key] = true
	}
	v.adaptInterval()
	if got := v.FlushInterval(); got != base {
		t.Fatalf("fixed tick moved: %v, want %v", got, base)
	}
}

// dirtyFraction steers on the budget when one is set and the cache
// population otherwise.
func TestDirtyFractionDenominator(t *testing.T) {
	v := &VFS{
		pages: make(map[pageKey]*pageEnt),
		dirty: make(map[pageKey]bool),
	}
	for i := 0; i < 4; i++ {
		key := pageKey{ino: mem.Addr(i), idx: 0}
		v.pages[key] = &pageEnt{key: key, pg: mem.Addr(0x1000 * (i + 1))}
		if i < 2 {
			v.dirty[key] = true
		}
	}
	if got := v.dirtyFraction(); got != 0.5 {
		t.Fatalf("unbudgeted fraction = %v, want 0.5", got)
	}
	v.pageBudget = 8
	if got := v.dirtyFraction(); got != 0.25 {
		t.Fatalf("budgeted fraction = %v, want 0.25", got)
	}
}
