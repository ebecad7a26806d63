package vfs

import (
	"math"
	"time"

	"lxfi/internal/core"
)

// Background writeback: a kflushd-style kernel thread that ages dirty
// pages out through the owning module's REF-checked writepage, so
// foreground eviction under memory pressure finds clean victims and
// stops paying the writepage crossing itself.
//
// The daemon is spawned at boot (vfs.Init registers it with the kernel)
// but parks until EnableWriteback hands it an interval. Aging is
// tick-based: a page dirtied during tick T is written back by the first
// flush pass of tick T+1 or later, so pages redirtied continuously are
// still flushed at interval granularity, while a page the foreground is
// actively writing is never stolen mid-burst within the same tick.
//
// The interval is adaptive: EnableWriteback takes a dirty-ratio
// threshold alongside the base interval. After each pass the flusher
// compares the cache's dirty fraction against the threshold — under
// pressure the tick halves (down to 1/8 of the base) so dirty pages
// drain before foreground eviction is forced to write them back; once
// the cache runs clean the tick doubles back toward the base. A
// threshold <= 0 disables adaptation (fixed tick, the old behavior).

// minIntervalDiv bounds how far pressure can shorten the tick.
const minIntervalDiv = 8

// EnableWriteback starts periodic background writeback with the given
// base interval and dirty-ratio threshold (fraction of the page cache
// that may be dirty before the flusher speeds up; <= 0 disables
// adaptation). Safe to call at any time; a second call retunes both.
func (v *VFS) EnableWriteback(interval time.Duration, dirtyRatio float64) {
	if interval <= 0 {
		v.DisableWriteback()
		return
	}
	if dirtyRatio < 0 {
		dirtyRatio = 0
	}
	v.flushRatio.Store(math.Float64bits(dirtyRatio))
	v.flushInterval.Store(int64(interval))
	v.flushCur.Store(int64(interval))
	select {
	case v.flushKick <- struct{}{}:
	default:
	}
}

// DisableWriteback parks the flusher again.
func (v *VFS) DisableWriteback() {
	v.flushInterval.Store(0)
	v.flushCur.Store(0)
	select {
	case v.flushKick <- struct{}{}:
	default:
	}
}

// FlushInterval returns the flusher's current (adapted) tick, 0 when
// parked. Diagnostics and tests. flushInterval is the enable/disable
// source of truth: a stale flushCur left behind by an adaptInterval
// racing DisableWriteback must read as parked.
func (v *VFS) FlushInterval() time.Duration {
	if v.flushInterval.Load() <= 0 {
		return 0
	}
	if cur := v.flushCur.Load(); cur > 0 {
		return time.Duration(cur)
	}
	return time.Duration(v.flushInterval.Load())
}

// dirtyFraction returns the dirty share of the page cache the adaptive
// policy steers on: dirty pages over the budget when one is set (the
// pressure that matters is distance from forced eviction), over the
// cache population otherwise.
func (v *VFS) dirtyFraction() float64 {
	v.pageMu.Lock()
	dirty := len(v.dirty)
	total := v.pageBudget
	if total <= 0 {
		total = len(v.pages)
	}
	v.pageMu.Unlock()
	if total <= 0 || dirty == 0 {
		return 0
	}
	return float64(dirty) / float64(total)
}

// adaptInterval retunes the tick after a flush pass.
func (v *VFS) adaptInterval() {
	base := v.flushInterval.Load()
	if base <= 0 {
		return
	}
	thr := math.Float64frombits(v.flushRatio.Load())
	if thr <= 0 {
		v.flushCur.Store(base)
		return
	}
	cur := v.flushCur.Load()
	if cur <= 0 {
		cur = base
	}
	if v.dirtyFraction() > thr {
		if cur > base/minIntervalDiv {
			cur /= 2
			if cur < base/minIntervalDiv {
				cur = base / minIntervalDiv
			}
		}
	} else if cur < base {
		cur *= 2
		if cur > base {
			cur = base
		}
	}
	v.flushCur.Store(cur)
}

// flusherLoop is the daemon body; it runs on its own goroutine-backed
// kernel thread until the kernel shuts down.
func (v *VFS) flusherLoop(t *core.Thread, stop <-chan struct{}) {
	for {
		// Park strictly on flushInterval: an adaptInterval pass racing
		// DisableWriteback can re-store a nonzero flushCur, and arming
		// from flushCur alone would keep the daemon flushing forever.
		var tc <-chan time.Time
		if iv := v.FlushInterval(); iv > 0 {
			tc = time.After(iv)
		}
		select {
		case <-stop:
			return
		case <-v.flushKick:
			// Interval changed; re-arm.
		case <-tc:
			v.FlushAged(t)
			v.adaptInterval()
		}
	}
}

// FlushAged runs one flusher pass: it advances the aging tick and
// writes back every dirty page that was dirtied before this tick began,
// mount by mount. Exported so tests (and synchronous callers) can drive
// the flusher deterministically without the timer.
//
// The flusher takes each mount's lock in turn — it is an ordinary
// foreground-equivalent writer, so module writepage contracts see the
// usual one-operation-per-mount serialization.
func (v *VFS) FlushAged(t *core.Thread) {
	tick := v.flushTick.Add(1)
	for _, mnt := range v.mountList() {
		mnt.mu.Lock()
		if mnt.dead {
			mnt.mu.Unlock()
			continue
		}
		keys := v.dirtyKeysOf(mnt, true, tick)
		if len(keys) > 0 {
			v.Stats.FlushWrites.Add(uint64(len(keys)))
			// Errors stay dirty and will be retried next pass; a module
			// killed for a writeback violation surfaces through the
			// monitor's violation log, not through the flusher.
			_ = v.syncLocked(t, mnt, keys)
		}
		mnt.mu.Unlock()
	}
}
