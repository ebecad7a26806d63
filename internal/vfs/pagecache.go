package vfs

import (
	"container/list"
	"fmt"
	"math"
	"sort"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

type pageKey struct {
	ino mem.Addr
	idx uint64
}

// pageEnt is one page-cache entry. key, pg and mnt are set at insert.
// lru changes under pageMu, and is nil once the entry has left the
// cache. dirty and tick change only while the writer holds both the
// owning mount's lock and pageMu, so either lock suffices to read them.
type pageEnt struct {
	key pageKey
	pg  mem.Addr
	// mnt is the owning mount, recorded while the inserting thread held
	// its lock. Eviction and writeback find the owner here rather than in
	// the inode, which another mount's thread may be freeing.
	mnt *mount
	lru *list.Element // position in VFS.lru; Value is this entry
	// dirty marks a page written since its last successful writeback;
	// tick is the flusher tick at which it was last written. The
	// background flusher only writes back pages that have aged at least
	// one full tick.
	dirty bool
	tick  uint64
}

// SetPageBudget caps the number of cached pages (0 = unlimited).
// Inserting a page past the budget evicts least-recently-used pages;
// a dirty victim is first written back through the owning module's
// writepage — memory pressure, not just an explicit Sync, now drives
// pages through the module's REF-checked writeback path.
func (v *VFS) SetPageBudget(n int) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	v.pageBudget = n
}

// ShrinkToBudget applies the page budget to the cache as it stands —
// the explicit memory-pressure edge of the policy that otherwise runs
// on every insert. Dirty victims go through writeback, so the caller's
// thread crosses into the owning modules. The caller must hold no mount
// lock (victim mounts are locked as needed).
func (v *VFS) ShrinkToBudget(t *core.Thread) { v.evictForBudget(t, nil, pageKey{}) }

// cachePage adds a page to the index as the most recently used and
// returns its entry. Caller holds mnt.mu but not pageMu.
func (v *VFS) cachePage(mnt *mount, key pageKey, pg mem.Addr) *pageEnt {
	e := &pageEnt{key: key, pg: pg, mnt: mnt}
	v.pageMu.Lock()
	e.lru = v.lru.PushBack(e)
	v.pages[key] = e
	v.pageMu.Unlock()
	return e
}

// removePageLocked frees a cached page and drops it from the index.
// Caller holds pageMu.
func (v *VFS) removePageLocked(e *pageEnt) {
	_ = v.K.Sys.Slab.Free(e.pg)
	delete(v.pages, e.key)
	if e.dirty {
		v.ndirty--
	}
	v.lru.Remove(e.lru)
	e.lru = nil
}

// evictForBudget evicts least-recently-used pages until the cache fits
// the budget, never evicting keep (the page the caller just inserted).
// Each pass chooses one victim (pickVictim) and evicts it. A walk makes
// at most as many passes as the cache held pages when it began: pages
// that cannot go (memory-only or dead mounts, mounts another thread
// holds, failed writebacks) leave the cache over budget rather than
// keep the caller walking. holder is the mount whose lock the calling
// thread already holds (nil when none).
func (v *VFS) evictForBudget(t *core.Thread, holder *mount, keep pageKey) {
	v.pageMu.Lock()
	passes := len(v.pages)
	v.pageMu.Unlock()
	for ; passes > 0; passes-- {
		e := v.pickVictim(holder, keep)
		if e == nil {
			return
		}
		v.evictPage(t, e)
		if e.mnt != holder {
			e.mnt.mu.Unlock()
		}
	}
}

// pickVictim returns the least recently used page the budget may evict,
// with its mount locked, or nil when the cache fits the budget or no
// page qualifies. A page qualifies unless it is keep or its mount is
// memory-only, dead, or held by another thread. The whole choice runs
// under pageMu: a mount other than holder is taken with TryLock, which
// never waits, so holding pageMu across it cannot close a lock cycle.
func (v *VFS) pickVictim(holder *mount, keep pageKey) *pageEnt {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if v.pageBudget <= 0 || len(v.pages) <= v.pageBudget {
		return nil
	}
	for le := v.lru.Front(); le != nil; le = le.Next() {
		e := le.Value.(*pageEnt)
		mnt := e.mnt
		if e.key == keep || (mnt != holder && !mnt.mu.TryLock()) {
			continue
		}
		if !mnt.dead { // a dead mount's superblock is freed
			if flags, _ := v.K.Sys.AS.ReadU64(v.SBField(mnt.sb, "flags")); flags&SBMemOnly == 0 {
				return e
			}
		}
		if mnt != holder {
			mnt.mu.Unlock()
		}
	}
	return nil
}

// evictPage reclaims a victim whose mount lock the caller holds. A dirty
// victim is forced through the owning module's writepage first (the
// REF-capability crossing), so eviction under enforcement exercises the
// same contract as Sync. A victim whose writeback fails stays dirty and
// moves to the most-recently-used end, so the passes after it try other
// pages first. Caller does not hold pageMu.
func (v *VFS) evictPage(t *core.Thread, e *pageEnt) {
	if e.dirty {
		if v.writeBackPage(t, e) != nil {
			v.pageMu.Lock()
			if e.lru != nil {
				v.lru.MoveToBack(e.lru)
			}
			v.pageMu.Unlock()
			return // Sync (or a later walk) retries
		}
		v.Stats.EvictWrites.Add(1)
		e.mnt.wbForced.Add(1)
	}
	v.pageMu.Lock()
	// The writeback crossing may have dropped the page (iput).
	if e.lru != nil {
		v.removePageLocked(e)
		v.Stats.Evictions.Add(1)
	}
	v.pageMu.Unlock()
}

// writeBackPage pushes one dirty page through the owning module's
// writepage and clears the dirty bit on success. Caller holds the
// entry's mount lock but not pageMu.
func (v *VFS) writeBackPage(t *core.Thread, e *pageEnt) error {
	mnt, key := e.mnt, e.key
	v.Stats.PageWrites.Add(1)
	ret, err := v.gWritePage.Call(t, v.OpsSlot(mnt.fs.ops, "writepage"),
		uint64(mnt.sb), uint64(key.ino), key.idx, uint64(e.pg))
	if err == nil && ret != 0 {
		err = fmt.Errorf("vfs: writepage(%#x, %d): errno %d", uint64(key.ino), key.idx, -int64(ret))
	}
	if err != nil {
		return err
	}
	mnt.wbFlushed.Add(1)
	v.pageMu.Lock()
	if e.lru != nil && e.dirty {
		e.dirty = false
		v.ndirty--
	}
	v.pageMu.Unlock()
	return nil
}

// pageFor returns the cache entry for (inode, idx), marking it most
// recently used. On a miss it installs a fresh page, filled through the
// module's readpage when fill is set and zeroed otherwise (a write that
// covers the whole page: its old contents are dead on arrival), then
// applies the budget, sparing the new page. Ownership of a filled page
// travels with the call: WRITE transfers to the mount's principal on
// entry and back to the kernel on successful return. Caller holds
// mnt.mu, which is what keeps two fills of the same page from racing.
func (v *VFS) pageFor(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64, fill bool) (*pageEnt, error) {
	key := pageKey{ino, idx}
	v.pageMu.Lock()
	if e, ok := v.pages[key]; ok {
		v.lru.MoveToBack(e.lru)
		v.pageMu.Unlock()
		return e, nil
	}
	v.pageMu.Unlock()
	sys := v.K.Sys
	pg, err := sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	if fill {
		v.Stats.PageFills.Add(1)
		ret, err := v.gReadPage.Call(t, v.OpsSlot(mnt.fs.ops, "readpage"),
			uint64(mnt.sb), uint64(ino), idx, uint64(pg))
		if err != nil || ret != 0 {
			// The revoke post-action (or the aborted call) already stripped
			// the module's WRITE; make sure no grant survives an interrupted
			// annotation run, then recycle the page.
			sys.Caps.RevokeAll(caps.WriteCap(pg, mem.PageSize))
			_ = sys.Slab.Free(pg)
			if err == nil {
				err = fmt.Errorf("vfs: readpage(%#x, %d): errno %d", uint64(ino), idx, -int64(ret))
			}
			return nil, err
		}
	} else {
		must(sys.AS.Zero(pg, mem.PageSize))
	}
	e := v.cachePage(mnt, key, pg)
	v.evictForBudget(t, mnt, key)
	return e, nil
}

// Read copies n bytes starting at off out of the file's page cache,
// bounded by the inode size. Cold pages are filled by the module;
// everything else is a trusted kernel-side copy.
func (v *VFS) Read(t *core.Thread, sb mem.Addr, path string, off, n uint64) (_ []byte, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.read", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return nil, err
	}
	defer mnt.mu.Unlock()
	d, err := v.walk(t, mnt, path)
	if err != nil {
		return nil, err
	}
	as := v.K.Sys.AS
	size, _ := as.ReadU64(v.InodeField(d.inode, "size"))
	if off >= size {
		return nil, nil
	}
	// Compared as n > size-off: off+n can wrap past 2^64.
	if n > size-off {
		n = size - off
	}
	out := make([]byte, n)
	for done := uint64(0); done < n; {
		pos := off + done
		idx := pos / mem.PageSize
		po := pos % mem.PageSize
		chunk := mem.PageSize - po
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		e, err := v.pageFor(t, mnt, d.inode, idx, true)
		if err != nil {
			return nil, err
		}
		if err := as.Read(e.pg+mem.Addr(po), out[done:done+chunk]); err != nil {
			return nil, err
		}
		done += chunk
	}
	v.Stats.BytesRead.Add(n)
	return out, nil
}

// Write copies data into the page cache at off, marking the touched
// pages dirty and growing the inode size. Partially covered cold pages
// are read-modify-write (the module fills them first via readpage);
// fully covered cold pages skip the readpage round-trip — their old
// contents are dead on arrival, so reading them back would only leak
// stale bytes and pay a pointless module crossing.
func (v *VFS) Write(t *core.Thread, sb mem.Addr, path string, off uint64, data []byte) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.write", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, err
	}
	defer mnt.mu.Unlock()
	d, err := v.walk(t, mnt, path)
	if err != nil {
		return 0, err
	}
	as := v.K.Sys.AS
	n := uint64(len(data))
	// A range that wraps past 2^64 would write its tail over the file's
	// first pages.
	if off+n < off {
		return 0, fmt.Errorf("vfs: %s: errno %d", path, kernel.EINVAL)
	}
	// s_maxbytes: the module declares its per-file capacity at mount
	// time (0 = unlimited); writes past it are rejected before any page
	// is dirtied, so an unpersistable page can never wedge Sync.
	if maxb, _ := as.ReadU64(v.SBField(sb, "maxbytes")); maxb != 0 && off+n > maxb {
		return 0, fmt.Errorf("vfs: %s: errno %d", path, kernel.EFBIG)
	}
	for done := uint64(0); done < n; {
		pos := off + done
		idx := pos / mem.PageSize
		po := pos % mem.PageSize
		chunk := mem.PageSize - po
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		e, err := v.pageFor(t, mnt, d.inode, idx, chunk < mem.PageSize)
		if err != nil {
			return done, err
		}
		if err := as.Write(e.pg+mem.Addr(po), data[done:done+chunk]); err != nil {
			return done, err
		}
		v.pageMu.Lock()
		// A page some crossing dropped (iput) is no longer counted.
		if !e.dirty && e.lru != nil {
			e.dirty = true
			v.ndirty++
		}
		e.tick = v.flushTick.Load()
		v.pageMu.Unlock()
		done += chunk
	}
	if size, _ := as.ReadU64(v.InodeField(d.inode, "size")); off+n > size {
		must(as.WriteU64(v.InodeField(d.inode, "size"), off+n))
	}
	v.Stats.BytesWrited.Add(n)
	return n, nil
}

// dirtyOf collects the mount's pages last dirtied before flusher tick
// before, sorted for stable writeback order.
func (v *VFS) dirtyOf(mnt *mount, before uint64) []*pageEnt {
	v.pageMu.Lock()
	var ents []*pageEnt
	for _, e := range v.pages {
		if e.mnt == mnt && e.dirty && e.tick < before {
			ents = append(ents, e)
		}
	}
	v.pageMu.Unlock()
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].key.ino != ents[j].key.ino {
			return ents[i].key.ino < ents[j].key.ino
		}
		return ents[i].key.idx < ents[j].key.idx
	})
	return ents
}

// syncLocked writes the given dirty pages of one mount back through the
// module's writepage. Caller holds that mount's lock. A page that fails
// writeback stays dirty, but the pass continues: one bad page must not
// block the persistence of every page sorting after it. The first error
// is reported.
func (v *VFS) syncLocked(t *core.Thread, ents []*pageEnt) error {
	var firstErr error
	for _, e := range ents {
		v.pageMu.Lock()
		live := e.lru != nil && e.dirty
		v.pageMu.Unlock()
		if !live {
			continue // evicted or cleaned while we flushed its neighbors
		}
		if err := v.writeBackPage(t, e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync writes every dirty page of the mount back through the module's
// writepage callback (REF handoff: the module proves ownership to
// pc_writeback but cannot modify the clean page).
func (v *VFS) Sync(t *core.Thread, sb mem.Addr) (rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.sync", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	return v.syncLocked(t, v.dirtyOf(mnt, math.MaxUint64))
}

// DropCaches evicts every clean page of the mount (sync first to evict
// everything), so the next read refills from the module — the cold-read
// path fsperf measures. Memory-only mounts (SBMemOnly) are never
// evicted: their page cache is the only copy of the data, and a no-op
// writepage having cleared the dirty bit does not change that.
func (v *VFS) DropCaches(sb mem.Addr) int {
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0
	}
	defer mnt.mu.Unlock()
	if flags, _ := v.K.Sys.AS.ReadU64(v.SBField(sb, "flags")); flags&SBMemOnly != 0 {
		return 0
	}
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	dropped := 0
	for _, e := range v.pages {
		if e.mnt == mnt && !e.dirty {
			v.removePageLocked(e)
			dropped++
		}
	}
	return dropped
}

// dropPagesOf evicts every page (dirty or not) of a dying inode.
func (v *VFS) dropPagesOf(ino mem.Addr) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	for key, e := range v.pages {
		if key.ino == ino {
			v.removePageLocked(e)
		}
	}
}

// PageAddr exposes the cached page address for (inode, idx); tests and
// the exploit harness use it to locate victim pages.
func (v *VFS) PageAddr(ino mem.Addr, idx uint64) (mem.Addr, bool) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	e, ok := v.pages[pageKey{ino, idx}]
	if !ok {
		return 0, false
	}
	return e.pg, true
}

// CachedPage is one page-cache entry as coredump snapshots see it.
type CachedPage struct {
	Ino   mem.Addr
	Idx   uint64
	Page  mem.Addr
	Dirty bool
}

// DumpPages copies out the page cache (sorted by inode then index) and
// the dirty count. It takes only pageMu — a leaf below every mount lock
// — so it is safe even from a violation hook that fires mid-crossing.
func (v *VFS) DumpPages() ([]CachedPage, int) {
	v.pageMu.Lock()
	out := make([]CachedPage, 0, len(v.pages))
	for key, e := range v.pages {
		out = append(out, CachedPage{Ino: key.ino, Idx: key.idx, Page: e.pg, Dirty: e.dirty})
	}
	dirty := v.ndirty
	v.pageMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ino != out[j].Ino {
			return out[i].Ino < out[j].Ino
		}
		return out[i].Idx < out[j].Idx
	})
	return out, dirty
}

// PageCount returns the number of cached pages.
func (v *VFS) PageCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return len(v.pages)
}

// DirtyCount returns the number of dirty cached pages.
func (v *VFS) DirtyCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return v.ndirty
}

// WritebackStats is one mount's writeback activity.
type WritebackStats struct {
	PagesFlushed     uint64 // successful writepage crossings for this mount
	ForcedForeground uint64 // dirty victims the LRU policy had to write back itself
}

// WritebackStats returns the writeback counters of a mounted
// superblock.
func (v *VFS) WritebackStats(sb mem.Addr) (WritebackStats, bool) {
	mnt := v.mountOf(sb)
	if mnt == nil {
		return WritebackStats{}, false
	}
	return WritebackStats{
		PagesFlushed:     mnt.wbFlushed.Load(),
		ForcedForeground: mnt.wbForced.Load(),
	}, true
}
