package vfs

import (
	"container/list"
	"fmt"
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

// pageEnt is one page-cache entry; its fields are set at insert.
type pageEnt struct {
	key pageKey
	pg  mem.Addr
	// mnt is the owning mount, recorded while the inserting thread held
	// its lock. Eviction and writeback find the owner here rather than in
	// the inode, which another mount's thread may be freeing.
	mnt *mount
	lru *list.Element // position in VFS.lru; Value is this entry
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

// insertPage records a fresh page of mnt in the cache, then applies the
// budget, sparing the new page: the caller is about to use it. Caller
// holds mnt.mu but not pageMu.
func (v *VFS) insertPage(t *core.Thread, mnt *mount, key pageKey, pg mem.Addr) {
	v.cachePage(mnt, key, pg)
	v.evictForBudget(t, mnt, key)
}

// cachePage adds a page to the index as the most recently used. Caller
// holds mnt.mu but not pageMu.
func (v *VFS) cachePage(mnt *mount, key pageKey, pg mem.Addr) {
	e := &pageEnt{key: key, pg: pg, mnt: mnt}
	v.pageMu.Lock()
	e.lru = v.lru.PushBack(e)
	v.pages[key] = e
	v.pageMu.Unlock()
}

// cachedLocked returns the cached page for key and marks it most
// recently used. Caller holds pageMu.
func (v *VFS) cachedLocked(key pageKey) (mem.Addr, bool) {
	e, ok := v.pages[key]
	if !ok {
		return 0, false
	}
	v.lru.MoveToBack(e.lru)
	return e.pg, true
}

// removePageLocked frees a cached page and drops every index entry for
// it. Caller holds pageMu.
func (v *VFS) removePageLocked(key pageKey) {
	e, ok := v.pages[key]
	if !ok {
		return
	}
	_ = v.K.Sys.Slab.Free(e.pg)
	delete(v.pages, key)
	delete(v.dirty, key)
	delete(v.dirtyTick, key)
	v.lru.Remove(e.lru)
}

// evictForBudget walks the cache from its LRU end until it fits the
// budget, never evicting keep (the page the caller just inserted).
// Unevictable pages (memory-only mounts, failed writebacks, mounts whose
// lock another thread holds) are passed over, so the cache can exceed
// the budget when nothing else remains. The walk resumes after the last
// page it tried, so one call tries each page at most once; it ends early
// if that page left the cache meanwhile. holder is the mount whose lock
// the calling thread already holds (nil when none).
func (v *VFS) evictForBudget(t *core.Thread, holder *mount, keep pageKey) {
	var next *pageEnt // the page after the last one tried
	for first := true; ; first = false {
		v.pageMu.Lock()
		if v.pageBudget <= 0 || len(v.pages) <= v.pageBudget {
			v.pageMu.Unlock()
			return
		}
		var e *list.Element
		switch {
		case first:
			e = v.lru.Front()
		case next != nil && v.pages[next.key] == next:
			e = next.lru
		}
		if e != nil && e.Value.(*pageEnt).key == keep {
			e = e.Next()
		}
		if e == nil {
			v.pageMu.Unlock()
			return // nothing evictable remains
		}
		victim := e.Value.(*pageEnt)
		next = nil
		if n := e.Next(); n != nil {
			next = n.Value.(*pageEnt)
		}
		v.pageMu.Unlock()
		v.evictPage(t, holder, victim)
	}
}

// evictPage tries to reclaim one page: dirty victims are forced through
// the owning module's writepage first (the REF-capability crossing), so
// eviction under enforcement exercises the same contract as Sync. The
// page stays if its mount is memory-only, dead, or busy on another
// thread, or if its writeback fails. Caller holds holder.mu (when holder
// != nil) and not pageMu.
func (v *VFS) evictPage(t *core.Thread, holder *mount, e *pageEnt) {
	mnt := e.mnt
	// Evicting another mount's page needs that mount's lock. TryLock
	// keeps the lock order acyclic: a thread never *blocks* on a second
	// mount lock, so two mounts evicting each other's pages cannot
	// deadlock — one of them just skips the victim.
	if mnt != holder {
		if !mnt.mu.TryLock() {
			return
		}
		defer mnt.mu.Unlock()
		if mnt.dead {
			return
		}
	}
	if flags, _ := v.K.Sys.AS.ReadU64(v.SBField(mnt.sb, "flags")); flags&SBMemOnly != 0 {
		return
	}
	v.pageMu.Lock()
	cached, dirty := v.pages[e.key] == e, v.dirty[e.key]
	v.pageMu.Unlock()
	if !cached {
		return
	}
	if dirty {
		if ok, _ := v.writeBackPage(t, mnt, e.key, e.pg); !ok {
			return // stays dirty; Sync (or a later pass) retries
		}
		v.Stats.EvictWrites.Add(1)
		mnt.wbForced.Add(1)
	}
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if v.pages[e.key] != e || v.dirty[e.key] {
		// Redirtied or replaced while we crossed; not our victim anymore.
		return
	}
	v.removePageLocked(e.key)
	v.Stats.Evictions.Add(1)
}

// writeBackPage pushes one dirty page through the owning module's
// writepage and clears the dirty bit on success. Caller holds mnt.mu
// but not pageMu.
func (v *VFS) writeBackPage(t *core.Thread, mnt *mount, key pageKey, pg mem.Addr) (bool, error) {
	v.Stats.PageWrites.Add(1)
	ret, err := v.gWritePage.Call(t, v.OpsSlot(mnt.fs.ops, "writepage"),
		uint64(mnt.sb), uint64(key.ino), key.idx, uint64(pg))
	if err == nil && ret != 0 {
		err = fmt.Errorf("vfs: writepage(%#x, %d): errno %d", uint64(key.ino), key.idx, -int64(ret))
	}
	if err != nil {
		return false, err
	}
	mnt.wbFlushed.Add(1)
	v.pageMu.Lock()
	if e, ok := v.pages[key]; ok && e.pg == pg {
		delete(v.dirty, key)
		delete(v.dirtyTick, key)
	}
	v.pageMu.Unlock()
	return true, nil
}

// getPage returns the cached page for (inode, idx), filling a fresh one
// through the module's readpage callback on a miss. Ownership of the
// page travels with the call: WRITE transfers to the mount's principal
// on entry and back to the kernel on successful return. Caller holds
// mnt.mu, which is what keeps two fills of the same page from racing.
func (v *VFS) getPage(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64) (mem.Addr, error) {
	key := pageKey{ino, idx}
	v.pageMu.Lock()
	pg, ok := v.cachedLocked(key)
	v.pageMu.Unlock()
	if ok {
		return pg, nil
	}
	sys := v.K.Sys
	pg, err := sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return 0, err
	}
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
		return 0, err
	}
	v.insertPage(t, mnt, key, pg)
	return pg, nil
}

// allocPage returns the cached page for (inode, idx), or installs a
// fresh zeroed one without consulting the module — for writes that
// cover the entire page. Caller holds mnt.mu.
func (v *VFS) allocPage(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64) (mem.Addr, error) {
	key := pageKey{ino, idx}
	v.pageMu.Lock()
	pg, ok := v.cachedLocked(key)
	v.pageMu.Unlock()
	if ok {
		return pg, nil
	}
	pg, err := v.K.Sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return 0, err
	}
	must(v.K.Sys.AS.Zero(pg, mem.PageSize))
	v.insertPage(t, mnt, key, pg)
	return pg, nil
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
	if off+n > size {
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
		pg, err := v.getPage(t, mnt, d.inode, idx)
		if err != nil {
			return nil, err
		}
		if err := as.Read(pg+mem.Addr(po), out[done:done+chunk]); err != nil {
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
		var pg mem.Addr
		if chunk == mem.PageSize {
			pg, err = v.allocPage(t, mnt, d.inode, idx)
		} else {
			pg, err = v.getPage(t, mnt, d.inode, idx)
		}
		if err != nil {
			return done, err
		}
		if err := as.Write(pg+mem.Addr(po), data[done:done+chunk]); err != nil {
			return done, err
		}
		v.pageMu.Lock()
		v.dirty[pageKey{d.inode, idx}] = true
		v.dirtyTick[pageKey{d.inode, idx}] = v.flushTick.Load()
		v.pageMu.Unlock()
		done += chunk
	}
	if size, _ := as.ReadU64(v.InodeField(d.inode, "size")); off+n > size {
		must(as.WriteU64(v.InodeField(d.inode, "size"), off+n))
	}
	v.Stats.BytesWrited.Add(n)
	return n, nil
}

// dirtyKeysOf collects the mount's dirty pages, sorted for stable
// writeback order.
func (v *VFS) dirtyKeysOf(mnt *mount, aged bool, tick uint64) []pageKey {
	v.pageMu.Lock()
	var keys []pageKey
	for key := range v.dirty {
		if aged && v.dirtyTick[key] >= tick {
			continue
		}
		if e, ok := v.pages[key]; ok && e.mnt == mnt {
			keys = append(keys, key)
		}
	}
	v.pageMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ino != keys[j].ino {
			return keys[i].ino < keys[j].ino
		}
		return keys[i].idx < keys[j].idx
	})
	return keys
}

// syncLocked writes the given dirty pages back through the module's
// writepage. Caller holds mnt.mu. A page that fails writeback stays
// dirty, but the pass continues: one bad page must not block the
// persistence of every page sorting after it. The first error is
// reported.
func (v *VFS) syncLocked(t *core.Thread, mnt *mount, keys []pageKey) error {
	var firstErr error
	for _, key := range keys {
		v.pageMu.Lock()
		e, ok := v.pages[key]
		dirty := v.dirty[key]
		v.pageMu.Unlock()
		if !ok || !dirty {
			continue // evicted or cleaned while we flushed its neighbors
		}
		if _, err := v.writeBackPage(t, mnt, key, e.pg); err != nil && firstErr == nil {
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
	return v.syncLocked(t, mnt, v.dirtyKeysOf(mnt, false, 0))
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
	for key, e := range v.pages {
		if e.mnt != mnt || v.dirty[key] {
			continue
		}
		v.removePageLocked(key)
		dropped++
	}
	return dropped
}

// dropPagesOf evicts every page (dirty or not) of a dying inode.
func (v *VFS) dropPagesOf(ino mem.Addr) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	for key := range v.pages {
		if key.ino == ino {
			v.removePageLocked(key)
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
		out = append(out, CachedPage{Ino: key.ino, Idx: key.idx, Page: e.pg, Dirty: v.dirty[key]})
	}
	dirty := len(v.dirty)
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
	return len(v.dirty)
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
