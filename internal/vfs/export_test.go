package vfs

import (
	"fmt"
	"sort"

	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// Page-cache internals for the external tests, which need the module
// packages and so cannot live in package vfs.

// HoldMount takes sb's mount lock the way a thread in the middle of an
// operation on that mount holds it, and returns the release.
func (v *VFS) HoldMount(sb mem.Addr) (release func()) {
	mnt := v.mountOf(sb)
	mnt.mu.Lock()
	return mnt.mu.Unlock
}

// CacheFreshPage fills a fresh page with data and adds it to the cache as
// (ino, idx) of sb's mount without applying the budget: the first half
// of a page fill. The caller holds the mount (HoldMount).
func (v *VFS) CacheFreshPage(sb, ino mem.Addr, idx uint64, data []byte) mem.Addr {
	pg, err := v.K.Sys.Slab.Alloc(mem.PageSize)
	must(err)
	must(v.K.Sys.AS.Write(pg, data))
	v.cachePage(v.mountOf(sb), pageKey{ino, idx}, pg)
	return pg
}

// EvictForBudget is the second half of a page fill: the budget walk of a
// thread holding sb's mount that just cached (ino, idx).
func (v *VFS) EvictForBudget(t *core.Thread, sb, ino mem.Addr, idx uint64) {
	v.evictForBudget(t, v.mountOf(sb), pageKey{ino, idx})
}

// victimWalk is the victim rule the per-mount choice replaced, kept as
// the test oracle for pickVictim: walk every cached page in recency
// order and return the first that qualifies (not keep; its mount is
// holder or free for TryLock, live, and not memory-only), with its
// mount locked.
func (v *VFS) victimWalk(holder *mount, keep pageKey) *pageEnt {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if v.pageBudget <= 0 || len(v.pages) <= v.pageBudget {
		return nil
	}
	ents := make([]*pageEnt, 0, len(v.pages))
	for _, e := range v.pages {
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].stamp < ents[j].stamp })
	for _, e := range ents {
		mnt := e.mnt
		if e.key == keep || (mnt != holder && !mnt.mu.TryLock()) {
			continue
		}
		if !mnt.dead {
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

// PickMatchesWalk runs the budget's victim choice and the victimWalk
// oracle for a thread holding holderSB's mount (0 for none) that must
// spare (keepIno, keepIdx), and returns an error when they pick
// different pages. Mounts the caller holds (HoldMount) count as held by
// another thread. It returns the chosen page's key, ok false when
// neither picks one.
func (v *VFS) PickMatchesWalk(holderSB, keepIno mem.Addr, keepIdx uint64) (ino mem.Addr, idx uint64, ok bool, err error) {
	var holder *mount
	if holderSB != 0 {
		holder = v.mountOf(holderSB)
	}
	keep := pageKey{keepIno, keepIdx}
	release := func(e *pageEnt) {
		if e != nil && e.mnt != holder {
			e.mnt.mu.Unlock()
		}
	}
	got := v.pickVictim(holder, keep)
	release(got)
	want := v.victimWalk(holder, keep)
	release(want)
	if got != want {
		describe := func(e *pageEnt) string {
			if e == nil {
				return "none"
			}
			return fmt.Sprintf("(%#x, %d) of sb %#x", uint64(e.key.ino), e.key.idx, uint64(e.mnt.sb))
		}
		return 0, 0, false, fmt.Errorf("per-mount choice picked %s, the walk %s", describe(got), describe(want))
	}
	if got == nil {
		return 0, 0, false, nil
	}
	return got.key.ino, got.key.idx, true, nil
}

// TouchPage marks a cached page most recently used, as a page-cache hit
// does, and as a failed writeback does to its eviction victim.
func (v *VFS) TouchPage(ino mem.Addr, idx uint64) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	v.touchLocked(v.pages[pageKey{ino, idx}])
}

// DirtyPage marks a cached page written, as Write does.
func (v *VFS) DirtyPage(ino mem.Addr, idx uint64) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	v.markDirtyLocked(v.pages[pageKey{ino, idx}])
}

// DropInodePages drops every cached page of ino, as iput does.
func (v *VFS) DropInodePages(ino mem.Addr) { v.dropPagesOf(ino) }

// CheckPageIndex checks the page cache's lists against its map: every
// cached page sits exactly once on its inode's list and on its mount's
// LRU list, each LRU list is in recency-stamp order, each mount's dirty
// list holds exactly its dirty pages, and ndirty is the dirty lists'
// total.
func (v *VFS) CheckPageIndex() error {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	onLRU := map[*pageEnt]int{}
	onIno := map[*pageEnt]int{}
	onDirty := map[*pageEnt]int{}
	walk := func(name string, l *pageList, k int, seen map[*pageEnt]int, each func(*pageEnt) error) error {
		n := 0
		var prev *pageEnt
		for e := l.head; e != nil; e = e.links[k].next {
			if e.links[k].prev != prev {
				return fmt.Errorf("%s: entry (%#x, %d) has a broken back link", name, uint64(e.key.ino), e.key.idx)
			}
			if v.pages[e.key] != e || !e.cached {
				return fmt.Errorf("%s: entry (%#x, %d) is not in the cache", name, uint64(e.key.ino), e.key.idx)
			}
			if err := each(e); err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			seen[e]++
			prev = e
			n++
		}
		if l.tail != prev || l.n != n {
			return fmt.Errorf("%s: %d entries walked, list says %d (tail matches: %v)", name, n, l.n, l.tail == prev)
		}
		return nil
	}
	ndirty := 0
	for _, m := range v.lruMounts {
		var last uint64
		if err := walk(fmt.Sprintf("mount %#x LRU", uint64(m.sb)), &m.lru, lruList, onLRU, func(e *pageEnt) error {
			if e.mnt != m {
				return fmt.Errorf("entry (%#x, %d) belongs to mount %#x", uint64(e.key.ino), e.key.idx, uint64(e.mnt.sb))
			}
			if e.stamp <= last {
				return fmt.Errorf("entry (%#x, %d) stamp %d follows %d", uint64(e.key.ino), e.key.idx, e.stamp, last)
			}
			last = e.stamp
			return nil
		}); err != nil {
			return err
		}
		if err := walk(fmt.Sprintf("mount %#x dirty", uint64(m.sb)), &m.dirty, dirtyList, onDirty, func(e *pageEnt) error {
			if e.mnt != m || !e.dirty {
				return fmt.Errorf("entry (%#x, %d) is clean or another mount's", uint64(e.key.ino), e.key.idx)
			}
			return nil
		}); err != nil {
			return err
		}
		ndirty += m.dirty.n
	}
	for ino, l := range v.inodePages {
		if err := walk(fmt.Sprintf("inode %#x", uint64(ino)), l, inodeList, onIno, func(e *pageEnt) error {
			if e.key.ino != ino {
				return fmt.Errorf("entry (%#x, %d) is another inode's", uint64(e.key.ino), e.key.idx)
			}
			return nil
		}); err != nil {
			return err
		}
		if l.n == 0 {
			return fmt.Errorf("inode %#x keeps an empty page list", uint64(ino))
		}
	}
	for key, e := range v.pages {
		want := 0
		if e.dirty {
			want = 1
		}
		if onLRU[e] != 1 || onIno[e] != 1 || onDirty[e] != want {
			return fmt.Errorf("page (%#x, %d): on %d LRU lists, %d inode lists, %d dirty lists (dirty %v)",
				uint64(key.ino), key.idx, onLRU[e], onIno[e], onDirty[e], e.dirty)
		}
	}
	if ndirty != v.ndirty {
		return fmt.Errorf("ndirty is %d, the dirty lists hold %d", v.ndirty, ndirty)
	}
	return nil
}
