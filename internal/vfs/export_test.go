package vfs

import (
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
