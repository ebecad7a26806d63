package vfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// twoMinixMounts boots a rig with minixsim mounted on disks 1 and 2.
func twoMinixMounts(t *testing.T) (*rig, mem.Addr, mem.Addr) {
	t.Helper()
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	r.bl.AddDisk(2, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	var sbs [2]mem.Addr
	for i := range sbs {
		sb, err := r.v.Mount(r.th, minixsim.FsID, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		sbs[i] = sb
	}
	return r, sbs[0], sbs[1]
}

// TestEvictionSparesInsertedPage: a thread that just filled a page must
// not have its budget walk evict that page, even when another mount's
// thread inserted after it and every older page belongs to that other
// mount, whose lock it holds. The interleaving is built step by step:
// mount B is held, the budget is full of B's pages, A caches its page,
// B caches one more, and only then does A's budget walk run.
func TestEvictionSparesInsertedPage(t *testing.T) {
	r, sbA, sbB := twoMinixMounts(t)
	defer r.k.Shutdown()
	const budget = 4
	r.v.SetPageBudget(budget)
	var inosB []mem.Addr
	for i := 0; i < budget; i++ {
		p := fmt.Sprintf("/b%d", i)
		ino, err := r.v.Create(r.th, sbB, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sbB, p, 0, bytes.Repeat([]byte{0xbb}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		inosB = append(inosB, ino)
	}
	if err := r.v.Sync(r.th, sbB); err != nil {
		t.Fatal(err)
	}
	inoA, err := r.v.Create(r.th, sbA, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.v.PageCount(); n != budget {
		t.Fatalf("cache holds %d pages, want the budget of %d, all B's", n, budget)
	}

	releaseB := r.v.HoldMount(sbB)
	releaseA := r.v.HoldMount(sbA)
	dataA := bytes.Repeat([]byte("mount A's page "), mem.PageSize/15+1)[:mem.PageSize]
	pgA := r.v.CacheFreshPage(sbA, inoA, 0, dataA)
	r.v.CacheFreshPage(sbB, inosB[0], 1, bytes.Repeat([]byte{0xbc}, mem.PageSize))
	r.v.EvictForBudget(r.th, sbA, inoA, 0)
	releaseA()
	releaseB()

	if pg, ok := r.v.PageAddr(inoA, 0); !ok || pg != pgA {
		t.Fatalf("A's page was evicted by A's own budget walk (cached %#x, %v)", uint64(pg), ok)
	}
	got, err := r.k.Sys.AS.ReadBytes(pgA, mem.PageSize)
	if err != nil || !bytes.Equal(got, dataA) {
		t.Fatalf("A's page reads back %x..., want its data (%v)", got[:8], err)
	}
	checkPageIndex(t, r)
	r.noViolations(t)
}

// checkPageIndex fails the test when the page cache's lists disagree
// with its map (VFS.CheckPageIndex).
func checkPageIndex(t *testing.T, r *rig) {
	t.Helper()
	if err := r.v.CheckPageIndex(); err != nil {
		t.Fatal(err)
	}
}

// writePages creates each path on sb and fills its first page,
// returning the inodes.
func writePages(t *testing.T, r *rig, sb mem.Addr, paths ...string) []mem.Addr {
	t.Helper()
	var inos []mem.Addr
	for _, p := range paths {
		ino, err := r.v.Create(r.th, sb, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, bytes.Repeat([]byte{0x5e}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	return inos
}

// TestEvictionPassesOverBusyMount: with another thread holding mount B,
// B's pages at the front of the LRU list cannot be evicted, so an insert
// on mount A past the budget evicts A's least recently used page and
// leaves B's pages cached.
func TestEvictionPassesOverBusyMount(t *testing.T) {
	r, sbA, sbB := twoMinixMounts(t)
	defer r.k.Shutdown()
	inosB := writePages(t, r, sbB, "/b0", "/b1")
	if err := r.v.Sync(r.th, sbB); err != nil {
		t.Fatal(err)
	}
	inosA := writePages(t, r, sbA, "/a0", "/a1")
	if _, err := r.v.Create(r.th, sbA, "/a2"); err != nil {
		t.Fatal(err)
	}
	const budget = 4
	r.v.SetPageBudget(budget)

	releaseB := r.v.HoldMount(sbB)
	_, err := r.v.Write(r.th, sbA, "/a2", 0, bytes.Repeat([]byte{0xa2}, mem.PageSize))
	releaseB()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.v.PageAddr(inosA[0], 0); ok {
		t.Fatal("A's least recently used page survived the insert past the budget")
	}
	if _, ok := r.v.PageAddr(inosA[1], 0); !ok {
		t.Fatal("A's second page was evicted in place of its first")
	}
	for i, ino := range inosB {
		if _, ok := r.v.PageAddr(ino, 0); !ok {
			t.Fatalf("B's page %d was evicted while another thread held B", i)
		}
	}
	if n := r.v.PageCount(); n != budget {
		t.Fatalf("cache holds %d pages, want the budget of %d", n, budget)
	}
	checkPageIndex(t, r)
	r.noViolations(t)
}

// TestFailedWritebackVictimMovesBack: a dirty page whose writeback fails
// moves to the most-recently-used end, so the next budget walk evicts a
// clean page without retrying the failing writepage crossing.
func TestFailedWritebackVictimMovesBack(t *testing.T) {
	r := newRig(t, core.Enforce)
	defer r.k.Shutdown()
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/x", "/y"} {
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
	}
	clean := writePages(t, r, sb, "/c0", "/c1")
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	dirty := writePages(t, r, sb, "/d")
	// Touch the clean pages so the dirty one is least recently used.
	for _, p := range []string{"/c0", "/c1"} {
		if _, err := r.v.Read(r.th, sb, p, 0, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	r.bl.RemoveDisk(1)
	r.v.SetPageBudget(3)

	page := bytes.Repeat([]byte{0x77}, mem.PageSize)
	if _, err := r.v.Write(r.th, sb, "/x", 0, page); err != nil {
		t.Fatal(err)
	}
	writes, evictions := r.v.Stats.PageWrites.Load(), r.v.Stats.Evictions.Load()
	if _, err := r.v.Write(r.th, sb, "/y", 0, page); err != nil {
		t.Fatal(err)
	}
	if got := r.v.Stats.PageWrites.Load() - writes; got != 0 {
		t.Fatalf("second insert made %d writepage crossings, want 0", got)
	}
	if got := r.v.Stats.Evictions.Load() - evictions; got != 1 {
		t.Fatalf("second insert evicted %d pages, want 1", got)
	}
	for i, ino := range clean {
		if _, ok := r.v.PageAddr(ino, 0); ok {
			t.Fatalf("clean page %d still cached after two inserts past the budget", i)
		}
	}
	if _, ok := r.v.PageAddr(dirty[0], 0); !ok {
		t.Fatal("the unpersistable dirty page left the cache")
	}
	checkPageIndex(t, r)
	if len(r.k.Sys.Mon.Violations()) != 0 {
		t.Fatalf("I/O error recorded as a violation: %v", r.k.Sys.Mon.LastViolation())
	}
}

// TestStressUnlinkAgainstCrossMountEviction: two threads, one per minix
// mount, create, fill, read and unlink files under a budget smaller than
// one thread's working set, so every insert walks the LRU list, over the
// other mount's pages too. Unlink frees (and poisons) the inode while the
// other thread's eviction is deciding about that inode's pages, so
// eviction must learn a page's owner from the cache index, never from
// the inode. Run under -race.
func TestStressUnlinkAgainstCrossMountEviction(t *testing.T) {
	r, sbA, sbB := twoMinixMounts(t)
	defer r.k.Shutdown()
	r.v.SetPageBudget(4)
	const iters = 40
	payload := bytes.Repeat([]byte{0x3c}, 2*mem.PageSize)
	sbs := []mem.Addr{sbA, sbB}
	errs := make([]error, len(sbs))
	start := make(chan struct{})
	var handles []*core.ThreadHandle
	for i, sb := range sbs {
		i, sb := i, sb
		handles = append(handles, r.k.Sys.Spawn(fmt.Sprintf("unlinker-%d", i), func(th *core.Thread) {
			<-start
			for n := 0; n < iters; n++ {
				for f := 0; f < 3; f++ {
					p := fmt.Sprintf("/u%d_%d", n, f)
					if _, err := r.v.Create(th, sb, p); err != nil {
						errs[i] = err
						return
					}
					if _, err := r.v.Write(th, sb, p, 0, payload); err != nil {
						errs[i] = err
						return
					}
				}
				for f := 0; f < 3; f++ {
					p := fmt.Sprintf("/u%d_%d", n, f)
					got, err := r.v.Read(th, sb, p, 0, uint64(len(payload)))
					if err != nil || !bytes.Equal(got, payload) {
						errs[i] = fmt.Errorf("read %s: %v (corrupt=%v)", p, err, err == nil)
						return
					}
					if err := r.v.Unlink(th, sb, p); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}))
	}
	close(start)
	for _, h := range handles {
		h.Join()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mount %d: %v", i+1, err)
		}
	}
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("the budget never forced an eviction")
	}
	checkPageIndex(t, r)
	r.noViolations(t)
}

// TestEvictionVictimMatchesWalkOracle: the budget's victim choice, which
// compares the mounts' LRU fronts, picks the page that a walk of the
// whole cache in recency order picks (victimWalk, the rule it replaced).
// Seeded sequences of inserts, touches, dirtying, failed writebacks
// (the victim stays dirty and becomes most recently used) and inode
// drops run on two and three minix mounts, with and without a
// memory-only tmpfs mount. Before each comparison a random mount is the
// caller's own, other mounts are held by another thread at random, and
// the caller spares a keep page. The test's own recency model checks
// that the choice often has to pass over the oldest page.
func TestEvictionVictimMatchesWalkOracle(t *testing.T) {
	for _, cfg := range []struct {
		minix int
		tmpfs bool
	}{{2, false}, {3, false}, {2, true}, {3, true}} {
		t.Run(fmt.Sprintf("minix=%d,tmpfs=%v", cfg.minix, cfg.tmpfs), func(t *testing.T) {
			r := newRig(t, core.Enforce)
			defer r.k.Shutdown()
			if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			var sbs []mem.Addr
			for i := 1; i <= cfg.minix; i++ {
				r.bl.AddDisk(uint64(i), minixsim.DiskSectors)
				sb, err := r.v.Mount(r.th, minixsim.FsID, uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				sbs = append(sbs, sb)
			}
			if cfg.tmpfs {
				if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
					t.Fatal(err)
				}
				sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
				if err != nil {
					t.Fatal(err)
				}
				sbs = append(sbs, sb)
			}
			r.v.SetPageBudget(1)
			type page struct {
				sb, ino mem.Addr
				idx     uint64
			}
			data := bytes.Repeat([]byte{0x42}, mem.PageSize)
			picks, passedOldest := 0, 0
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var order []page // the test's recency model, least recent first
				inoSB := map[mem.Addr]mem.Addr{}
				nextIdx := map[mem.Addr]uint64{}
				use := func(i int) page {
					pg := order[i]
					order = append(append(order[:i:i], order[i+1:]...), pg)
					return pg
				}
				for step := 0; step < 200; step++ {
					switch op := rng.Intn(10); {
					case op < 4 || len(order) < 2: // insert
						sb := sbs[rng.Intn(len(sbs))]
						ino := mem.Addr(0x7000_0000) + mem.Addr(seed)<<16 + mem.Addr(rng.Intn(12))
						if owner, ok := inoSB[ino]; ok {
							sb = owner
						}
						inoSB[ino] = sb
						pg := page{sb, ino, nextIdx[ino]}
						nextIdx[ino]++
						r.v.CacheFreshPage(sb, ino, pg.idx, data)
						order = append(order, pg)
					case op < 6: // touch
						pg := use(rng.Intn(len(order)))
						r.v.TouchPage(pg.ino, pg.idx)
					case op < 8: // dirty
						pg := order[rng.Intn(len(order))]
						r.v.DirtyPage(pg.ino, pg.idx)
					case op < 9: // failed writeback of a victim
						pg := use(rng.Intn(1 + rng.Intn(len(order))))
						r.v.DirtyPage(pg.ino, pg.idx)
						r.v.TouchPage(pg.ino, pg.idx)
					default: // iput
						ino := order[rng.Intn(len(order))].ino
						r.v.DropInodePages(ino)
						kept := order[:0]
						for _, pg := range order {
							if pg.ino != ino {
								kept = append(kept, pg)
							}
						}
						order = kept
					}
					checkPageIndex(t, r)
					if len(order) == 0 {
						continue
					}
					var holder mem.Addr
					if h := rng.Intn(len(sbs) + 1); h < len(sbs) {
						holder = sbs[h]
					}
					keep := order[rng.Intn(len(order))]
					if rng.Intn(2) == 0 {
						keep = order[len(order)-1]
					}
					var releases []func()
					for _, sb := range sbs {
						if sb == holder || rng.Intn(3) == 0 {
							releases = append(releases, r.v.HoldMount(sb))
						}
					}
					ino, idx, ok, err := r.v.PickMatchesWalk(holder, keep.ino, keep.idx)
					for _, release := range releases {
						release()
					}
					if err != nil {
						t.Fatalf("seed %d step %d (holder %#x, keep (%#x, %d)): %v",
							seed, step, uint64(holder), uint64(keep.ino), keep.idx, err)
					}
					if ok {
						picks++
						if oldest := order[0]; ino != oldest.ino || idx != oldest.idx {
							passedOldest++
						}
					}
				}
				for ino := range inoSB {
					r.v.DropInodePages(ino)
				}
				if n := r.v.PageCount(); n != 0 {
					t.Fatalf("seed %d: %d pages left after dropping every inode", seed, n)
				}
			}
			if picks < 100 || passedOldest < 20 {
				t.Fatalf("weak sequence: %d picks, %d passed over the oldest page", picks, passedOldest)
			}
		})
	}
}
