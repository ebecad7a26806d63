package vfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
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
	r.noViolations(t)
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
	r.noViolations(t)
}
