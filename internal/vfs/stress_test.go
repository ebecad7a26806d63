package vfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lxfi/internal/core"
	"lxfi/internal/coredump"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// The VFS stress battery: worker threads on real goroutines hammer two
// mounts (tmpfssim and minixsim simultaneously) with the full op mix —
// create, write, read, rename, readdir, unlink — under a page budget
// small enough to force eviction (including cross-mount TryLock
// eviction) and with the background writeback flusher enabled. One more
// thread applies the budget with ShrinkToBudget in a loop: it holds no
// mount, so every page it looks at is another mount's. The assertions
// are (a) the race detector stays quiet, (b) the monitor records no
// violations, (c) both namespaces drain to empty, and (d) a dump of the
// system validates, its page-cache dirty count included.
func TestVFSParallelStressTwoMounts(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			defer r.k.Shutdown()
			r.bl.AddDisk(1, minixsim.DiskSectors)
			if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			sbT, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
			if err != nil {
				t.Fatal(err)
			}
			sbM, err := r.v.Mount(r.th, minixsim.FsID, 1)
			if err != nil {
				t.Fatal(err)
			}

			r.v.SetPageBudget(8)
			defer r.v.SetPageBudget(0)
			r.v.EnableWriteback(200 * time.Microsecond)
			defer r.v.DisableWriteback()

			const (
				workersPerMount = 3
				iters           = 25
			)
			payload := bytes.Repeat([]byte{0xA5}, mem.PageSize+mem.PageSize/2)
			type job struct {
				sb   mem.Addr
				name string
			}
			var jobs []job
			for w := 0; w < workersPerMount; w++ {
				jobs = append(jobs,
					job{sbT, fmt.Sprintf("t%d", w)},
					job{sbM, fmt.Sprintf("m%d", w)})
			}
			errs := make([]error, len(jobs))
			stop := make(chan struct{})
			// The shrinker also checks the page cache's lists against its
			// map while the workers run.
			var indexErr error
			shrinker := r.k.Sys.Spawn("stress-shrink", func(th *core.Thread) {
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
						r.v.ShrinkToBudget(th)
					}
					if n%16 == 0 && indexErr == nil {
						indexErr = r.v.CheckPageIndex()
					}
				}
			})
			var handles []*core.ThreadHandle
			for i, j := range jobs {
				i, j := i, j
				handles = append(handles, r.k.Sys.Spawn("stress-"+j.name, func(th *core.Thread) {
					for n := 0; n < iters; n++ {
						path := fmt.Sprintf("/%s_%03d", j.name, n)
						moved := path + "_r"
						if _, err := r.v.Create(th, j.sb, path); err != nil {
							errs[i] = fmt.Errorf("create %s: %w", path, err)
							return
						}
						if _, err := r.v.Write(th, j.sb, path, 0, payload); err != nil {
							errs[i] = fmt.Errorf("write %s: %w", path, err)
							return
						}
						got, err := r.v.Read(th, j.sb, path, 0, uint64(len(payload)))
						if err != nil || !bytes.Equal(got, payload) {
							errs[i] = fmt.Errorf("read %s: %v (corrupt=%v)", path, err, err == nil)
							return
						}
						if err := r.v.Rename(th, j.sb, path, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("rename %s: %w", path, err)
							return
						}
						if _, _, err := r.v.Stat(th, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("stat %s: %w", moved, err)
							return
						}
						if n%5 == 0 {
							if _, err := r.v.Readdir(th, j.sb, "/"); err != nil {
								errs[i] = fmt.Errorf("readdir: %w", err)
								return
							}
						}
						if err := r.v.Unlink(th, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("unlink %s: %w", moved, err)
							return
						}
					}
				}))
			}
			for _, h := range handles {
				h.Join()
			}
			close(stop)
			shrinker.Join()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %s: %v", jobs[i].name, err)
				}
			}
			if indexErr != nil {
				t.Fatalf("page index during the run: %v", indexErr)
			}
			if err := r.v.CheckPageIndex(); err != nil {
				t.Fatalf("page index after the run: %v", err)
			}
			r.noViolations(t)
			for _, sb := range []mem.Addr{sbT, sbM} {
				ents, err := r.v.Readdir(r.th, sb, "/")
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("mount %#x not drained: %v", uint64(sb), ents)
				}
			}
			d := coredump.Snapshot(r.k.Sys, coredump.Options{Reason: "stress", VFS: r.v})
			if issues := coredump.Validate(d); len(issues) != 0 {
				t.Fatalf("dump invalid:\n%s", coredump.FormatIssues(issues))
			}
		})
	}
}

// TestBackgroundFlusherAgesDirtyPages: one synchronous flusher pass
// (FlushAged drives exactly what the kflushd daemon's timer drives)
// must write aged dirty pages back through the module's REF-checked
// writepage, so later foreground eviction finds clean victims and pays
// no crossing.
func TestBackgroundFlusherAgesDirtyPages(t *testing.T) {
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
	payload := bytes.Repeat([]byte{0xC3}, 2*mem.PageSize)
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if r.v.DirtyCount() == 0 {
		t.Fatal("no dirty pages to flush")
	}

	flusher := r.k.Sys.NewThread("kflushd-test")
	r.v.FlushAged(flusher)
	if n := r.v.DirtyCount(); n != 0 {
		t.Fatalf("%d pages still dirty after the flusher pass", n)
	}
	if r.v.Stats.FlushWrites.Load() == 0 {
		t.Fatal("flusher reported no writeback work")
	}
	if !bytes.Contains(r.bl.DiskBytes(1), payload[:mem.PageSize]) {
		t.Fatal("flusher did not persist the data")
	}

	// Foreground eviction now finds clean pages: crossings-free reclaim.
	evictWritesBefore := r.v.Stats.EvictWrites.Load()
	r.v.SetPageBudget(2)
	r.v.ShrinkToBudget(r.th)
	r.v.SetPageBudget(0)
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("budget pressure evicted nothing")
	}
	if got := r.v.Stats.EvictWrites.Load(); got != evictWritesBefore {
		t.Fatalf("foreground eviction paid %d writepage crossings despite the flusher", got-evictWritesBefore)
	}
	r.noViolations(t)
}

// TestFlusherDaemonRunsOnTimer: the kflushd daemon the kernel spawned
// at boot must, once EnableWriteback arms it, clean dirty pages with no
// foreground help at all.
func TestFlusherDaemonRunsOnTimer(t *testing.T) {
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
	if _, err := r.v.Create(r.th, sb, "/aged"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/aged", 0, []byte("patience")); err != nil {
		t.Fatal(err)
	}
	r.v.EnableWriteback(time.Millisecond)
	defer r.v.DisableWriteback()
	deadline := time.Now().Add(5 * time.Second)
	for r.v.DirtyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher daemon never cleaned the dirty page")
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Contains(r.bl.DiskBytes(1), []byte("patience")) {
		t.Fatal("daemon writeback did not reach the disk")
	}
	r.noViolations(t)
}
