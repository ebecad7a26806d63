package vfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

type rig struct {
	k  *kernel.Kernel
	bl *blockdev.Layer
	v  *vfs.VFS
	th *core.Thread
}

func newRig(t *testing.T, mode core.Mode) *rig {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	v := vfs.Init(k, bl)
	return &rig{k: k, bl: bl, v: v, th: k.Sys.NewThread("test")}
}

func (r *rig) noViolations(t *testing.T) {
	t.Helper()
	if n := len(r.k.Sys.Mon.Violations()); n != 0 {
		t.Fatalf("unexpected violations: %v", r.k.Sys.Mon.LastViolation())
	}
}

func TestTmpfsRoundtrip(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.v.Mkdir(r.th, sb, "/etc"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.v.Create(r.th, sb, "/etc/motd"); err != nil {
				t.Fatal(err)
			}
			msg := []byte("hello from the page cache")
			if _, err := r.v.Write(r.th, sb, "/etc/motd", 0, msg); err != nil {
				t.Fatal(err)
			}
			got, err := r.v.Read(r.th, sb, "/etc/motd", 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("read back %q, want %q", got, msg)
			}
			size, nlink, err := r.v.Stat(r.th, sb, "/etc/motd")
			if err != nil || size != uint64(len(msg)) || nlink != 1 {
				t.Fatalf("stat = (%d, %d, %v)", size, nlink, err)
			}
			// Sparse read: offsets past a hole come back zeroed.
			if _, err := r.v.Write(r.th, sb, "/etc/motd", 2*mem.PageSize, []byte{7}); err != nil {
				t.Fatal(err)
			}
			hole, err := r.v.Read(r.th, sb, "/etc/motd", mem.PageSize, 16)
			if err != nil || !bytes.Equal(hole, make([]byte, 16)) {
				t.Fatalf("hole read = %x, %v", hole, err)
			}
			if err := r.v.Unlink(r.th, sb, "/etc/motd"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.v.Lookup(r.th, sb, "/etc/motd"); err == nil {
				t.Fatal("lookup after unlink succeeded")
			}
			r.noViolations(t)
		})
	}
}

// tmpfsFile boots a tmpfs mount holding one file with the given bytes.
func tmpfsFile(t *testing.T, path string, data []byte) (*rig, mem.Addr) {
	t.Helper()
	r := newRig(t, core.Enforce)
	if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, path, 0, data); err != nil {
		t.Fatal(err)
	}
	return r, sb
}

// TestReadLengthPastTopClamped: a read whose off+n wraps past 2^64 is
// clamped to the file's end like any other long read. Compared as a
// wrapped sum, off+n would fall below the size, leave n huge, and panic
// the kernel in the buffer allocation on a syscall argument.
func TestReadLengthPastTopClamped(t *testing.T) {
	r, sb := tmpfsFile(t, "/f", []byte("01234567"))
	got, err := r.v.Read(r.th, sb, "/f", 4, ^uint64(0)-2)
	if err != nil || string(got) != "4567" {
		t.Fatalf("read = %q, %v; want \"4567\"", got, err)
	}
	r.noViolations(t)
}

// TestWriteRangePastTopRejected: a write whose range wraps past 2^64 is
// rejected before any page is touched: its second chunk's position
// would wrap to 0 and overwrite the file's first bytes.
func TestWriteRangePastTopRejected(t *testing.T) {
	r, sb := tmpfsFile(t, "/f", []byte("AAAA"))
	if n, err := r.v.Write(r.th, sb, "/f", ^uint64(0), []byte("BB")); err == nil {
		t.Fatalf("wrapping write returned %d bytes and no error", n)
	}
	got, err := r.v.Read(r.th, sb, "/f", 0, 16)
	if err != nil || string(got) != "AAAA" {
		t.Fatalf("file reads %q, %v after the rejected write; want \"AAAA\"", got, err)
	}
	r.noViolations(t)
}

func TestMinixPersistsToDisk(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/data"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 3*mem.PageSize)
	if _, err := r.v.Write(r.th, sb, "/data", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if r.v.DirtyCount() != 0 {
		t.Fatalf("dirty pages after sync: %d", r.v.DirtyCount())
	}
	// The bytes must be on the simulated disk, not just in the cache.
	if !bytes.Contains(r.bl.DiskBytes(1), payload[:mem.PageSize]) {
		t.Fatal("payload not written to the backing disk")
	}
	// Evict the cache; the next read must refill from disk via readpage.
	fills := r.v.Stats.PageFills.Load()
	if n := r.v.DropCaches(sb); n == 0 {
		t.Fatal("DropCaches evicted nothing")
	}
	got, err := r.v.Read(r.th, sb, "/data", 0, uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data did not survive cache eviction")
	}
	if r.v.Stats.PageFills.Load() == fills {
		t.Fatal("cold read did not cross into the module")
	}
	r.noViolations(t)
}

// TestPageOwnershipReturns verifies the capability story of the page
// cache: after read and writeback complete, the mount's principal holds
// neither WRITE nor REF for the cached page.
func TestPageOwnershipReturns(t *testing.T) {
	r := newRig(t, core.Enforce)
	fs, err := tmpfssim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := r.v.Create(r.th, sb, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	pg, ok := r.v.PageAddr(ino, 0)
	if !ok {
		t.Fatal("page not cached")
	}
	prin, ok := fs.M.Set.Lookup(sb)
	if !ok {
		t.Fatal("no instance principal for the mount")
	}
	if r.k.Sys.Caps.OwnsDirectly(prin, caps.WriteCap(pg, mem.PageSize)) {
		t.Fatal("mount principal retained WRITE on a clean page-cache page")
	}
	if got := r.k.Sys.Caps.WriteGrantees(nil, pg); len(got) != 0 {
		t.Fatalf("page still write-granted to %v", got)
	}
	if got := r.k.Sys.Caps.RefGrantees(vfs.PageRef, pg); len(got) != 0 {
		t.Fatalf("page still REF-granted to %v", got)
	}
	// The inode, in contrast, stays with the mount that allocated it.
	if !r.k.Sys.Caps.Check(prin, caps.WriteCap(ino, 8)) {
		t.Fatal("mount principal lost its inode")
	}
}

// TestMountsAreDistinctPrincipals: two mounts of one module must not
// share capabilities — the dm-crypt two-volume argument of §2.1, on the
// filesystem substrate.
func TestMountsAreDistinctPrincipals(t *testing.T) {
	r := newRig(t, core.Enforce)
	fs, err := tmpfssim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sbA, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	sbB, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	inoB, err := r.v.Create(r.th, sbB, "/secret")
	if err != nil {
		t.Fatal(err)
	}
	prinA, _ := fs.M.Set.Lookup(sbA)
	if prinA == nil {
		t.Fatal("no principal for mount A")
	}
	if r.k.Sys.Caps.Check(prinA, caps.WriteCap(sbB, 8)) {
		t.Fatal("mount A can write mount B's superblock")
	}
	if r.k.Sys.Caps.Check(prinA, caps.WriteCap(inoB, 8)) {
		t.Fatal("mount A can write mount B's inode")
	}
}

func TestUnmountReclaims(t *testing.T) {
	r := newRig(t, core.Enforce)
	fs, err := tmpfssim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/a", 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if n := r.v.PageCount(); n != 0 {
		t.Fatalf("pages leaked across unmount: %d", n)
	}
	if n := r.v.DcacheLen(); n != 0 {
		t.Fatalf("dentries leaked across unmount: %d", n)
	}
	if fs.M.Dead() {
		t.Fatal("module died during a clean unmount")
	}
	// The filesystem can be mounted again.
	if _, err := r.v.Mount(r.th, tmpfssim.FsID, 0); err != nil {
		t.Fatal(err)
	}
	r.noViolations(t)
}

func entryNames(ents []vfs.DirEntry) map[string]vfs.DirEntry {
	m := make(map[string]vfs.DirEntry, len(ents))
	for _, e := range ents {
		m[e.Name] = e
	}
	return m
}

func TestReaddir(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.v.Mkdir(r.th, sb, "/d"); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"/a", "/b", "/d/x", "/d/y", "/d/z"} {
				if _, err := r.v.Create(r.th, sb, p); err != nil {
					t.Fatal(err)
				}
			}
			root, err := r.v.Readdir(r.th, sb, "/")
			if err != nil {
				t.Fatal(err)
			}
			got := entryNames(root)
			if len(got) != 3 {
				t.Fatalf("root entries = %v, want a, b, d", root)
			}
			if e, ok := got["d"]; !ok || e.Mode != vfs.ModeDir {
				t.Fatalf("missing or non-dir entry d: %v", root)
			}
			if e, ok := got["a"]; !ok || e.Mode != vfs.ModeFile || e.Ino == 0 {
				t.Fatalf("bad entry a: %+v", e)
			}
			sub, err := r.v.Readdir(r.th, sb, "/d")
			if err != nil {
				t.Fatal(err)
			}
			if got := entryNames(sub); len(got) != 3 || got["x"].Name != "x" || got["z"].Name != "z" {
				t.Fatalf("subdir entries = %v, want x, y, z", sub)
			}
			// Readdir of a file is an error, not an empty listing.
			if _, err := r.v.Readdir(r.th, sb, "/a"); err == nil {
				t.Fatal("readdir of a regular file succeeded")
			}
			r.noViolations(t)
		})
	}
}

// TestRenameMovesSubtree: renaming a directory moves its dentry-trie
// subtree, so cached children stay resolvable under the new path and
// the old path is gone.
func TestRenameAcrossDirectories(t *testing.T) {
	r := newRig(t, core.Enforce)
	if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/src", "/dst"} {
		if _, err := r.v.Mkdir(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.v.Create(r.th, sb, "/src/f"); err != nil {
		t.Fatal(err)
	}
	body := []byte("travels with the rename")
	if _, err := r.v.Write(r.th, sb, "/src/f", 0, body); err != nil {
		t.Fatal(err)
	}
	// A plain file rename across directories.
	if err := r.v.Rename(r.th, sb, "/src/f", sb, "/dst/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Lookup(r.th, sb, "/src/f"); err == nil {
		t.Fatal("old path still resolves")
	}
	got, err := r.v.Read(r.th, sb, "/dst/g", 0, uint64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("data lost across rename: %q, %v", got, err)
	}
	// A directory rename: the cached child must follow the subtree.
	if err := r.v.Rename(r.th, sb, "/dst", sb, "/moved"); err != nil {
		t.Fatal(err)
	}
	got, err = r.v.Read(r.th, sb, "/moved/g", 0, uint64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("subtree child unreachable after dir rename: %q, %v", got, err)
	}
	if _, err := r.v.Lookup(r.th, sb, "/dst/g"); err == nil {
		t.Fatal("old subtree path still resolves")
	}
	// Renaming a directory into its own subtree must fail.
	if err := r.v.Rename(r.th, sb, "/moved", sb, "/moved/inside"); err == nil {
		t.Fatal("rename into own subtree succeeded")
	}
	if r.v.Stats.Renames.Load() != 2 {
		t.Fatalf("Renames = %d, want 2", r.v.Stats.Renames.Load())
	}
	r.noViolations(t)
}

func TestRenameOverExistingTarget(t *testing.T) {
	r := newRig(t, core.Enforce)
	if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	keep := []byte("the survivor")
	for _, p := range []string{"/winner", "/loser"} {
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.v.Write(r.th, sb, "/winner", 0, keep); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/loser", 0, []byte("doomed bytes")); err != nil {
		t.Fatal(err)
	}
	unlinks := r.v.Stats.Unlinks.Load()
	if err := r.v.Rename(r.th, sb, "/winner", sb, "/loser"); err != nil {
		t.Fatal(err)
	}
	got, err := r.v.Read(r.th, sb, "/loser", 0, uint64(len(keep)))
	if err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("target holds %q after rename-over, want %q (%v)", got, keep, err)
	}
	if _, err := r.v.Lookup(r.th, sb, "/winner"); err == nil {
		t.Fatal("source still resolves after rename-over")
	}
	if r.v.Stats.Unlinks.Load() != unlinks+1 {
		t.Fatalf("replaced target not unlinked: %d -> %d", unlinks, r.v.Stats.Unlinks.Load())
	}
	// Kind mismatch: a file cannot replace a directory.
	if _, err := r.v.Mkdir(r.th, sb, "/dir"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Rename(r.th, sb, "/loser", sb, "/dir"); err == nil {
		t.Fatal("file replaced a directory")
	}
	r.noViolations(t)
}

// TestRenameCrossMountRejected: two mounts are two principals; an inode
// cannot change owners by renaming, so the VFS rejects with EXDEV
// before any module state changes.
func TestRenameCrossMountRejected(t *testing.T) {
	r := newRig(t, core.Enforce)
	fs, err := tmpfssim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sbA, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	sbB, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sbA, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Rename(r.th, sbA, "/f", sbB, "/stolen"); err == nil {
		t.Fatal("cross-mount rename succeeded")
	}
	// The rejection is a kernel-side policy decision, not a module
	// contract violation: nothing recorded, nobody killed, and both
	// namespaces are unchanged.
	r.noViolations(t)
	if fs.M.Dead() {
		t.Fatal("module killed by a rejected rename")
	}
	if _, err := r.v.Lookup(r.th, sbA, "/f"); err != nil {
		t.Fatalf("source vanished after rejected rename: %v", err)
	}
	if _, err := r.v.Lookup(r.th, sbB, "/stolen"); err == nil {
		t.Fatal("target appeared on the other mount")
	}
}

// TestLRUBudgetEviction: the page budget bounds the cache, the victim
// is the least-recently-used page, and touching a page protects it.
func TestLRUBudgetEviction(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/f0", "/f1", "/f2"}
	for _, p := range paths {
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, bytes.Repeat([]byte{1}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	r.v.SetPageBudget(2)
	r.v.ShrinkToBudget(r.th)
	if n := r.v.PageCount(); n > 2 {
		t.Fatalf("cache at %d pages, budget 2", n)
	}
	// Warm f0 and f1 (refilling as needed), then touch f0 again so f1
	// is the LRU victim when f2 comes in.
	for _, p := range []string{"/f0", "/f1", "/f0"} {
		if _, err := r.v.Read(r.th, sb, p, 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.v.Read(r.th, sb, "/f2", 0, 8); err != nil {
		t.Fatal(err)
	}
	if n := r.v.PageCount(); n > 2 {
		t.Fatalf("cache at %d pages, budget 2", n)
	}
	fills := r.v.Stats.PageFills.Load()
	if _, err := r.v.Read(r.th, sb, "/f0", 0, 8); err != nil {
		t.Fatal(err)
	}
	if r.v.Stats.PageFills.Load() != fills {
		t.Fatal("recently-touched f0 was evicted instead of LRU f1")
	}
	if _, err := r.v.Read(r.th, sb, "/f1", 0, 8); err != nil {
		t.Fatal(err)
	}
	if r.v.Stats.PageFills.Load() == fills {
		t.Fatal("LRU victim f1 was still cached")
	}
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("no evictions counted")
	}
	r.noViolations(t)
}

// TestDirtyEvictionForcesWriteback: under memory pressure dirty pages
// reach the disk through the module's REF-checked writepage without any
// explicit Sync — and no capability leaks from the forced crossings.
func TestDirtyEvictionForcesWriteback(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.v.SetPageBudget(2)
	payload := bytes.Repeat([]byte{0xC7}, mem.PageSize)
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if r.v.Stats.EvictWrites.Load() == 0 {
		t.Fatal("no eviction-forced writebacks")
	}
	if n := r.v.PageCount(); n > 2 {
		t.Fatalf("cache at %d pages, budget 2", n)
	}
	// The evicted files' bytes must be on disk, readable after refill.
	if !bytes.Contains(r.bl.DiskBytes(1), payload) {
		t.Fatal("evicted dirty data never reached the disk")
	}
	got, err := r.v.Read(r.th, sb, "/f0", 0, mem.PageSize)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("f0 lost under pressure: %v", err)
	}
	r.noViolations(t)
}

// TestFailedWritebackKeepsDataSafe: when the backing device disappears,
// neither Sync nor eviction pressure may drop a dirty page — the data
// stays cached and readable, and no violation is recorded (an I/O error
// is not an isolation failure). Plugging the disk back in lets Sync
// drain the backlog.
func TestFailedWritebackKeepsDataSafe(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, mem.PageSize)
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	disk := append([]byte{}, r.bl.DiskBytes(1)...)
	r.bl.RemoveDisk(1)
	if err := r.v.Sync(r.th, sb); err == nil {
		t.Fatal("writeback reached a removed disk")
	}
	if r.v.DirtyCount() == 0 {
		t.Fatal("failed writeback cleared the dirty bit")
	}
	// Eviction pressure must not discard the unpersistable pages either.
	r.v.SetPageBudget(1)
	r.v.ShrinkToBudget(r.th)
	r.v.SetPageBudget(0)
	for i := 0; i < 3; i++ {
		got, err := r.v.Read(r.th, sb, fmt.Sprintf("/f%d", i), 0, mem.PageSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("dirty data lost after failed writeback: %v", err)
		}
	}
	if len(r.k.Sys.Mon.Violations()) != 0 {
		t.Fatalf("I/O error recorded as a violation: %v", r.k.Sys.Mon.LastViolation())
	}
	// The disk returns (same contents): the backlog drains.
	r.bl.AddDisk(1, minixsim.DiskSectors)
	copy(r.bl.DiskBytes(1), disk)
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatalf("sync after disk returned: %v", err)
	}
	if r.v.DirtyCount() != 0 {
		t.Fatalf("dirty pages after recovered sync: %d", r.v.DirtyCount())
	}
	r.noViolations(t)
}

// TestMemOnlyExceedsBudgetRatherThanEvict: a tmpfs page cache is the
// only copy of the data, so the budget never discards it.
func TestMemOnlyExceedsBudgetRatherThanEvict(t *testing.T) {
	r := newRig(t, core.Enforce)
	if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.v.SetPageBudget(1)
	payload := bytes.Repeat([]byte{9}, mem.PageSize)
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.v.PageCount(); n != 3 {
		t.Fatalf("tmpfs pages = %d, want all 3 retained", n)
	}
	if r.v.Stats.Evictions.Load() != 0 {
		t.Fatal("memory-only pages were evicted")
	}
	for i := 0; i < 3; i++ {
		got, err := r.v.Read(r.th, sb, fmt.Sprintf("/f%d", i), 0, mem.PageSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("tmpfs data lost under budget pressure: %v", err)
		}
	}
	r.noViolations(t)
}

// TestMinixRemountRecoversNamespace: the directory table lives on the
// disk, so unmount + mount on the same device recovers the whole tree —
// names, hierarchy, sizes, and data — from the disk alone.
func TestMinixRemountRecoversNamespace(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("durable bytes under /deep")
	if _, err := r.v.Mkdir(r.th, sb, "/deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/deep/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/deep/file", 0, body); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/top"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/gone"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unlink(r.th, sb, "/gone"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Rename(r.th, sb, "/top", sb, "/deep/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	// Everything below must come from the disk: the dentry cache and
	// page cache were torn down with the old mount.
	sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, err := r.v.Readdir(r.th, sb, "/")
	if err != nil {
		t.Fatal(err)
	}
	names := entryNames(root)
	if len(names) != 1 || names["deep"].Mode != vfs.ModeDir {
		t.Fatalf("recovered root = %v, want only dir deep", root)
	}
	sub, err := r.v.Readdir(r.th, sb, "/deep")
	if err != nil {
		t.Fatal(err)
	}
	subNames := entryNames(sub)
	if len(subNames) != 2 {
		t.Fatalf("recovered /deep = %v, want file + renamed", sub)
	}
	size, _, err := r.v.Stat(r.th, sb, "/deep/file")
	if err != nil || size != uint64(len(body)) {
		t.Fatalf("recovered size = %d (%v), want %d", size, err, len(body))
	}
	got, err := r.v.Read(r.th, sb, "/deep/file", 0, uint64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("recovered data = %q (%v), want %q", got, err, body)
	}
	if _, err := r.v.Lookup(r.th, sb, "/gone"); err == nil {
		t.Fatal("unlinked file resurrected by remount")
	}
	if _, err := r.v.Lookup(r.th, sb, "/deep/renamed"); err != nil {
		t.Fatalf("renamed file lost across remount: %v", err)
	}
	// The recovered slot bookkeeping must keep handing out fresh
	// extents that do not alias the recovered files.
	if _, err := r.v.Create(r.th, sb, "/fresh"); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0x3C}, mem.PageSize)
	if _, err := r.v.Write(r.th, sb, "/fresh", 0, fresh); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	got, err = r.v.Read(r.th, sb, "/deep/file", 0, uint64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatal("new file's extent aliased a recovered file")
	}
	r.noViolations(t)
}

// TestCrossDeviceWriteRejected: the dm_write_sectors REF(block device)
// check pins a mount to its own disk — a compromised module's raw
// sector write at another mount's device is a violation, not silent
// stable-storage corruption.
func TestCrossDeviceWriteRejected(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	r.bl.AddDisk(2, minixsim.DiskSectors)
	fs, err := minixsim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sbA, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Mount(r.th, minixsim.FsID, 2); err != nil {
		t.Fatal(err)
	}
	// A poke at the mount's own disk is the module's prerogative.
	if _, err := r.v.Ioctl(r.th, sbA, minixsim.CmdPokeDisk, 1); err != nil {
		t.Fatalf("poke at own disk rejected: %v", err)
	}
	r.noViolations(t)
	// The cross-device write is stopped before it reaches disk 2.
	before := append([]byte{}, r.bl.DiskBytes(2)...)
	if _, err := r.v.Ioctl(r.th, sbA, minixsim.CmdPokeDisk, 2); err == nil {
		t.Fatal("cross-device sector write succeeded under Enforce")
	}
	if len(r.k.Sys.Mon.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}
	if !bytes.Equal(r.bl.DiskBytes(2), before) {
		t.Fatal("disk 2 was modified by mount A's poke")
	}
	if !fs.M.Dead() {
		t.Fatal("violating module was not killed")
	}
}

// TestRemountDropsOrphanedRecords: a directory record destroyed on disk
// (simulated corruption) orphans its whole subtree — recovery must drop
// the orphans entirely and reuse their slots, not resurrect ghosts or
// link children under freed inodes.
func TestRemountDropsOrphanedRecords(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	// /a (slot 0) -> /a/b (slot 1) -> /a/b/c (slot 2), plus /keep.
	if _, err := r.v.Mkdir(r.th, sb, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Mkdir(r.th, sb, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/keep"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	// Corrupt /a's directory-table record (slot 0): zero its used bit.
	disk := r.bl.DiskBytes(1)
	off := minixsim.DirTabStart * blockdev.SectorSize
	for i := 0; i < 8; i++ {
		disk[off+i] = 0
	}
	sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := r.v.Readdir(r.th, sb, "/")
	if err != nil {
		t.Fatal(err)
	}
	names := entryNames(ents)
	if len(names) != 1 || names["keep"].Name != "keep" {
		t.Fatalf("recovered root = %v, want only keep", ents)
	}
	// The orphaned subtree's slots are reusable; new files work fine.
	for i := 0; i < 3; i++ {
		if _, err := r.v.Create(r.th, sb, fmt.Sprintf("/new%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.noViolations(t)
}

// TestRemountedDirEmptinessChecks: right after a remount the dentry
// cache is cold, so "directory not empty" decisions must come from the
// module's table, not the cache — neither unlink nor rename-over may
// destroy a recovered directory that still has children on disk.
func TestRemountedDirEmptinessChecks(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Mkdir(r.th, sb, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/d/child"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Mkdir(r.th, sb, "/empty"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The cache has never seen /d/child; the module has.
	if err := r.v.Unlink(r.th, sb, "/d"); err == nil {
		t.Fatal("unlinked a non-empty recovered directory")
	}
	if _, err := r.v.Mkdir(r.th, sb, "/e"); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Rename(r.th, sb, "/e", sb, "/d"); err == nil {
		t.Fatal("renamed over a non-empty recovered directory")
	}
	if _, err := r.v.Lookup(r.th, sb, "/d/child"); err != nil {
		t.Fatalf("child lost: %v", err)
	}
	// An actually-empty recovered directory may be replaced.
	if err := r.v.Rename(r.th, sb, "/e", sb, "/empty"); err != nil {
		t.Fatalf("rename over an empty recovered directory: %v", err)
	}
	r.noViolations(t)
}

// TestColdCacheExistenceChecks: after a remount, create and rename
// must discover existing names through the module, not conclude
// "absent" from the cold dentry cache — otherwise they would mint
// duplicate directory entries.
func TestColdCacheExistenceChecks(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	oldBody := []byte("the original a")
	if _, err := r.v.Create(r.th, sb, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/b", 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/a", 0, oldBody); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Create of a recovered name, without any prior lookup: EEXIST.
	if _, err := r.v.Create(r.th, sb, "/a"); err == nil {
		t.Fatal("created a duplicate of a recovered file")
	}
	// Rename over a recovered name, without any prior lookup: the old
	// target must be replaced, not shadowed by a duplicate entry.
	if err := r.v.Rename(r.th, sb, "/a", sb, "/b"); err != nil {
		t.Fatal(err)
	}
	ents, err := r.v.Readdir(r.th, sb, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "b" {
		t.Fatalf("root after rename-over = %v, want exactly one b", ents)
	}
	got, err := r.v.Read(r.th, sb, "/b", 0, uint64(len(oldBody)))
	if err != nil || !bytes.Equal(got, oldBody) {
		t.Fatalf("/b holds %q, want the renamed file's data", got)
	}
	// The namespace stays deduplicated across one more remount.
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if err := r.v.Unmount(r.th, sb); err != nil {
		t.Fatal(err)
	}
	sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	ents, err = r.v.Readdir(r.th, sb, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "b" {
		t.Fatalf("recovered root = %v, want exactly one b", ents)
	}
	r.noViolations(t)
}

// TestReaddirSurvivesEviction: enumerating a directory whose files'
// pages were all evicted is a namespace operation — it must not depend
// on the page cache.
func TestReaddirSurvivesEviction(t *testing.T) {
	r := newRig(t, core.Enforce)
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Mkdir(r.th, sb, "/d"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAA}, 2*mem.PageSize)
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	if n := r.v.DropCaches(sb); n == 0 {
		t.Fatal("nothing evicted")
	}
	if r.v.PageCount() != 0 {
		t.Fatalf("pages survive DropCaches: %d", r.v.PageCount())
	}
	ents, err := r.v.Readdir(r.th, sb, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("readdir after eviction = %d entries, want 4", len(ents))
	}
	got, err := r.v.Read(r.th, sb, "/d/f2", 0, uint64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("refill after eviction failed: %v", err)
	}
	r.noViolations(t)
}

// TestPokeConfinedToOwnPrincipal: the compromised ioctl can scribble on
// memory its own mount owns, but a write aimed at another mount's cached
// page is a violation that kills the module.
func TestPokeConfinedToOwnPrincipal(t *testing.T) {
	r := newRig(t, core.Enforce)
	fs, err := tmpfssim.Load(r.th, r.k, r.v)
	if err != nil {
		t.Fatal(err)
	}
	sbA, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	sbB, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	inoB, err := r.v.Create(r.th, sbB, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("precious bytes")
	if _, err := r.v.Write(r.th, sbB, "/victim", 0, secret); err != nil {
		t.Fatal(err)
	}
	pg, ok := r.v.PageAddr(inoB, 0)
	if !ok {
		t.Fatal("victim page not cached")
	}

	// A poke at the module's own inode (owned by mount A) is allowed.
	inoA, err := r.v.Create(r.th, sbA, "/own")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Ioctl(r.th, sbA, tmpfssim.CmdPoke, uint64(r.v.InodeField(inoA, "private"))); err != nil {
		t.Fatalf("poke at own memory rejected: %v", err)
	}

	// The cross-principal page-cache write is blocked.
	if _, err := r.v.Ioctl(r.th, sbA, tmpfssim.CmdPoke, uint64(pg)); err == nil {
		t.Fatal("cross-principal page write succeeded under Enforce")
	}
	if len(r.k.Sys.Mon.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}
	got, err := r.v.Read(r.th, sbB, "/victim", 0, uint64(len(secret)))
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("victim data corrupted: %q, %v", got, err)
	}
	if !fs.M.Dead() {
		t.Fatal("violating module was not killed")
	}
}
