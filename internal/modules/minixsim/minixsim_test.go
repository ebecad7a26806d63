package minixsim_test

import (
	"bytes"
	"fmt"
	"testing"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/vfs"
)

func boot(t *testing.T, mode core.Mode) (*minixsim.FS, *blockdev.Layer, *vfs.VFS, *core.Thread) {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("test")
	fs, err := minixsim.Load(th, k, v)
	if err != nil {
		t.Fatal(err)
	}
	return fs, bl, v, th
}

func TestExtentsAreDisjoint(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0x11}, mem.PageSize)
	b := bytes.Repeat([]byte{0x22}, mem.PageSize)
	if _, err := v.Create(th, sb, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/a", 0, a); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/b", 0, b); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	v.DropCaches(sb)
	gotA, err := v.Read(th, sb, "/a", 0, mem.PageSize)
	if err != nil || !bytes.Equal(gotA, a) {
		t.Fatalf("a clobbered: %v", err)
	}
	gotB, err := v.Read(th, sb, "/b", 0, mem.PageSize)
	if err != nil || !bytes.Equal(gotB, b) {
		t.Fatalf("b clobbered: %v", err)
	}
}

func TestFileSizeCap(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/big"); err != nil {
		t.Fatal(err)
	}
	// Writing past the per-inode extent must fail up front (s_maxbytes),
	// for partial and full-page writes alike — no dirty page that can
	// never be persisted may enter the cache.
	if _, err := v.Write(th, sb, "/big", minixsim.MaxFilePages*mem.PageSize, []byte{1}); err == nil {
		t.Fatal("partial write past the extent cap succeeded")
	}
	full := make([]byte, mem.PageSize)
	if _, err := v.Write(th, sb, "/big", minixsim.MaxFilePages*mem.PageSize, full); err == nil {
		t.Fatal("full-page write past the extent cap succeeded")
	}
	if v.DirtyCount() != 0 {
		t.Fatalf("rejected writes left %d dirty pages", v.DirtyCount())
	}
	// The mount is not wedged: in-cap traffic still syncs.
	if _, err := v.Write(th, sb, "/big", 0, full); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReuseAndExhaustion: unlinked extent slots are reclaimed (so
// create/unlink churn runs forever), and live files can never alias each
// other's extents — the 1025th live create fails cleanly instead.
func TestSlotReuseAndExhaustion(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Churn well past MaxSlots lifetimes: with slot reuse this cannot
	// exhaust or alias anything.
	for i := 0; i < minixsim.MaxSlots+64; i++ {
		if _, err := v.Create(th, sb, "/churn"); err != nil {
			t.Fatalf("churn create %d: %v", i, err)
		}
		if err := v.Unlink(th, sb, "/churn"); err != nil {
			t.Fatalf("churn unlink %d: %v", i, err)
		}
	}
	// Fill every slot with live files (directories hold no data pages,
	// so the root consumed none).
	made := 0
	for i := 0; i < minixsim.MaxSlots; i++ {
		if _, err := v.Create(th, sb, fmt.Sprintf("/live%04d", i)); err != nil {
			break
		}
		made++
	}
	if made != minixsim.MaxSlots {
		t.Fatalf("made %d live files, want %d", made, minixsim.MaxSlots)
	}
	// One more must fail — not alias a live extent.
	if _, err := v.Create(th, sb, "/overflow"); err == nil {
		t.Fatal("create beyond slot capacity succeeded")
	}
	// Unlinking frees capacity again.
	if err := v.Unlink(th, sb, "/live0000"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/overflow"); err != nil {
		t.Fatalf("create after unlink: %v", err)
	}
}

func TestMountWithoutDiskFailsCleanly(t *testing.T) {
	fs, bl, v, th := boot(t, core.Enforce)
	k := fs.K
	// The namespace is durable now, so a mount must scan the on-disk
	// directory table — a nonexistent disk fails the mount itself, like
	// a real mount(2) on a missing device, instead of limping along
	// until the first writeback.
	if _, err := v.Mount(th, minixsim.FsID, 99); err == nil {
		t.Fatal("mount on a nonexistent disk succeeded")
	}
	// An I/O error is not an isolation failure: no violation, and the
	// module survives to serve a real disk afterwards.
	if len(k.Sys.Mon.Violations()) != 0 {
		t.Fatalf("unexpected violation: %v", k.Sys.Mon.LastViolation())
	}
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatalf("mount on a real disk after the failed one: %v", err)
	}
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	if len(k.Sys.Mon.Violations()) != 0 {
		t.Fatalf("unexpected violation: %v", k.Sys.Mon.LastViolation())
	}
}

// TestStaleExtentNotExposed: extent slots are recycled, so a fresh
// file's partial write (the read-modify-write path) must not pull a
// previous occupant's sectors into the visible part of the file.
func TestStaleExtentNotExposed(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	// Pre-seed the whole disk with a recognizable stale pattern, as if
	// dead files had lived everywhere.
	disk := bl.DiskBytes(1)
	for i := range disk {
		disk[i] = 0xEE
	}
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/fresh"); err != nil {
		t.Fatal(err)
	}
	// A partial write forces the RMW path through readpage.
	if _, err := v.Write(th, sb, "/fresh", 8, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Read(th, sb, "/fresh", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 8), 0x42)
	if !bytes.Equal(got, want) {
		t.Fatalf("stale disk bytes leaked into a fresh file: %x", got)
	}
	// Same for the tail of a partially valid page after eviction.
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	v.DropCaches(sb)
	got, err = v.Read(th, sb, "/fresh", 0, 9)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stale bytes after cold refill: %x, %v", got, err)
	}
}

func TestDataSurvivesOtherMountTraffic(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	bl.AddDisk(2, minixsim.DiskSectors)
	sb1, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb2, err := v.Mount(th, minixsim.FsID, 2)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x5A}, 512)
	if _, err := v.Create(th, sb1, "/keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb1, "/keep", 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb1); err != nil {
		t.Fatal(err)
	}
	// Hammer the second mount.
	for i := 0; i < 16; i++ {
		if _, err := v.Create(th, sb2, "/noise"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write(th, sb2, "/noise", 0, bytes.Repeat([]byte{0xFF}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(th, sb2); err != nil {
			t.Fatal(err)
		}
		if err := v.Unlink(th, sb2, "/noise"); err != nil {
			t.Fatal(err)
		}
	}
	v.DropCaches(sb1)
	got, err := v.Read(th, sb1, "/keep", 0, uint64(len(secret)))
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("mount 1's data corrupted by mount 2 traffic: %v", err)
	}
}
