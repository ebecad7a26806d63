package minixsim_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/vfs"
)

// The crash-recovery battery: every workload op runs once under sector
// capture, then the disk is rebuilt at every possible power-cut point —
// after each individual sector write the op made, journal sectors
// included — and remounted on a cold kernel. The recovered namespace
// must be exactly the pre-op or exactly the post-op state, never a
// duplicated, half-moved, or half-killed hybrid.

// fsState is an observable namespace snapshot: path → "" for a
// directory, file content otherwise. Paths absent from the map must not
// exist.
type fsState map[string]string

// probeState reads the current state of every path in the probe union.
func probeState(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr, probes []string) fsState {
	t.Helper()
	got := fsState{}
	for _, p := range probes {
		ino, err := v.Lookup(th, sb, p)
		if err != nil {
			continue
		}
		mode, _ := v.K.Sys.AS.ReadU64(v.InodeField(ino, "mode"))
		if mode == vfs.ModeDir {
			got[p] = ""
			continue
		}
		size, _, err := v.Stat(th, sb, p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		data, err := v.Read(th, sb, p, 0, size)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		got[p] = string(data)
	}
	return got
}

func sameState(a, b fsState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// crashScenario is one workload op of the power-cut matrix.
type crashScenario struct {
	name   string
	setup  func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr)
	op     func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error
	probes []string
}

func mkfile(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr, path, content string) {
	t.Helper()
	if _, err := v.Create(th, sb, path); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if content != "" {
		if _, err := v.Write(th, sb, path, 0, []byte(content)); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
}

func crashScenarios() []crashScenario {
	return []crashScenario{
		{
			name: "create",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				mkfile(t, v, th, sb, "/keep", "bystander")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				_, err := v.Create(th, sb, "/new")
				return err
			},
			probes: []string{"/keep", "/new"},
		},
		{
			name: "rename",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				if _, err := v.Mkdir(th, sb, "/d"); err != nil {
					t.Fatal(err)
				}
				mkfile(t, v, th, sb, "/a", "moving payload")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.Rename(th, sb, "/a", sb, "/d/b")
			},
			probes: []string{"/d", "/a", "/d/b"},
		},
		{
			name: "rename-replace",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				mkfile(t, v, th, sb, "/a", "the winner")
				mkfile(t, v, th, sb, "/b", "the victim")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.Rename(th, sb, "/a", sb, "/b")
			},
			probes: []string{"/a", "/b"},
		},
		{
			name: "unlink",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				mkfile(t, v, th, sb, "/doomed", "short-lived")
				mkfile(t, v, th, sb, "/keep", "bystander")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.Unlink(th, sb, "/doomed")
			},
			probes: []string{"/doomed", "/keep"},
		},
		{
			name: "exchange",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				if _, err := v.Mkdir(th, sb, "/d"); err != nil {
					t.Fatal(err)
				}
				mkfile(t, v, th, sb, "/x", "first body")
				mkfile(t, v, th, sb, "/d/y", "second body")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.RenameFlags(th, sb, "/x", sb, "/d/y", vfs.RenameExchange)
			},
			probes: []string{"/d", "/x", "/d/y"},
		},
		{
			name: "link",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				mkfile(t, v, th, sb, "/orig", "shared bytes")
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.Link(th, sb, "/orig", "/alias")
			},
			probes: []string{"/orig", "/alias"},
		},
		{
			name: "unlink-hardlink",
			setup: func(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr) {
				mkfile(t, v, th, sb, "/orig", "shared bytes")
				if err := v.Link(th, sb, "/orig", "/alias"); err != nil {
					t.Fatal(err)
				}
			},
			op: func(v *vfs.VFS, th *core.Thread, sb mem.Addr) error {
				return v.Unlink(th, sb, "/alias")
			},
			probes: []string{"/orig", "/alias"},
		},
	}
}

// TestPowerCutEveryJournalWrite is the corruption-injection matrix: for
// each scenario, capture the op's sector writes, then for every prefix
// of that write log rebuild the disk as a power cut at that point would
// leave it and remount cold. Recovery must land on exactly pre-op or
// exactly post-op — and on the full log, exactly post-op.
func TestPowerCutEveryJournalWrite(t *testing.T) {
	for _, sc := range crashScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			_, bl, v, th := boot(t, core.Enforce)
			bl.AddDisk(1, minixsim.DiskSectors)
			sb, err := v.Mount(th, minixsim.FsID, 1)
			if err != nil {
				t.Fatal(err)
			}
			sc.setup(t, v, th, sb)
			if err := v.Sync(th, sb); err != nil {
				t.Fatal(err)
			}
			pre := probeState(t, v, th, sb, sc.probes)

			bl.StartCapture(1)
			if err := sc.op(v, th, sb); err != nil {
				t.Fatalf("op: %v", err)
			}
			initial, log := bl.StopCapture(1)
			if len(log) == 0 {
				t.Fatal("op made no sector writes; nothing to cut")
			}
			post := probeState(t, v, th, sb, sc.probes)
			if sameState(pre, post) {
				t.Fatal("scenario is a no-op; pre and post are indistinguishable")
			}

			for n := 0; n <= len(log); n++ {
				img := blockdev.ReplayPrefix(initial, log, n)
				fs2, bl2, v2, th2 := boot(t, core.Enforce)
				bl2.AddDisk(1, minixsim.DiskSectors)
				copy(bl2.DiskBytes(1), img)
				sb2, err := v2.Mount(th2, minixsim.FsID, 1)
				if err != nil {
					t.Fatalf("cut after %d/%d writes: remount failed: %v", n, len(log), err)
				}
				fs2.CheckIndex(t, sb2)
				got := probeState(t, v2, th2, sb2, sc.probes)
				switch {
				case sameState(got, pre), sameState(got, post):
				default:
					t.Fatalf("cut after %d/%d writes: recovered %v, want pre %v or post %v",
						n, len(log), got, pre, post)
				}
				if n == len(log) && !sameState(got, post) {
					t.Fatalf("full log replay recovered %v, want post %v", got, post)
				}
			}
		})
	}
}

// TestPowerCutNeverDuplicatesName drills into the bug this journal
// retires: a rename over an existing target must never leave two live
// records under one (parent, name) — at any cut point, looking up the
// name and listing the directory must agree on exactly one entry.
func TestPowerCutNeverDuplicatesName(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkfile(t, v, th, sb, "/src", "src data")
	mkfile(t, v, th, sb, "/dst", "dst data")
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	bl.StartCapture(1)
	if err := v.Rename(th, sb, "/src", sb, "/dst"); err != nil {
		t.Fatal(err)
	}
	initial, log := bl.StopCapture(1)

	for n := 0; n <= len(log); n++ {
		img := blockdev.ReplayPrefix(initial, log, n)
		_, bl2, v2, th2 := boot(t, core.Enforce)
		bl2.AddDisk(1, minixsim.DiskSectors)
		copy(bl2.DiskBytes(1), img)
		sb2, err := v2.Mount(th2, minixsim.FsID, 1)
		if err != nil {
			t.Fatalf("cut after %d writes: %v", n, err)
		}
		ents, err := v2.Readdir(th2, sb2, "/")
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]int{}
		for _, e := range ents {
			count[e.Name]++
		}
		if count["dst"] != 1 {
			t.Fatalf("cut after %d/%d writes: %d entries named dst", n, len(log), count["dst"])
		}
		if count["src"]+count["dst"] > 2 {
			t.Fatalf("cut after %d/%d writes: duplicated namespace %v", n, len(log), count)
		}
	}
}

// TestHardlinksSurviveRemount: nlink bookkeeping is recovered from the
// table (records grouped by target extent), and data written through
// one name is visible through the other after a cold remount.
func TestHardlinksSurviveRemount(t *testing.T) {
	fs, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkfile(t, v, th, sb, "/orig", "linked payload")
	if err := v.Link(th, sb, "/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	if _, nlink, err := v.Stat(th, sb, "/orig"); err != nil || nlink != 2 {
		t.Fatalf("nlink = %d (%v), want 2", nlink, err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(th, sb); err != nil {
		t.Fatal(err)
	}

	sb, err = v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs.CheckIndex(t, sb)
	for _, p := range []string{"/orig", "/alias"} {
		got, err := v.Read(th, sb, p, 0, uint64(len("linked payload")))
		if err != nil || string(got) != "linked payload" {
			t.Fatalf("%s after remount: %q, %v", p, got, err)
		}
	}
	inoA, _ := v.Lookup(th, sb, "/orig")
	inoB, _ := v.Lookup(th, sb, "/alias")
	if inoA != inoB {
		t.Fatalf("hardlinks recovered as distinct inodes %#x / %#x", inoA, inoB)
	}
	if _, nlink, err := v.Stat(th, sb, "/orig"); err != nil || nlink != 2 {
		t.Fatalf("recovered nlink = %d (%v), want 2", nlink, err)
	}
	// Dropping one link keeps the data reachable through the other.
	if err := v.Unlink(th, sb, "/alias"); err != nil {
		t.Fatal(err)
	}
	fs.CheckIndex(t, sb)
	if _, nlink, err := v.Stat(th, sb, "/orig"); err != nil || nlink != 1 {
		t.Fatalf("nlink after unlink = %d (%v), want 1", nlink, err)
	}
	got, err := v.Read(th, sb, "/orig", 0, uint64(len("linked payload")))
	if err != nil || string(got) != "linked payload" {
		t.Fatalf("orig after alias unlink: %q, %v", got, err)
	}
}

// TestRenameFlagsSemantics pins NOREPLACE and EXCHANGE through the VFS
// against the journaled module.
func TestRenameFlagsSemantics(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkfile(t, v, th, sb, "/a", "a body")
	mkfile(t, v, th, sb, "/b", "b body")
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}

	// NOREPLACE refuses to clobber an existing target.
	if err := v.RenameFlags(th, sb, "/a", sb, "/b", vfs.RenameNoReplace); err == nil {
		t.Fatal("RENAME_NOREPLACE over an existing target succeeded")
	}
	// Both survive untouched.
	for p, want := range map[string]string{"/a": "a body", "/b": "b body"} {
		got, err := v.Read(th, sb, p, 0, uint64(len(want)))
		if err != nil || string(got) != want {
			t.Fatalf("%s after refused rename: %q, %v", p, got, err)
		}
	}

	// EXCHANGE swaps the two names atomically — and survives a remount.
	if err := v.RenameFlags(th, sb, "/a", sb, "/b", vfs.RenameExchange); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	for p, want := range map[string]string{"/a": "b body", "/b": "a body"} {
		got, err := v.Read(th, sb, p, 0, uint64(len(want)))
		if err != nil || string(got) != want {
			t.Fatalf("%s after exchange: %q, %v", p, got, err)
		}
	}
	if err := v.Unmount(th, sb); err != nil {
		t.Fatal(err)
	}
	sb, err = v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]string{"/a": "b body", "/b": "a body"} {
		got, err := v.Read(th, sb, p, 0, uint64(len(want)))
		if err != nil || string(got) != want {
			t.Fatalf("%s after exchange+remount: %q, %v", p, got, err)
		}
	}
	// EXCHANGE with a missing counterpart fails cleanly.
	if err := v.RenameFlags(th, sb, "/a", sb, "/missing", vfs.RenameExchange); err == nil {
		t.Fatal("exchange with a nonexistent target succeeded")
	}
}

// TestConcurrentJournaledRenamesVsFlusher is the -race battery case:
// worker goroutines churn journaled renames (including rename-replace,
// which commits multi-record transactions) while the background
// writeback flusher persists dirty pages through the same mount lock
// and journal buffers.
func TestConcurrentJournaledRenamesVsFlusher(t *testing.T) {
	fs, bl, v, th := boot(t, core.Enforce)
	k := fs.K
	defer k.Shutdown()
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.EnableWriteback(200*time.Microsecond, 0.25)
	defer v.DisableWriteback()

	const workers = 4
	const iters = 20
	errs := make([]error, workers)
	var handles []*core.ThreadHandle
	for w := 0; w < workers; w++ {
		w := w
		handles = append(handles, k.Sys.Spawn(fmt.Sprintf("jrename-%d", w), func(wt *core.Thread) {
			payload := bytes.Repeat([]byte{byte(0x30 + w)}, 600)
			for n := 0; n < iters; n++ {
				a := fmt.Sprintf("/w%d_a%03d", w, n)
				b := fmt.Sprintf("/w%d_b%03d", w, n)
				if _, err := v.Create(wt, sb, a); err != nil {
					errs[w] = fmt.Errorf("create %s: %w", a, err)
					return
				}
				if _, err := v.Write(wt, sb, a, 0, payload); err != nil {
					errs[w] = fmt.Errorf("write %s: %w", a, err)
					return
				}
				if _, err := v.Create(wt, sb, b); err != nil {
					errs[w] = fmt.Errorf("create %s: %w", b, err)
					return
				}
				// Rename over the existing target: a two-record journal
				// transaction racing the flusher's record size folds.
				if err := v.Rename(wt, sb, a, sb, b); err != nil {
					errs[w] = fmt.Errorf("rename %s -> %s: %w", a, b, err)
					return
				}
				got, err := v.Read(wt, sb, b, 0, uint64(len(payload)))
				if err != nil || !bytes.Equal(got, payload) {
					errs[w] = fmt.Errorf("read %s: %v (corrupt=%v)", b, err, err == nil)
					return
				}
				if err := v.Unlink(wt, sb, b); err != nil {
					errs[w] = fmt.Errorf("unlink %s: %w", b, err)
					return
				}
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if n := len(k.Sys.Mon.Violations()); n != 0 {
		t.Fatalf("%d violations under concurrent journaled renames: %v", n, k.Sys.Mon.LastViolation())
	}
	// The namespace drained: journal bookkeeping survived the churn.
	ents, err := v.Readdir(th, sb, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("namespace not drained: %v", ents)
	}
}
