package minixsim_test

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"path"
	"slices"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/vfs"
)

// TestRemountListsInSameOrder: recovery builds the dirent list in slot
// order, so one disk mounts to the same Readdir order every time.
func TestRemountListsInSameOrder(t *testing.T) {
	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	const files = 20
	for i := 0; i < files; i++ {
		mkfile(t, v, th, sb, fmt.Sprintf("/f%02d", i), "")
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(th, sb); err != nil {
		t.Fatal(err)
	}
	var first []string
	for r := 0; r < 10; r++ {
		sb, err := v.Mount(th, minixsim.FsID, 1)
		if err != nil {
			t.Fatal(err)
		}
		ents, err := v.Readdir(th, sb, "/")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		if len(names) != files {
			t.Fatalf("remount %d lists %d files, want %d", r, len(names), files)
		}
		if r == 0 {
			first = names
		} else if !slices.Equal(names, first) {
			t.Fatalf("remount %d lists %v, remount 0 listed %v", r, names, first)
		}
		if err := v.Unmount(th, sb); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirProbeCostIndependentOfSize: a directory probe reads one bucket
// chain, so it costs the same at 16 files as at 512. The cost is
// counted, not timed: the entries by-name probes compare, so a
// whole-list walk would cost one comparison per file. The probe names
// are picked so their chains hold the same entries at both sizes: the
// missing and the fresh name hash to chains no file uses, and the
// renamed file is alone on its own.
func TestDirProbeCostIndependentOfSize(t *testing.T) {
	const small, large = 16, 512
	files := make([]string, large)
	onChain := map[uint64]int{}
	for i := range files {
		files[i] = fmt.Sprintf("/f%03d", i)
		onChain[minixsim.NameBucket(files[i][1:])]++
	}
	unused := func(prefix string) string {
		for i := 0; ; i++ {
			if n := fmt.Sprintf("%s%d", prefix, i); onChain[minixsim.NameBucket(n)] == 0 {
				return "/" + n
			}
		}
	}
	missing, fresh := unused("missing"), unused("fresh")
	moved := ""
	for _, f := range files[:small] {
		if onChain[minixsim.NameBucket(f[1:])] == 1 {
			moved = f
			break
		}
	}
	if moved == "" {
		t.Fatalf("none of the first %d files is alone on its name chain", small)
	}

	_, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	var compared int
	minixsim.CountEntryProbes(t, &compared)
	lookup := func() {
		if _, err := v.Lookup(th, sb, missing); err == nil {
			t.Fatalf("lookup of %s succeeded", missing)
		}
	}
	rename := func() {
		if err := v.Rename(th, sb, moved, sb, fresh); err != nil {
			t.Fatal(err)
		}
		if err := v.Rename(th, sb, fresh, sb, moved); err != nil {
			t.Fatal(err)
		}
	}
	count := func(op func()) int {
		compared = 0
		for i := 0; i < 50; i++ {
			op()
		}
		return compared
	}
	made := 0
	costs := func(n int) (lookupCost, renameCost int) {
		for ; made < n; made++ {
			mkfile(t, v, th, sb, files[made], "")
		}
		return count(lookup), count(rename)
	}
	lookupSmall, renameSmall := costs(small)
	lookupLarge, renameLarge := costs(large)
	t.Logf("50 negative lookups: %d entries compared; 50 renames and back: %d", lookupSmall, renameSmall)
	if lookupLarge != lookupSmall {
		t.Errorf("negative lookup: %d entries compared at %d files, %d at %d", lookupSmall, small, lookupLarge, large)
	}
	if renameLarge != renameSmall {
		t.Errorf("rename and back: %d entries compared at %d files, %d at %d", renameSmall, small, renameLarge, large)
	}
}

// TestDirIndexMatchesListAcrossRemount runs a seeded mix of create,
// link, rename, RENAME_EXCHANGE, unlink and sync over names that mostly
// share one name bucket, so most entries sit on one name chain and
// unlinks take entries off its head, middle and tail. The few other
// names share a second bucket, so renames also move entries between
// chains. CheckIndex runs after every op, and again after an unmount
// and remount, which must recover the namespace, the hardlinks and the
// contents.
//
// The model never gives one directory two names of one file: the VFS
// names the entry to unlink, rename or exchange by (directory, inode),
// which cannot tell such names apart.
func TestDirIndexMatchesListAcrossRemount(t *testing.T) {
	var names []string
	for prefix, want := range map[string]int{"n": 8, "m": 3} {
		bucket := minixsim.NameBucket(prefix + "0")
		for i := 0; want > 0; i++ {
			if n := fmt.Sprintf("%s%d", prefix, i); minixsim.NameBucket(n) == bucket {
				names = append(names, n)
				want--
			}
		}
	}
	slices.Sort(names)
	if minixsim.NameBucket("n0") == minixsim.NameBucket("m0") {
		t.Fatal("the two name groups share a bucket")
	}
	dirs := []string{"/", "/d"}

	fs, bl, v, th := boot(t, core.Enforce)
	bl.AddDisk(1, minixsim.DiskSectors)
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Mkdir(th, sb, "/d"); err != nil {
		t.Fatal(err)
	}

	// model maps each path to its file's id; a file's content names its id.
	model := map[string]int{}
	content := func(id int) string { return fmt.Sprintf("file %d", id) }
	oneNamePerDir := func(m map[string]int) bool {
		seen := map[string]bool{}
		for p, id := range m {
			k := fmt.Sprintf("%s#%d", path.Dir(p), id)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	rng := rand.New(rand.NewPCG(18, 1))
	pick := func() string { return path.Join(dirs[rng.IntN(len(dirs))], names[rng.IntN(len(names))]) }
	nextID, applied := 0, map[string]int{}
	for op := 0; op < 400; op++ {
		a, b := pick(), pick()
		ida, hasA := model[a]
		idb, hasB := model[b]
		next := maps.Clone(model)
		var kind string
		var do func() error
		switch rng.IntN(6) {
		case 0:
			if hasA {
				continue
			}
			id := nextID
			nextID++
			kind, next[a] = "create", id
			do = func() error {
				if _, err := v.Create(th, sb, a); err != nil {
					return err
				}
				_, err := v.Write(th, sb, a, 0, []byte(content(id)))
				return err
			}
		case 1:
			if !hasA || hasB {
				continue
			}
			kind, next[b] = "link", ida
			do = func() error { return v.Link(th, sb, a, b) }
		case 2:
			if !hasA || a == b || (hasB && idb == ida) {
				continue
			}
			kind, next[b] = "rename", ida
			delete(next, a)
			do = func() error { return v.Rename(th, sb, a, sb, b) }
		case 3:
			if !hasA || !hasB || ida == idb {
				continue
			}
			kind, next[a], next[b] = "exchange", idb, ida
			do = func() error { return v.RenameFlags(th, sb, a, sb, b, vfs.RenameExchange) }
		case 4:
			if !hasA {
				continue
			}
			kind = "unlink"
			delete(next, a)
			do = func() error { return v.Unlink(th, sb, a) }
		case 5:
			kind = "sync"
			do = func() error { return v.Sync(th, sb) }
		}
		if !oneNamePerDir(next) {
			continue
		}
		if err := do(); err != nil {
			t.Fatalf("op %d: %s %s %s: %v", op, kind, a, b, err)
		}
		model = next
		applied[kind]++
		fs.CheckIndex(t, sb)
	}
	for _, kind := range []string{"create", "link", "rename", "exchange", "unlink", "sync"} {
		if applied[kind] == 0 {
			t.Fatalf("the sequence applied no %s: %v", kind, applied)
		}
	}

	check := func(when string) {
		t.Helper()
		for _, dir := range dirs {
			var want []string
			for p := range model {
				if path.Dir(p) == dir {
					want = append(want, path.Base(p))
				}
			}
			if dir == "/" {
				want = append(want, "d")
			}
			got := namesOf(t, v, th, sb, dir)
			if len(got) != len(want) {
				t.Fatalf("%s: %s lists %v, want %v", when, dir, got, want)
			}
			for _, n := range want {
				if !got[n] {
					t.Fatalf("%s: %s lists %v, want %v", when, dir, got, want)
				}
			}
		}
		inodeOf := map[int]uint64{}
		for p, id := range model {
			ino, err := v.Lookup(th, sb, p)
			if err != nil {
				t.Fatalf("%s: lookup %s: %v", when, p, err)
			}
			if prev, ok := inodeOf[id]; ok && prev != uint64(ino) {
				t.Fatalf("%s: %s is a link of file %d but resolves to another inode", when, p, id)
			}
			inodeOf[id] = uint64(ino)
			got, err := v.Read(th, sb, p, 0, uint64(len(content(id))))
			if err != nil || string(got) != content(id) {
				t.Fatalf("%s: %s reads %q (%v), want %q", when, p, got, err, content(id))
			}
		}
		files := map[uint64]int{}
		for id, ino := range inodeOf {
			if other, ok := files[ino]; ok {
				t.Fatalf("%s: files %d and %d share an inode", when, other, id)
			}
			files[ino] = id
		}
	}
	check("before remount")
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(th, sb); err != nil {
		t.Fatal(err)
	}
	if sb, err = v.Mount(th, minixsim.FsID, 1); err != nil {
		t.Fatal(err)
	}
	fs.CheckIndex(t, sb)
	check("after remount")
}
