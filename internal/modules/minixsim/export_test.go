package minixsim

import (
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// Index internals for the external tests.

// NameBucket is the name-chain bucket a name hashes to.
func NameBucket(name string) uint64 { return fnv1a([]byte(name)) % Buckets }

// CountEntryProbes adds one to *n for every entry a by-name probe
// compares, until the test ends.
func CountEntryProbes(t *testing.T, n *int) {
	entryCompared = func() { *n++ }
	t.Cleanup(func() { entryCompared = nil })
}

// CheckIndex fails t unless sb's name and inode indexes agree with its
// dirent list: every list entry sits exactly once on the chain of its
// name and exactly once on the chain of its inode, the chains hold
// nothing else, prev mirrors next, and every listed name resolves
// through lookup's probe to its own entry. Run it after any new dirent
// mutation.
func (fs *FS) CheckIndex(t *testing.T, sb mem.Addr) {
	t.Helper()
	th := fs.K.Sys.NewThread("check-index")
	priv := fs.priv(th, sb)

	listed := map[mem.Addr]bool{}
	var prev mem.Addr
	for cur, _ := th.ReadU64(fs.pvField(priv, "head")); cur != 0; cur, _ = th.ReadU64(fs.deField(mem.Addr(cur), "next")) {
		de := mem.Addr(cur)
		if listed[de] {
			t.Fatalf("dirent list revisits %#x", uint64(de))
		}
		listed[de] = true
		if p, _ := th.ReadU64(fs.deField(de, "prev")); mem.Addr(p) != prev {
			t.Fatalf("dirent %#x: prev %#x, but the list reaches it from %#x", uint64(de), p, uint64(prev))
		}
		prev = de
	}

	index, _ := th.ReadU64(fs.pvField(priv, "index"))
	onName, onInode := map[mem.Addr]int{}, map[mem.Addr]int{}
	for b := uint64(0); b < 2*Buckets; b++ {
		head := mem.Addr(index) + mem.Addr(8*b)
		link, count := "hnext", onName
		if b >= Buckets {
			link, count = "inext", onInode
		}
		for cur, _ := th.ReadU64(head); cur != 0; cur, _ = th.ReadU64(fs.deField(mem.Addr(cur), link)) {
			de := mem.Addr(cur)
			if !listed[de] {
				t.Fatalf("chain %d holds %#x, which is not on the dirent list", b, uint64(de))
			}
			if count[de]++; count[de] > 1 {
				t.Fatalf("dirent %#x sits twice on the %s chains", uint64(de), link)
			}
			var want mem.Addr
			if link == "hnext" {
				want = fs.nameChain(th, priv, fs.deName(t, th, de))
			} else {
				want = fs.inodeChain(th, priv, fs.deU64(th, de, "inode"))
			}
			if head != want {
				t.Fatalf("dirent %#x sits on chain %d, not on its own %s chain", uint64(de), b, link)
			}
		}
	}

	for de := range listed {
		if onName[de] != 1 || onInode[de] != 1 {
			t.Fatalf("dirent %#x: on %d name chains and %d inode chains, want 1 and 1", uint64(de), onName[de], onInode[de])
		}
		name := fs.deName(t, th, de)
		if got := fs.entryByName(th, priv, fs.deU64(th, de, "dir"), name); got != de {
			t.Fatalf("lookup of %q resolves to %#x, not to its entry %#x", name, uint64(got), uint64(de))
		}
	}
}

// deU64 and deName read one dirent field for CheckIndex.
func (fs *FS) deU64(th *core.Thread, de mem.Addr, f string) uint64 {
	v, _ := th.ReadU64(fs.deField(de, f))
	return v
}

func (fs *FS) deName(t *testing.T, th *core.Thread, de mem.Addr) []byte {
	t.Helper()
	var nb nameBuf
	name, err := fs.direntName(th, de, &nb)
	if err != nil {
		t.Fatalf("dirent %#x: name: %v", uint64(de), err)
	}
	return name
}
