package caps

import "testing"

func TestSnapshotCapturesInstances(t *testing.T) {
	s, ms := sys(t)
	sock := ms.Instance(0x1000)
	s.Grant(sock, WriteCap(0xffff880000000100, 64))
	s.Grant(sock, RefCap("struct pci_dev", 0x2000))
	s.Grant(sock, CallCap(0x3000))
	if err := ms.Alias(0x1000, 0x1010); err != nil {
		t.Fatal(err)
	}
	dev := ms.Instance(0x5000)
	s.Grant(dev, WriteCap(0xffff880000000400, 32))

	// Shared-principal capabilities must not leak into the snapshot:
	// they belong to the generation, not its instances.
	s.Grant(ms.Shared(), WriteCap(0xffff880000000800, 8))

	snap := ms.Snapshot()
	if snap.Module != "econet" {
		t.Fatalf("module = %q", snap.Module)
	}
	if len(snap.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(snap.Instances))
	}
	i0 := snap.Instances[0] // sorted by canonical name: 0x1000 first
	if i0.Name != 0x1000 {
		t.Fatalf("first instance %#x", uint64(i0.Name))
	}
	if len(i0.Aliases) != 2 || i0.Aliases[0] != 0x1000 || i0.Aliases[1] != 0x1010 {
		t.Fatalf("aliases = %#v", i0.Aliases)
	}
	if len(i0.Writes) != 1 || len(i0.Refs) != 1 || len(i0.Calls) != 1 {
		t.Fatalf("caps = %d/%d/%d, want 1/1/1", len(i0.Writes), len(i0.Refs), len(i0.Calls))
	}
}

func TestMigrateSnapshotReplaysIntoSuccessor(t *testing.T) {
	s, ms := sys(t)
	sock := ms.Instance(0x1000)
	s.Grant(sock, WriteCap(0xffff880000000100, 64))
	s.Grant(sock, RefCap("struct pci_dev", 0x2000))
	s.Grant(sock, CallCap(0x3000))
	s.Grant(sock, CallCap(0x9000)) // "old generation code": filtered out
	if err := ms.Alias(0x1000, 0x1010); err != nil {
		t.Fatal(err)
	}
	snap := ms.Snapshot()

	s.UnloadModule(ms)
	ns := s.LoadModule("econet")
	epochBefore := s.Epoch()
	migrated, dropped := s.MigrateSnapshot(ns, snap, func(c Cap) bool {
		return !(c.Kind == Call && c.Addr == 0x9000)
	})
	if migrated != 3 || dropped != 1 {
		t.Fatalf("migrated=%d dropped=%d, want 3/1", migrated, dropped)
	}
	if s.Epoch() == epochBefore {
		t.Fatal("migration did not bump the capability epoch")
	}

	np, ok := ns.Lookup(0x1010) // via migrated alias
	if !ok {
		t.Fatal("alias not migrated")
	}
	if !s.Check(np, WriteCap(0xffff880000000100, 64)) {
		t.Fatal("WRITE capability not migrated")
	}
	if !s.Check(np, RefCap("struct pci_dev", 0x2000)) {
		t.Fatal("REF capability not migrated")
	}
	if !s.Check(np, CallCap(0x3000)) {
		t.Fatal("CALL capability not migrated")
	}
	if s.Check(np, CallCap(0x9000)) {
		t.Fatal("filtered capability migrated anyway")
	}
}

// A principal the fresh generation already created under one of the old
// names absorbs the migrated capabilities (alias merge) instead of the
// object splitting between two principals.
func TestMigrateSnapshotMergesWithFreshPrincipal(t *testing.T) {
	s, ms := sys(t)
	old := ms.Instance(0x1000)
	s.Grant(old, WriteCap(0xffff880000000100, 64))
	snap := ms.Snapshot()

	s.UnloadModule(ms)
	ns := s.LoadModule("econet")
	fresh := ns.Instance(0x1000) // re-probe created it first
	s.Grant(fresh, WriteCap(0xffff880000000400, 32))

	s.MigrateSnapshot(ns, snap, nil)
	if got := ns.Instance(0x1000); got != fresh {
		t.Fatal("migration created a second principal for the same name")
	}
	if !s.Check(fresh, WriteCap(0xffff880000000100, 64)) {
		t.Fatal("migrated capability missing from merged principal")
	}
	if !s.Check(fresh, WriteCap(0xffff880000000400, 32)) {
		t.Fatal("fresh generation's capability lost in merge")
	}
}

func TestMigrateSnapshotSkipsConflictingAlias(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1000)
	s.Grant(p, WriteCap(0xffff880000000100, 8))
	if err := ms.Alias(0x1000, 0x1010); err != nil {
		t.Fatal(err)
	}
	snap := ms.Snapshot()

	s.UnloadModule(ms)
	ns := s.LoadModule("econet")
	other := ns.Instance(0x1010) // fresh generation bound the alias name elsewhere

	s.MigrateSnapshot(ns, snap, nil)
	if got, _ := ns.Lookup(0x1010); got != other {
		t.Fatal("migration stole an alias name the fresh generation had bound")
	}
	canon := ns.Instance(0x1000)
	if !s.Check(canon, WriteCap(0xffff880000000100, 8)) {
		t.Fatal("canonical principal lost its migrated capability")
	}
}
