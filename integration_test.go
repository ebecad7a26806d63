package lxfi_test

// Whole-system integration test: boot one machine with several modules
// (network driver, two protocol modules, an encrypted block device),
// run real workloads over all of them, then compromise one module —
// and verify the blast radius is exactly that module. This is the
// paper's bottom-line claim: isolation turns a kernel-wide compromise
// into a single-module failure.

import (
	"bytes"
	"testing"

	"lxfi"
	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/modules/dmcrypt"
	"lxfi/internal/modules/e1000sim"
	"lxfi/internal/modules/econet"
	"lxfi/internal/modules/rds"
	"lxfi/internal/modules/tmpfssim"
)

func TestWholeSystemFaultContainment(t *testing.T) {
	machine, err := lxfi.Boot(lxfi.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	k, th := machine.Kernel, machine.Thread
	task := k.CreateTask("attacker", 1000)
	k.SetCurrent(th, task)

	// Load four modules onto the same kernel through the descriptor
	// registry.
	ld := machine.Loader()
	machine.Bus.AddDevice(e1000sim.VendorIntel, e1000sim.Dev82540EM)
	drvInst, err := ld.Load(th, "e1000")
	if err != nil {
		t.Fatal(err)
	}
	drv := drvInst.(*e1000sim.Driver)
	ecoInst, err := ld.Load(th, "econet")
	if err != nil {
		t.Fatal(err)
	}
	eco := ecoInst.(*econet.Proto)
	rdsInst, err := ld.LoadWith(th, "rds", rds.Config{WritableOps: true})
	if err != nil {
		t.Fatal(err)
	}
	rdsProto := rdsInst.(*rds.Proto)
	machine.Block.AddDisk(1, 1024)
	cryptInst, err := ld.Load(th, "dm-crypt")
	if err != nil {
		t.Fatal(err)
	}
	crypt := cryptInst.(*dmcrypt.Target)
	ti, err := machine.Block.CreateTarget(th, crypt.Ops(), 0xFEED, 0, 256, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline workloads on every module.
	netTx := func() error {
		skb, err := machine.Net.AllocSkb(64)
		if err != nil {
			return err
		}
		_, err = machine.Net.XmitSkb(th, drv.Dev, skb)
		return err
	}
	ecoSock, err := machine.Net.Socket(th, econet.Family)
	if err != nil {
		t.Fatal(err)
	}
	user := k.Sys.User.Alloc(64, 8)
	ecoTx := func() error {
		_, err := machine.Net.Sendmsg(th, ecoSock, user, 16, 0)
		return err
	}
	diskIO := func() error {
		bio, err := machine.Block.AllocBio(512)
		if err != nil {
			return err
		}
		data, _ := k.Sys.AS.ReadU64(machine.Block.BioField(bio, "data"))
		if err := k.Sys.AS.Write(lxfi.Addr(data), bytes.Repeat([]byte{0x5A}, 512)); err != nil {
			return err
		}
		if err := k.Sys.AS.WriteU64(machine.Block.BioField(bio, "rw"), blockdev.WriteBio); err != nil {
			return err
		}
		return machine.Block.Submit(th, ti, bio)
	}
	for i := 0; i < 5; i++ {
		if err := netTx(); err != nil {
			t.Fatalf("e1000 baseline: %v", err)
		}
		if err := ecoTx(); err != nil {
			t.Fatalf("econet baseline: %v", err)
		}
		if err := diskIO(); err != nil {
			t.Fatalf("dm-crypt baseline: %v", err)
		}
	}

	// Compromise rds with the CVE-2010-3904 primitive on this shared
	// machine.
	payload := k.Sys.RegisterUserFunc("payload", func(t *core.Thread, args []uint64) uint64 {
		_, _ = t.CallKernel("commit_creds", 0)
		return 0
	})
	rdsSock, err := machine.Net.Socket(th, rds.Family)
	if err != nil {
		t.Fatal(err)
	}
	src := k.Sys.User.Alloc(8, 8)
	if err := k.Sys.AS.WriteU64(src, uint64(payload.Addr)); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Net.Sendmsg(th, rdsSock, src, 8, 0); err != nil {
		t.Fatal(err)
	}
	_, _ = machine.Net.Recvmsg(th, rdsSock, rdsProto.IoctlSlot(), 8, 0)
	_, _ = machine.Net.Ioctl(th, rdsSock, 0, 0)

	// Blast radius: exactly rds.
	if k.TaskUID(task) == 0 {
		t.Fatal("attacker escalated to root on the shared machine")
	}
	if !rdsProto.M.Dead() {
		t.Fatal("rds should have been killed")
	}
	if len(k.Sys.Mon.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}
	for _, m := range []*core.Module{drv.M, eco.M, crypt.M} {
		if m.Dead() {
			t.Fatalf("innocent module %s was killed", m.Name)
		}
	}

	// Every other module keeps working.
	for i := 0; i < 5; i++ {
		if err := netTx(); err != nil {
			t.Fatalf("e1000 after compromise: %v", err)
		}
		if err := ecoTx(); err != nil {
			t.Fatalf("econet after compromise: %v", err)
		}
		if err := diskIO(); err != nil {
			t.Fatalf("dm-crypt after compromise: %v", err)
		}
	}
	if drv.Nic.TxFrames != 10 {
		t.Fatalf("tx frames = %d", drv.Nic.TxFrames)
	}
	if eco.TxCount(ecoSock) != 10 {
		t.Fatalf("econet tx = %d", eco.TxCount(ecoSock))
	}
	// rds itself is now unreachable — new sockets fail cleanly.
	if _, err := machine.Net.Socket(th, rds.Family); err == nil {
		t.Fatal("dead rds still accepts sockets")
	}
}

// TestCrossSubsystemPrincipalIsolation runs a filesystem module and a
// network module on one machine as distinct principals and verifies that
// neither can touch the other's writer set: capability probes in both
// directions come back empty, and a live cross-subsystem write attempt
// from the filesystem module is a violation whose blast radius excludes
// the network module.
func TestCrossSubsystemPrincipalIsolation(t *testing.T) {
	machine, err := lxfi.Boot(lxfi.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	k, th := machine.Kernel, machine.Thread

	ld := machine.Loader()
	ecoInst, err := ld.Load(th, "econet")
	if err != nil {
		t.Fatal(err)
	}
	eco := ecoInst.(*econet.Proto)
	tmpfsInst, err := ld.Load(th, "tmpfssim")
	if err != nil {
		t.Fatal(err)
	}
	tmpfs := tmpfsInst.(*tmpfssim.FS)
	sb, err := machine.FS.Mount(th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline traffic on both subsystems.
	ecoSock, err := machine.Net.Socket(th, econet.Family)
	if err != nil {
		t.Fatal(err)
	}
	user := k.Sys.User.Alloc(64, 8)
	if _, err := machine.Net.Sendmsg(th, ecoSock, user, 16, 0); err != nil {
		t.Fatal(err)
	}
	ino, err := machine.FS.Create(th, sb, "/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.FS.Write(th, sb, "/file", 0, []byte("fs data")); err != nil {
		t.Fatal(err)
	}

	// Writer sets are disjoint in both directions: the fs mount holds no
	// WRITE capability into econet's world and vice versa.
	fsPrin, _ := tmpfs.M.Set.Lookup(sb)
	if fsPrin == nil {
		t.Fatal("no principal for the tmpfs mount")
	}
	ecoSk := eco.Sk(ecoSock)
	for what, addr := range map[string]lxfi.Addr{
		"econet data section": eco.M.Data,
		"econet socket state": ecoSk,
		"econet ioctl slot":   eco.IoctlSlot(),
	} {
		if k.Sys.Caps.Check(fsPrin, caps.WriteCap(addr, 8)) {
			t.Errorf("tmpfs mount can write the %s", what)
		}
	}
	// Probe every principal econet code actually runs as: shared, global,
	// and the per-socket instance principal of the live socket.
	ecoPrins := []*caps.Principal{eco.M.Set.Shared(), eco.M.Set.Global()}
	if p, ok := eco.M.Set.Lookup(ecoSock); ok {
		ecoPrins = append(ecoPrins, p)
	} else {
		t.Fatal("no instance principal for the econet socket")
	}
	for what, addr := range map[string]lxfi.Addr{
		"tmpfs data section": tmpfs.M.Data,
		"tmpfs superblock":   sb,
		"tmpfs inode":        ino,
	} {
		for _, prin := range ecoPrins {
			if k.Sys.Caps.Check(prin, caps.WriteCap(addr, 8)) {
				t.Errorf("econet (%s) can write the %s", prin, what)
			}
		}
	}
	// The cross-check through the writer-set slow path: nobody outside
	// econet appears among the grantees of its ioctl slot.
	for _, p := range k.Sys.Caps.WriteGrantees(nil, eco.IoctlSlot()) {
		if p.Module != "econet" {
			t.Errorf("foreign principal %s holds WRITE on econet's ioctl slot", p)
		}
	}

	// A live cross-subsystem write: the compromised tmpfs ioctl aims at
	// econet's ioctl slot. It must be a violation that kills only tmpfs.
	if _, err := machine.FS.Ioctl(th, sb, tmpfssim.CmdPoke, uint64(eco.IoctlSlot())); err == nil {
		t.Fatal("cross-subsystem write succeeded")
	}
	if len(k.Sys.Mon.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}
	if !tmpfs.M.Dead() {
		t.Fatal("violating tmpfs module was not killed")
	}
	if eco.M.Dead() {
		t.Fatal("innocent econet module was killed")
	}
	// The network module keeps working; its slot was not redirected.
	if _, err := machine.Net.Sendmsg(th, ecoSock, user, 16, 0); err != nil {
		t.Fatalf("econet after fs compromise: %v", err)
	}
	if eco.TxCount(ecoSock) != 2 {
		t.Fatalf("econet tx = %d", eco.TxCount(ecoSock))
	}
	// The dead filesystem is unreachable for new mounts.
	if _, err := machine.FS.Mount(th, tmpfssim.FsID, 0); err == nil {
		t.Fatal("dead tmpfssim still accepts mounts")
	}
}
