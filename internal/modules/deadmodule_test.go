package modules_test

// Dead-module semantics: while a filesystem module is quarantined
// (killed after a violation or contained panic, not yet restarted),
// operations against its mounts fail with clean EIO-mapped errors —
// never a hang or an escaped panic — dirty pages park in the cache, and
// after the supervisor publishes a successor generation everything
// drains and round-trips. Socket syscalls on a dead protocol module
// fail the same way with ENETDOWN.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/modules/econet"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// killFS arms a one-shot contained panic at the kernel-export boundary
// (iget — called by the module's create, never during load/init, so
// the later restart cannot re-trip it) and trips it with a create.
func killFS(t *testing.T, ld *modules.Loader, th *core.Thread, name string, sb mem.Addr) {
	t.Helper()
	failpoint.Arm("kernel.entry", failpoint.Policy{Arg: "iget", Panic: true, OneShot: true})
	if _, err := ld.BC.FS.Create(th, sb, "/killer"); err == nil {
		t.Fatal("create succeeded with a panic armed at iget")
	}
	m, ok := ld.Module(name)
	if !ok || !m.Dead() {
		t.Fatalf("contained panic did not kill %s", name)
	}
}

func TestDeadFSModuleFailsCleanly(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "tmpfssim"); err != nil {
		t.Fatal(err)
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("survives the outage")
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, data); err != nil {
		t.Fatal(err)
	}

	killFS(t, ld, th, "tmpfssim", sb)

	// Every op that needs a module crossing fails promptly with the EIO
	// mapping, ErrModuleDead still in the chain.
	wantDegraded(t, kernel.EIO, map[string]func() error{
		"lookup":  func() error { _, err := v.Lookup(th, sb, "/uncached"); return err },
		"stat":    func() error { _, _, err := v.Stat(th, sb, "/uncached"); return err },
		"create":  func() error { _, err := v.Create(th, sb, "/g"); return err },
		"mount":   func() error { _, err := v.Mount(th, tmpfssim.FsID, 0); return err },
		"rename":  func() error { return v.Rename(th, sb, "/f", sb, "/moved") },
		"link":    func() error { return v.Link(th, sb, "/f", "/alias") },
		"ioctl":   func() error { _, err := v.Ioctl(th, sb, 0, 0); return err },
		"unmount": func() error { return v.Unmount(th, sb) },
	})
	// Cached state still serves: the page cache holds the only copy of
	// tmpfs data and reading it needs no module crossing.
	got, err := v.Read(th, sb, "/f", 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached read during outage: %q, %v", got, err)
	}

	// A manual reload recovers, and the pre-death file is intact.
	if _, err := ld.Reload(th, "tmpfssim"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/g"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	if _, err := v.Lookup(th, sb, "/f"); err != nil {
		t.Fatalf("lookup after recovery: %v", err)
	}
	got, err = v.Read(th, sb, "/f", 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
}

// wantDegraded runs every op against a dead module and requires the
// DegradedError mapping to errno, with ErrModuleDead still in the
// chain.
func wantDegraded(t *testing.T, errno int64, ops map[string]func() error) {
	t.Helper()
	for op, call := range ops {
		err := call()
		if !errors.Is(err, core.ErrModuleDead) {
			t.Fatalf("%s on dead module: %v, want ErrModuleDead in chain", op, err)
		}
		var deg *core.DegradedError
		if !errors.As(err, &deg) || deg.Errno != errno {
			t.Fatalf("%s on dead module: %v, want DegradedError(errno %d)", op, err, errno)
		}
	}
}

// TestDeadProtocolModuleFailsCleanly: socket syscalls on a socket of a
// killed protocol module fail with ENETDOWN, ErrModuleDead still in
// the chain.
func TestDeadProtocolModuleFailsCleanly(t *testing.T) {
	defer failpoint.DisarmAll()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "econet"); err != nil {
		t.Fatal(err)
	}
	net := ld.BC.Net
	sock, err := net.Socket(th, econet.Family)
	if err != nil {
		t.Fatal(err)
	}
	// A contained panic at kmalloc, which econet's create calls, kills
	// the module.
	failpoint.Arm("kernel.entry", failpoint.Policy{Arg: "kmalloc", Panic: true, OneShot: true})
	if _, err := net.Socket(th, econet.Family); err == nil {
		t.Fatal("socket succeeded with a panic armed at kmalloc")
	}
	if m, ok := ld.Module("econet"); !ok || !m.Dead() {
		t.Fatal("contained panic did not kill econet")
	}
	buf := ld.BC.K.Sys.User.Alloc(64, 8)
	wantDegraded(t, kernel.ENETDOWN, map[string]func() error{
		"socket":  func() error { _, err := net.Socket(th, econet.Family); return err },
		"bind":    func() error { _, err := net.Bind(th, sock, buf, 8); return err },
		"sendmsg": func() error { _, err := net.Sendmsg(th, sock, buf, 16, 0); return err },
		"recvmsg": func() error { _, err := net.Recvmsg(th, sock, buf, 16, 0); return err },
		"ioctl":   func() error { _, err := net.Ioctl(th, sock, econet.SIOCSIFADDR, uint64(buf)); return err },
	})
}

func TestDirtyPagesParkAcrossModuleDeath(t *testing.T) {
	defer failpoint.DisarmAll()
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	bl.AddDisk(1, minixsim.DiskSectors)
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl})
	th := k.Sys.NewThread("test")
	if _, err := ld.Load(th, "minixsim"); err != nil {
		t.Fatal(err)
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{Backoff: time.Millisecond})
	defer sup.Stop()

	data := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, data); err != nil {
		t.Fatal(err)
	}
	dirty := v.DirtyCount()
	if dirty == 0 {
		t.Fatal("write left no dirty pages")
	}

	killFS(t, ld, th, "minixsim", sb)

	// Writeback cannot cross into the dead module: the pass returns
	// without hanging and the pages stay parked (errors keep them
	// dirty for the retry).
	v.FlushAged(th)
	if got := v.DirtyCount(); got != dirty {
		t.Fatalf("flush against dead module changed dirty count: %d -> %d", dirty, got)
	}

	if !sup.WaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not recover minixsim")
	}
	if m, ok := ld.Module("minixsim"); !ok || m.Dead() {
		t.Fatal("minixsim not alive after supervised restart")
	}

	// The parked pages drain through the successor generation...
	v.FlushAged(th)
	if got := v.DirtyCount(); got != 0 {
		t.Fatalf("%d dirty pages still parked after recovery flush", got)
	}
	// ...and really reached the disk: evict the cache and read back.
	v.DropCaches(sb)
	got, err := v.Read(th, sb, "/f", 0, mem.PageSize)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-recovery disk read: %v (data match=%v)", err, bytes.Equal(got, data))
	}
}
