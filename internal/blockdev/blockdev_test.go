package blockdev_test

import (
	"bytes"
	"errors"
	"testing"

	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

func rig(t *testing.T) (*kernel.Kernel, *blockdev.Layer, *core.Thread) {
	t.Helper()
	k := kernel.New()
	l := blockdev.Init(k)
	l.AddDisk(1, 128)
	return k, l, k.Sys.NewThread("blk")
}

func TestBioAllocFree(t *testing.T) {
	k, l, _ := rig(t)
	bio, err := l.AllocBio(1024)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := k.Sys.AS.ReadU64(l.BioField(bio, "data"))
	if !k.Sys.Slab.Owns(mem.Addr(data)) || !k.Sys.Slab.Owns(bio) {
		t.Fatal("bio pieces not allocated")
	}
	l.FreeBio(bio)
	if k.Sys.Slab.Owns(bio) || k.Sys.Slab.Owns(mem.Addr(data)) {
		t.Fatal("bio pieces leaked")
	}
}

func TestDirectIO(t *testing.T) {
	k, l, th := rig(t)
	payload := bytes.Repeat([]byte{0xD7}, blockdev.SectorSize)
	bio, _ := l.AllocBio(blockdev.SectorSize)
	data, _ := k.Sys.AS.ReadU64(l.BioField(bio, "data"))
	must(t, k.Sys.AS.Write(mem.Addr(data), payload))
	for f, v := range map[string]uint64{"sector": 5, "rw": blockdev.WriteBio, "dev": 1} {
		must(t, k.Sys.AS.WriteU64(l.BioField(bio, f), v))
	}
	if ret, err := th.CallKernel("submit_bio", uint64(bio)); err != nil || kernel.IsErr(ret) {
		t.Fatalf("submit: %d %v", int64(ret), err)
	}
	if !bytes.Equal(l.DiskBytes(1)[5*blockdev.SectorSize:6*blockdev.SectorSize], payload) {
		t.Fatal("write did not reach the disk")
	}
	// Read it back through a fresh bio.
	rb, _ := l.AllocBio(blockdev.SectorSize)
	for f, v := range map[string]uint64{"sector": 5, "rw": blockdev.ReadBio, "dev": 1} {
		must(t, k.Sys.AS.WriteU64(l.BioField(rb, f), v))
	}
	if ret, err := th.CallKernel("submit_bio", uint64(rb)); err != nil || kernel.IsErr(ret) {
		t.Fatalf("read submit: %d %v", int64(ret), err)
	}
	rdata, _ := k.Sys.AS.ReadU64(l.BioField(rb, "data"))
	got, _ := k.Sys.AS.ReadBytes(mem.Addr(rdata), blockdev.SectorSize)
	if !bytes.Equal(got, payload) {
		t.Fatal("read mismatch")
	}
	if l.Completed() != 2 {
		t.Fatalf("completed = %d", l.Completed())
	}
}

func TestIOPastEndOfDisk(t *testing.T) {
	k, l, th := rig(t)
	bio, _ := l.AllocBio(blockdev.SectorSize)
	for f, v := range map[string]uint64{"sector": 1000, "rw": blockdev.WriteBio, "dev": 1} {
		must(t, k.Sys.AS.WriteU64(l.BioField(bio, f), v))
	}
	if ret, err := th.CallKernel("submit_bio", uint64(bio)); err != nil || !kernel.IsErr(ret) {
		t.Fatalf("out-of-range I/O accepted: %d %v", int64(ret), err)
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	_, l, th := rig(t)
	if err := l.Submit(th, 0xdead, 0xbeef); err == nil {
		t.Fatal("unknown target accepted")
	}
	if err := l.RemoveTarget(th, 0xdead); err == nil {
		t.Fatal("unknown target removed")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// bioModule loads a module that imports the bio lifecycle exports, in
// an enforcing rig. Its one function runs body as the module.
func bioModule(t *testing.T, body func(*core.Thread, *blockdev.Layer) uint64) (*kernel.Kernel, *blockdev.Layer, *core.Thread, *core.Module) {
	t.Helper()
	k, l, th := rig(t)
	k.Sys.Mon.SetMode(core.Enforce)
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "biomod",
		Imports:  []string{"bio_alloc", "bio_put", "submit_bio"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{{Name: "run",
			Impl: func(th *core.Thread, _ []uint64) uint64 { return body(th, l) }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, l, th, m
}

// TestRetargetedBioReadStaysInPayload: a module that owns a bio points
// data at a kernel object it does not own, zeroes truesize so bio_caps
// would not name the payload, and submits a READ. The disk bytes must
// land in the payload bio_alloc allocated, never in the object.
func TestRetargetedBioReadStaysInPayload(t *testing.T) {
	var victim mem.Addr
	// The module returns the payload bio_alloc gave it, 0 on failure.
	k, l, th, m := bioModule(t, func(th *core.Thread, l *blockdev.Layer) uint64 {
		mod := th.CurrentModule()
		bio, err := mod.Gate("bio_alloc").Call(th, blockdev.SectorSize)
		if err != nil || bio == 0 {
			return 0
		}
		b := mem.Addr(bio)
		data, _ := th.ReadU64(l.BioField(b, "data"))
		for f, v := range map[string]uint64{"truesize": 0, "data": uint64(victim),
			"rw": blockdev.ReadBio, "dev": 1, "sector": 0} {
			if th.WriteU64(l.BioField(b, f), v) != nil {
				return 0
			}
		}
		if ret, err := mod.Gate("submit_bio").Call(th, bio); err != nil || kernel.IsErr(ret) {
			return 0
		}
		return data
	})
	disk := bytes.Repeat([]byte{0x5c}, blockdev.SectorSize)
	copy(l.DiskBytes(1), disk)
	victim, _ = k.Sys.Slab.Alloc(blockdev.SectorSize)
	want := bytes.Repeat([]byte{0xaa}, blockdev.SectorSize)
	must(t, k.Sys.AS.Write(victim, want))
	data, err := th.CallModule(m, "run")
	if err != nil || data == 0 {
		t.Fatalf("run: data=%#x err=%v", data, err)
	}
	if got, _ := k.Sys.AS.ReadBytes(victim, blockdev.SectorSize); !bytes.Equal(got, want) {
		t.Errorf("READ bio wrote disk bytes into a kernel object the module does not own: % x...", got[:8])
	}
	if got, _ := k.Sys.AS.ReadBytes(mem.Addr(data), blockdev.SectorSize); !bytes.Equal(got, disk) {
		t.Errorf("READ bio did not fill its payload: % x...", got[:8])
	}
}

// TestBioPutRevokesAllocatedPayload: bio_put frees the payload
// bio_alloc allocated, so its transfer must strip the module's WRITE
// over that payload even after the module zeroed truesize.
func TestBioPutRevokesAllocatedPayload(t *testing.T) {
	k, _, th, m := bioModule(t, func(th *core.Thread, l *blockdev.Layer) uint64 {
		mod := th.CurrentModule()
		bio, err := mod.Gate("bio_alloc").Call(th, blockdev.SectorSize)
		if err != nil || bio == 0 {
			return 0
		}
		data, _ := th.ReadU64(l.BioField(mem.Addr(bio), "data"))
		if th.WriteU64(l.BioField(mem.Addr(bio), "truesize"), 0) != nil {
			return 0
		}
		if _, err := mod.Gate("bio_put").Call(th, bio); err != nil {
			return 0
		}
		return data
	})
	data, err := th.CallModule(m, "run")
	if err != nil || data == 0 {
		t.Fatalf("run: data=%#x err=%v", data, err)
	}
	if k.Sys.Slab.Owns(mem.Addr(data)) {
		t.Fatal("bio_put left the payload allocated")
	}
	if w := k.Sys.Caps.WriteGrantees(nil, mem.Addr(data)); len(w) != 0 {
		t.Fatalf("%v still hold WRITE over the freed payload", w)
	}
}

// TestBioLenBoundedByPayload: a READ whose len runs past the payload
// fails and leaves the next slab object unchanged.
func TestBioLenBoundedByPayload(t *testing.T) {
	k, l, th := rig(t)
	bio, err := l.AllocBio(blockdev.SectorSize)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := k.Sys.AS.ReadU64(l.BioField(bio, "data"))
	next, _ := k.Sys.Slab.Alloc(blockdev.SectorSize)
	if adj, ok := k.Sys.Slab.NextObject(mem.Addr(data)); !ok || adj != next {
		t.Fatalf("payload %#x is not followed by the object %#x", data, uint64(next))
	}
	want := bytes.Repeat([]byte{0xaa}, blockdev.SectorSize)
	must(t, k.Sys.AS.Write(next, want))
	copy(l.DiskBytes(1), bytes.Repeat([]byte{0x5c}, 2*blockdev.SectorSize))
	for f, v := range map[string]uint64{"len": 2 * blockdev.SectorSize, "rw": blockdev.ReadBio, "dev": 1} {
		must(t, k.Sys.AS.WriteU64(l.BioField(bio, f), v))
	}
	if ret, err := th.CallKernel("submit_bio", uint64(bio)); err != nil || !kernel.IsErr(ret) {
		t.Errorf("I/O past the payload accepted: %d %v", int64(ret), err)
	}
	if got, _ := k.Sys.AS.ReadBytes(next, blockdev.SectorSize); !bytes.Equal(got, want) {
		t.Fatalf("READ ran past its payload into the next object: % x...", got[:8])
	}
}

// sectorModule loads a module that persists a source buffer through
// dm_write_sectors to sector 3 of disk 1, and grants its shared
// principal REF over the disk, as the VFS does for a mount.
func sectorModule(t *testing.T, mode core.Mode) (*kernel.Kernel, *blockdev.Layer, *core.Thread, *core.Module) {
	t.Helper()
	k, l, th := rig(t)
	k.Sys.Mon.SetMode(mode)
	var g *core.Gate
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "sectormod",
		Imports:  []string{"dm_write_sectors"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{{Name: "persist", Params: []core.Param{core.P("buf", "u64")},
			Impl: func(th *core.Thread, a []uint64) uint64 {
				ret, err := g.Call(th, 1, 3, a[0], blockdev.SectorSize)
				if err != nil {
					return kernel.Err(kernel.EPERM)
				}
				return ret
			}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g = m.Gate("dm_write_sectors")
	k.Sys.Caps.Grant(m.Set.Shared(), caps.RefCap(blockdev.DevRef, 1))
	return k, l, th, m
}

// TestDmWriteSectorsAllocationFree: a warm dm_write_sectors crossing
// copies the module's buffer straight into the disk and allocates
// nothing.
func TestDmWriteSectorsAllocationFree(t *testing.T) {
	k, l, th, m := sectorModule(t, core.Enforce)
	src := bytes.Repeat([]byte{0x3c}, blockdev.SectorSize)
	must(t, k.Sys.AS.Write(m.Data, src))
	persist := func() {
		if ret, err := th.CallModule(m, "persist", uint64(m.Data)); err != nil || ret != 0 {
			t.Fatalf("persist: ret=%d err=%v", int64(ret), err)
		}
	}
	for i := 0; i < 16; i++ {
		persist()
	}
	if allocs := testing.AllocsPerRun(200, persist); allocs != 0 {
		t.Fatalf("warm dm_write_sectors crossing allocates %.2f allocs/op, want 0", allocs)
	}
	if got := l.DiskBytes(1)[3*blockdev.SectorSize : 4*blockdev.SectorSize]; !bytes.Equal(got, src) {
		t.Fatalf("disk holds % x..., want the source buffer", got[:8])
	}
	if v := k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

// TestSectorWriteSourceFault: an unmapped source fails dm_write_sectors
// with EFAULT and leaves the disk, the capture log and the power-cut
// budget as they were. (The stock kernel runs no WRITE check, so the
// crossing reaches the copy.)
func TestSectorWriteSourceFault(t *testing.T) {
	k, l, th, m := sectorModule(t, core.Off)
	must(t, k.Sys.AS.Write(m.Data, bytes.Repeat([]byte{0x3c}, blockdev.SectorSize)))
	copy(l.DiskBytes(1), bytes.Repeat([]byte{0x5c}, 8*blockdev.SectorSize))
	before := append([]byte{}, l.DiskBytes(1)...)
	l.StartCapture(1)
	l.FailAfter(1, 1)
	unmapped := uint64(mem.KernelHeap - 2*mem.PageSize)
	if ret, err := th.CallModule(m, "persist", unmapped); err != nil || ret != kernel.Err(kernel.EFAULT) {
		t.Fatalf("unmapped source: ret=%d err=%v, want EFAULT", int64(ret), err)
	}
	if err := l.WriteSectors(1, 3, mem.Addr(unmapped), blockdev.SectorSize); !errors.Is(err, blockdev.ErrFault) {
		t.Fatalf("WriteSectors of an unmapped source: %v, want ErrFault", err)
	}
	if !bytes.Equal(l.DiskBytes(1), before) {
		t.Fatal("a faulting source changed the disk")
	}
	// The budget of one write is intact: the next write lands, the one
	// after it hits the power cut.
	if ret, err := th.CallModule(m, "persist", uint64(m.Data)); err != nil || ret != 0 {
		t.Fatalf("write within the budget: ret=%d err=%v", int64(ret), err)
	}
	if ret, err := th.CallModule(m, "persist", uint64(m.Data)); err != nil || ret != kernel.Err(kernel.EIO) {
		t.Fatalf("write past the budget: ret=%d err=%v, want EIO", int64(ret), err)
	}
	if _, log := l.StopCapture(1); len(log) != 1 || log[0].Sector != 3 || log[0].Data[0] != 0x3c {
		t.Fatalf("capture log %+v, want the one write that landed", log)
	}
}
