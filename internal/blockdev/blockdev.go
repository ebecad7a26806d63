// Package blockdev implements the simulated block layer and
// device-mapper core: bios, a RAM-backed disk, and the annotated
// dm_target_type interface that the dm-crypt / dm-zero / dm-snapshot
// modules plug into.
//
// Device-mapper targets are the paper's second worked example of
// multi-principal modules (§2.1): each layered block device a module
// provides is its own principal, so compromising one dm-crypt volume
// (e.g. via a malicious USB stick) must not grant write access to the
// others.
package blockdev

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

func init() {
	failpoint.Register("blockdev.write_sector")
	failpoint.Register("blockdev.read_sector")
}

// SectorSize is the logical sector size.
const SectorSize = 512

// DevRef is the REF capability type for block devices: holding
// REF("block device", dev) is the proof a principal was granted access
// to that disk (the VFS grants it to a mount's instance principal for
// the mount's own device). The sector-write exports demand it, so a
// compromised module cannot aim dm_write_sectors at another mount's
// disk.
const DevRef = "block device"

// Layout names.
const (
	Bio      = "struct bio"
	DmTarget = "struct dm_target"
	DmOps    = "struct dm_target_type"
)

// Function-pointer types.
const (
	DmCtr = "dm_target_type.ctr"
	DmDtr = "dm_target_type.dtr"
	DmMap = "dm_target_type.map"
)

// bio.rw values.
const (
	ReadBio  = 0
	WriteBio = 1
)

// map return values.
const (
	// MapSubmitted: the target dispatched (or completed) the bio itself;
	// bio ownership stays wherever the target sent it.
	MapSubmitted = 0
	// MapRemapped: the target only rewrote the bio; ownership returns to
	// the caller, which submits it (the post(if (return == 1) ...)
	// transfer in the map annotation).
	MapRemapped = 1
)

// Write-path errors, distinguished so callers can map them onto the
// right errno (missing disk vs. bad range vs. an injected power cut).
var (
	ErrNoDisk   = errors.New("blockdev: no such disk")
	ErrBounds   = errors.New("blockdev: write outside the disk")
	ErrPowerCut = errors.New("blockdev: simulated power cut")
	ErrFault    = errors.New("blockdev: write source not mapped")
)

// SectorWrite is one logged disk mutation: the sector a write landed on
// and the bytes it stored. The crash-recovery tests replay prefixes of
// this log to reconstruct the disk at every possible cut point.
type SectorWrite struct {
	Sector uint64
	Data   []byte
}

// capture is the per-device write recorder: the disk image when
// StartCapture ran plus every write since, in order.
type capture struct {
	initial []byte
	log     []SectorWrite
}

// Layer is the simulated block layer.
//
// mu guards the disk and target directories (attach/detach vs. I/O
// lookup); sector contents are raw bytes, racing writes to the same
// sectors are the modules' own data race. The I/O counters are atomic so
// concurrent mounts and the writeback flusher can be profiled.
type Layer struct {
	K *kernel.Kernel

	bio  *layout.Struct
	tgt  *layout.Struct
	tops *layout.Struct

	mu sync.Mutex
	// disks maps a device id to its backing store.
	disks map[uint64][]byte
	// targets tracks live dm targets: target struct -> its type ops.
	targets map[mem.Addr]mem.Addr
	// captures holds the active write recorders, keyed by device.
	captures map[uint64]*capture
	// failAfter maps a device to its remaining write budget: once it
	// hits zero every further write fails with ErrPowerCut, freezing
	// the disk image at the cut point.
	failAfter map[uint64]*int64

	// completed counts bio_endio calls.
	completed atomic.Uint64
	// sectorReads / sectorWrites count dm_read_sectors and
	// dm_write_sectors calls — the probes the O(live) mount-recovery
	// test uses to prove a remount no longer scans the whole table.
	sectorReads  atomic.Uint64
	sectorWrites atomic.Uint64
}

// Init builds the block layer.
func Init(k *kernel.Kernel) *Layer {
	l := &Layer{
		K:         k,
		disks:     make(map[uint64][]byte),
		targets:   make(map[mem.Addr]mem.Addr),
		captures:  make(map[uint64]*capture),
		failAfter: make(map[uint64]*int64),
	}
	sys := k.Sys

	l.bio = sys.Layouts.Define(Bio,
		layout.F("sector", 8),
		layout.F("data", 8),
		layout.F("len", 8),
		layout.F("rw", 8),
		layout.F("dev", 8),
		layout.F("truesize", 8),
	)
	l.tgt = sys.Layouts.Define(DmTarget,
		layout.F("ops", 8),
		layout.F("private", 8),
		layout.F("begin", 8),
		layout.F("len", 8),
		layout.F("dev", 8),
	)
	l.tops = sys.Layouts.Define(DmOps,
		layout.F("ctr", 8),
		layout.F("dtr", 8),
		layout.F("map", 8),
	)

	// bio_caps: the bio struct plus its payload. The payload comes from
	// the bio's kernel-private payload record, not from data and
	// truesize, which the module owning the bio can rewrite.
	sys.RegisterIterator("bio_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		bio := mem.Addr(uint64(args[0]))
		if bio == 0 {
			return nil
		}
		if err := emit(caps.WriteCap(bio, l.bio.Size)); err != nil {
			return err
		}
		if data, size := sys.Slab.Payload(bio); data != 0 && size > 0 {
			return emit(caps.WriteCap(data, size))
		}
		return nil
	})

	sys.RegisterFPtrType(DmCtr,
		[]core.Param{core.P("ti", "struct dm_target *"), core.P("arg", "u64")},
		"principal(ti) pre(copy(write, ti))")
	sys.RegisterFPtrType(DmDtr,
		[]core.Param{core.P("ti", "struct dm_target *")},
		"principal(ti)")
	sys.RegisterFPtrType(DmMap,
		[]core.Param{core.P("ti", "struct dm_target *"), core.P("bio", "struct bio *")},
		"principal(ti) pre(transfer(bio_caps(bio))) "+
			"post(if (return == 1) transfer(bio_caps(bio)))")

	l.registerExports()
	return l
}

func (l *Layer) registerExports() {
	sys := l.K.Sys

	// bio_alloc: ownership of the fresh bio goes to the allocator.
	sys.RegisterKernelFunc("bio_alloc",
		[]core.Param{core.P("size", "size_t")},
		"post(if (return != 0) transfer(bio_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			bio, err := l.AllocBio(args[0])
			if err != nil {
				return 0
			}
			return uint64(bio)
		})

	sys.RegisterKernelFunc("bio_put",
		[]core.Param{core.P("bio", "struct bio *")},
		"pre(transfer(bio_caps(bio)))",
		func(t *core.Thread, args []uint64) uint64 {
			l.FreeBio(mem.Addr(args[0]))
			return 0
		})

	// submit_bio performs the I/O against the backing disk. The caller
	// gives up the bio (and payload) capabilities: once submitted, the
	// module must not touch the data again.
	sys.RegisterKernelFunc("submit_bio",
		[]core.Param{core.P("bio", "struct bio *")},
		"pre(transfer(bio_caps(bio)))",
		func(t *core.Thread, args []uint64) uint64 {
			if err := l.doIO(mem.Addr(args[0])); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			l.completed.Add(1)
			return 0
		})

	// dm_read_sectors is the synchronous read API dm targets use to
	// fetch data into their own buffers (dm-crypt reads ciphertext this
	// way before decrypting in place). The destination must be memory
	// the module owns.
	sys.RegisterKernelFunc("dm_read_sectors",
		[]core.Param{core.P("dev", "u64"), core.P("sector", "u64"),
			core.P("buf", "void *"), core.P("n", "size_t")},
		"pre(check(write, buf, n))",
		func(t *core.Thread, args []uint64) uint64 {
			l.sectorReads.Add(1)
			// Fault site: an injected error reads back to the module as
			// EIO, like an unreadable sector.
			if failpoint.Armed() {
				if err := failpoint.InjectArg("blockdev.read_sector", strconv.FormatUint(args[0], 10)); err != nil {
					return kernel.Err(kernel.EIO)
				}
			}
			disk := l.DiskBytes(args[0])
			if disk == nil {
				return kernel.Err(kernel.ENOENT)
			}
			// Sector and length are module-controlled; bound them before
			// the offset arithmetic can overflow past the check below.
			n := args[3]
			if args[1] > uint64(len(disk))/SectorSize || n > uint64(len(disk)) {
				return kernel.Err(kernel.EINVAL)
			}
			off := args[1] * SectorSize
			if off+n > uint64(len(disk)) {
				return kernel.Err(kernel.EINVAL)
			}
			if err := sys.AS.Write(mem.Addr(args[2]), disk[off:off+n]); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			return 0
		})

	// dm_write_sectors is the synchronous write mirror of
	// dm_read_sectors: modules persist their own metadata (e.g. the
	// minixsim directory table) from buffers they own. Two proofs are
	// demanded: WRITE on the source buffer (it is the module's own
	// memory, not another principal's laundered bytes) and REF on the
	// device (this disk was granted to the caller — a compromised
	// module cannot overwrite another mount's disk).
	sys.RegisterKernelFunc("dm_write_sectors",
		[]core.Param{core.P("dev", "u64"), core.P("sector", "u64"),
			core.P("buf", "void *"), core.P("n", "size_t")},
		"pre(check(write, buf, n)) pre(check(ref(block device), dev))",
		func(t *core.Thread, args []uint64) uint64 {
			l.sectorWrites.Add(1)
			disk := l.DiskBytes(args[0])
			if disk == nil {
				return kernel.Err(kernel.ENOENT)
			}
			n := args[3]
			if args[1] > uint64(len(disk))/SectorSize || n > uint64(len(disk)) {
				return kernel.Err(kernel.EINVAL)
			}
			off := args[1] * SectorSize
			if off+n > uint64(len(disk)) {
				return kernel.Err(kernel.EINVAL)
			}
			if err := l.WriteSectors(args[0], args[1], mem.Addr(args[2]), n); err != nil {
				if errors.Is(err, ErrFault) {
					return kernel.Err(kernel.EFAULT)
				}
				return kernel.Err(kernel.EIO)
			}
			return 0
		})

	// bio_endio completes a bio without touching a disk (used by targets
	// that synthesize data, like dm-zero).
	sys.RegisterKernelFunc("bio_endio",
		[]core.Param{core.P("bio", "struct bio *")},
		"pre(transfer(bio_caps(bio)))",
		func(t *core.Thread, args []uint64) uint64 {
			l.completed.Add(1)
			return 0
		})
}

// AllocBio allocates a bio plus payload buffer (trusted-side helper).
// The payload is also noted in the bio's kernel-private payload record
// (mem.Slab.AllocWithPayload), which bio_caps, FreeBio and doIO read.
func (l *Layer) AllocBio(size uint64) (mem.Addr, error) {
	sys := l.K.Sys
	if size == 0 {
		size = SectorSize
	}
	bio, data, err := sys.Slab.AllocWithPayload(l.bio.Size, size)
	if err != nil {
		return 0, err
	}
	must(sys.AS.WriteU64(bio+mem.Addr(l.bio.Off("data")), uint64(data)))
	must(sys.AS.WriteU64(bio+mem.Addr(l.bio.Off("truesize")), size))
	must(sys.AS.WriteU64(bio+mem.Addr(l.bio.Off("len")), size))
	return bio, nil
}

// FreeBio releases a bio and the payload AllocBio allocated for it.
func (l *Layer) FreeBio(bio mem.Addr) {
	if bio != 0 {
		l.K.Sys.Slab.FreeWithPayload(bio)
	}
}

// BioField returns the address of a bio field.
func (l *Layer) BioField(bio mem.Addr, f string) mem.Addr {
	return bio + mem.Addr(l.bio.Off(f))
}

// TargetField returns the address of a dm_target field.
func (l *Layer) TargetField(ti mem.Addr, f string) mem.Addr {
	return ti + mem.Addr(l.tgt.Off(f))
}

// OpsSlot returns the address of a dm_target_type slot.
func (l *Layer) OpsSlot(ops mem.Addr, f string) mem.Addr {
	return ops + mem.Addr(l.tops.Off(f))
}

// AddDisk creates a RAM-backed disk of the given size.
func (l *Layer) AddDisk(dev uint64, sectors uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.disks[dev] = make([]byte, sectors*SectorSize)
}

// DiskBytes exposes a disk's backing store (nil when the disk does not
// exist). The slice is the live store — concurrent sector writes target
// disjoint ranges unless the simulated kernel itself is racing.
func (l *Layer) DiskBytes(dev uint64) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.disks[dev]
}

// RemoveDisk detaches a disk (a yanked device): subsequent I/O on dev
// fails with ENOENT. The sector data is discarded.
func (l *Layer) RemoveDisk(dev uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.disks, dev)
}

// Disks returns the ids of all attached disks.
func (l *Layer) Disks() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.disks))
	for dev := range l.disks {
		out = append(out, dev)
	}
	return out
}

// WriteSectors is the single mutation path for disk contents: every
// sector write — dm_write_sectors, pc_writeback, submitted write bios —
// lands here, so the capture log sees the true write order and an armed
// power cut stops all of them at once. It copies the n bytes of
// simulated memory at src straight into the disk, starting at the
// sector's byte offset. A source range that is not mapped fails with
// ErrFault before anything else runs: the failpoint, the disk, the
// power-cut budget and the capture log are left untouched. Pages are
// never unmapped, so a range that probes mapped stays readable for the
// copy.
func (l *Layer) WriteSectors(dev, sector uint64, src mem.Addr, n uint64) error {
	if err := l.K.Sys.AS.Probe(src, n); err != nil {
		return fmt.Errorf("%w: %w", ErrFault, err)
	}
	// Fault site: an injected error surfaces to the module as EIO from
	// dm_write_sectors, like a failing disk. The policy's Arg matches
	// the device id. (The Armed fast path keeps the device formatting
	// off the disarmed path.)
	if failpoint.Armed() {
		if err := failpoint.InjectArg("blockdev.write_sector", strconv.FormatUint(dev, 10)); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	disk, ok := l.disks[dev]
	if !ok {
		return ErrNoDisk
	}
	off := sector * SectorSize
	if sector > uint64(len(disk))/SectorSize || n > uint64(len(disk)) || off+n > uint64(len(disk)) {
		return ErrBounds
	}
	if remaining := l.failAfter[dev]; remaining != nil {
		if *remaining <= 0 {
			return ErrPowerCut
		}
		*remaining--
	}
	dst := disk[off : off+n]
	_ = l.K.Sys.AS.Read(src, dst)
	if c := l.captures[dev]; c != nil {
		c.log = append(c.log, SectorWrite{Sector: sector, Data: append([]byte{}, dst...)})
	}
	return nil
}

// StartCapture snapshots the disk and begins logging every write to it.
// The crash-recovery tests run one workload op under capture, then
// rebuild the disk at every write boundary with ReplayPrefix.
func (l *Layer) StartCapture(dev uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if disk, ok := l.disks[dev]; ok {
		l.captures[dev] = &capture{initial: append([]byte{}, disk...)}
	}
}

// StopCapture ends a capture, returning the initial disk image and the
// ordered write log since StartCapture. Returns nils when no capture
// was active.
func (l *Layer) StopCapture(dev uint64) (initial []byte, log []SectorWrite) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.captures[dev]
	delete(l.captures, dev)
	if c == nil {
		return nil, nil
	}
	return c.initial, c.log
}

// ReplayPrefix builds the disk image that results from applying the
// first n logged writes to the captured initial image — the disk a
// power cut between write n and write n+1 would have left behind.
func ReplayPrefix(initial []byte, log []SectorWrite, n int) []byte {
	disk := append([]byte{}, initial...)
	if n > len(log) {
		n = len(log)
	}
	for _, w := range log[:n] {
		copy(disk[w.Sector*SectorSize:], w.Data)
	}
	return disk
}

// FailAfter arms a power cut on dev: the next n WriteSectors calls
// whose source is mapped succeed, every later one fails with
// ErrPowerCut and leaves the disk untouched (a source fault spends no
// budget) — the image freezes exactly at the cut point, which the
// coredump forensics test then extracts and remounts.
func (l *Layer) FailAfter(dev uint64, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	budget := n
	l.failAfter[dev] = &budget
}

// ClearFail disarms a FailAfter power cut.
func (l *Layer) ClearFail(dev uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.failAfter, dev)
}

// Completed returns the number of completed bios.
func (l *Layer) Completed() uint64 { return l.completed.Load() }

// SectorIO returns the cumulative dm_read_sectors / dm_write_sectors
// call counts.
func (l *Layer) SectorIO() (reads, writes uint64) {
	return l.sectorReads.Load(), l.sectorWrites.Load()
}

// doIO executes a bio against its device, moving len bytes through
// the payload AllocBio allocated; a len past that payload is refused.
func (l *Layer) doIO(bio mem.Addr) error {
	as := l.K.Sys.AS
	sector, _ := as.ReadU64(bio + mem.Addr(l.bio.Off("sector")))
	n, _ := as.ReadU64(bio + mem.Addr(l.bio.Off("len")))
	rw, _ := as.ReadU64(bio + mem.Addr(l.bio.Off("rw")))
	dev, _ := as.ReadU64(bio + mem.Addr(l.bio.Off("dev")))
	data, size := l.K.Sys.Slab.Payload(bio)
	if n > size {
		return fmt.Errorf("blockdev: %d-byte I/O through a %d-byte payload", n, size)
	}
	disk := l.DiskBytes(dev)
	if disk == nil {
		return fmt.Errorf("blockdev: no disk %d", dev)
	}
	off := sector * SectorSize
	if off+n > uint64(len(disk)) {
		return fmt.Errorf("blockdev: I/O past end of disk %d", dev)
	}
	if rw == WriteBio {
		return l.WriteSectors(dev, sector, data, n)
	}
	return as.Write(data, disk[off:off+n])
}

// CreateTarget instantiates a dm target: it allocates the dm_target,
// points it at the module's target-type ops table, and runs the
// module's constructor through the annotated indirect call.
func (l *Layer) CreateTarget(t *core.Thread, ops mem.Addr, arg, begin, length, dev uint64) (mem.Addr, error) {
	sys := l.K.Sys
	ti, err := sys.Slab.Alloc(l.tgt.Size)
	if err != nil {
		return 0, err
	}
	must(sys.AS.WriteU64(ti+mem.Addr(l.tgt.Off("ops")), uint64(ops)))
	must(sys.AS.WriteU64(ti+mem.Addr(l.tgt.Off("begin")), begin))
	must(sys.AS.WriteU64(ti+mem.Addr(l.tgt.Off("len")), length))
	must(sys.AS.WriteU64(ti+mem.Addr(l.tgt.Off("dev")), dev))
	ret, err := t.IndirectCall(l.OpsSlot(ops, "ctr"), DmCtr, uint64(ti), arg)
	if err != nil {
		return 0, err
	}
	if kernel.IsErr(ret) {
		_ = sys.Slab.Free(ti)
		return 0, fmt.Errorf("blockdev: ctr failed: errno %d", -int64(ret))
	}
	l.mu.Lock()
	l.targets[ti] = ops
	l.mu.Unlock()
	return ti, nil
}

// RemoveTarget runs the destructor and frees the target.
func (l *Layer) RemoveTarget(t *core.Thread, ti mem.Addr) error {
	l.mu.Lock()
	ops, ok := l.targets[ti]
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("blockdev: unknown target %#x", uint64(ti))
	}
	if _, err := t.IndirectCall(l.OpsSlot(ops, "dtr"), DmDtr, uint64(ti)); err != nil {
		return err
	}
	l.mu.Lock()
	delete(l.targets, ti)
	l.mu.Unlock()
	return l.K.Sys.Slab.Free(ti)
}

// Submit routes a bio through a dm target's map function; if the target
// remaps (rather than submits), the layer performs the I/O itself.
func (l *Layer) Submit(t *core.Thread, ti, bio mem.Addr) error {
	l.mu.Lock()
	ops, ok := l.targets[ti]
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("blockdev: unknown target %#x", uint64(ti))
	}
	ret, err := t.IndirectCall(l.OpsSlot(ops, "map"), DmMap, uint64(ti), uint64(bio))
	if err != nil {
		return err
	}
	switch ret {
	case MapSubmitted:
		return nil
	case MapRemapped:
		if err := l.doIO(bio); err != nil {
			return err
		}
		l.completed.Add(1)
		return nil
	default:
		return fmt.Errorf("blockdev: map failed: errno %d", -int64(ret))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
