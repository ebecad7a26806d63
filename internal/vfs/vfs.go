// Package vfs implements the simulated virtual filesystem substrate:
// superblocks and mounts, a dentry cache organized as a path-component
// trie, inodes, and a page cache backed by internal/mem — plus the
// annotated interface filesystem modules plug into.
//
// The substrate mirrors how netstack and blockdev wire modules in:
// filesystem modules register an fs_operations table with
// register_filesystem, and the kernel reaches them only through checked
// indirect calls on the module-writable slots of that table. Every
// mounted superblock is its own LXFI instance principal (principal(sb)),
// so two mounts of the same module cannot touch each other's inodes or
// cached pages.
//
// Page-cache pages move between kernel and module by capability
// transfer, in both directions:
//
//   - readpage receives a WRITE capability for the page it must fill
//     (pre(transfer(page_caps(page)))) and gives it back on success
//     (post(if (return == 0) transfer(...))). On failure the revoke
//     action strips the capability from every principal, so a failing
//     module cannot retain write access to a page the kernel recycles.
//   - writepage receives only a REF(struct page) capability: writeback
//     must prove it was handed the page by the VFS (pc_writeback checks
//     the REF) but must not be able to modify a clean page.
package vfs

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

// Layout names.
const (
	SuperBlock = "struct super_block"
	Inode      = "struct inode"
	DentryT    = "struct dentry"
	FsOps      = "struct fs_operations"
)

// PageRef is the REF capability type for page-cache pages.
const PageRef = "struct page"

// Function-pointer types (the annotated filesystem interface).
const (
	FsMount     = "fs_operations.mount"
	FsKillSB    = "fs_operations.kill_sb"
	FsCreate    = "fs_operations.create"
	FsLookup    = "fs_operations.lookup"
	FsUnlink    = "fs_operations.unlink"
	FsReaddir   = "fs_operations.readdir"
	FsRename    = "fs_operations.rename"
	FsExchange  = "fs_operations.exchange"
	FsLink      = "fs_operations.link"
	FsReadPage  = "fs_operations.readpage"
	FsWritePage = "fs_operations.writepage"
	FsIoctl     = "fs_operations.ioctl"
)

// Inode modes (stored in the inode's mode field).
const (
	ModeFile = 0
	ModeDir  = 1
)

// Superblock flags (stored in the superblock's flags field).
const (
	// SBMemOnly marks a mount whose page cache is the only copy of the
	// data (tmpfs-style). DropCaches never evicts such mounts — the
	// "clean" bit after a no-op writepage does not mean the data is
	// anywhere else.
	SBMemOnly = 1 << 0
)

// NameMax is the longest path component the substrate accepts.
const NameMax = 55

// Stats counts VFS activity for tests and the fsperf reports. The
// counters are atomic: worker threads and the writeback flusher bump
// them concurrently.
type Stats struct {
	Mounts      atomic.Uint64
	Creates     atomic.Uint64
	Unlinks     atomic.Uint64
	Renames     atomic.Uint64
	Links       atomic.Uint64
	Exchanges   atomic.Uint64
	Readdirs    atomic.Uint64 // readdir crossings (one per enumerated entry)
	DcacheHits  atomic.Uint64
	DcacheMiss  atomic.Uint64
	PageFills   atomic.Uint64 // readpage crossings
	PageWrites  atomic.Uint64 // writepage crossings
	FlushWrites atomic.Uint64 // writepage crossings made by the background flusher
	Evictions   atomic.Uint64 // pages reclaimed by the LRU budget policy
	EvictWrites atomic.Uint64 // writepage crossings forced by evicting a dirty page
	BytesRead   atomic.Uint64
	BytesWrited atomic.Uint64
}

type fstype struct {
	module *core.Module
	ops    mem.Addr
}

// mount is one mounted superblock. mu is the per-mount operation lock:
// it serializes every namespace and data operation on the mount,
// including all crossings into the owning module, so the module's
// per-mount state (dirent lists, extent bookkeeping) sees one operation
// at a time — different mounts run genuinely in parallel.
type mount struct {
	fs   *fstype
	sb   mem.Addr
	dev  uint64
	root mem.Addr // root dentry

	mu   sync.Mutex
	dead bool // set by Unmount; operations that lost the race fail

	// dentries is this mount's dentry cache: one dnode per cached
	// dentry, with children keyed by path component (the M-way-trie
	// shape). Guarded by mu.
	dentries map[mem.Addr]*dnode

	// nameBuf and dirBuf are this mount's kernel scratch buffers for
	// passing path components to (and readdir names from) the module.
	// Per-mount so concurrent crossings on different mounts cannot
	// clobber each other's component.
	nameBuf mem.Addr
	dirBuf  mem.Addr

	// Writeback stats (atomic: the flusher thread and foreground
	// eviction both write them).
	wbFlushed atomic.Uint64 // pages successfully written back
	wbForced  atomic.Uint64 // dirty victims forced through writepage by eviction
}

// VFS is the simulated virtual filesystem layer.
//
// Lock order (outermost first):
//
//	mount.mu  →  VFS.mu  →  VFS.pageMu  →  (caps/core/mem internal locks)
//
// VFS.mu (the mount table) and pageMu (the page cache index) are held
// only across map and list manipulation, never across a module crossing;
// mount.mu is the only lock held while crossing into a filesystem
// module. A page's dirty state lives in its cache entry. The budget
// walk chooses each eviction victim in one pass under pageMu, taking
// the victim's mount lock, when it is not the caller's own, by TryLock:
// a TryLock never waits, so it keeps the order acyclic even from inside
// pageMu. A victim whose writeback fails moves to the most-recently-used
// end of the LRU list.
type VFS struct {
	K *kernel.Kernel
	// Block is the block layer pc_writeback persists pages to; nil for
	// machines without one (pc_writeback then fails with -ENOENT).
	Block *blockdev.Layer

	sbLay   *layout.Struct
	inoLay  *layout.Struct
	dentLay *layout.Struct
	fopsLay *layout.Struct

	// mu guards the filesystem registry and the mount table.
	mu          sync.RWMutex
	filesystems map[uint64]*fstype
	mounts      map[mem.Addr]*mount

	// pageMu guards the page-cache index: pages, ndirty, the LRU list,
	// and the budget. Page *contents* are copied under the owning
	// mount's lock.
	pageMu sync.Mutex
	// pages is the page cache: (inode, page index) -> entry.
	pages map[pageKey]*pageEnt
	// ndirty counts the cached entries marked dirty.
	ndirty int

	// lru orders the cached pages least- to most-recently used.
	// pageBudget caps the cache size (0 = unlimited): inserting past the
	// budget evicts from the LRU end, forcing writeback for dirty
	// victims.
	lru        *list.List
	pageBudget int

	// The registered function-pointer type of each fs_operations slot,
	// kept from Init so the per-crossing path never repeats the
	// string-keyed type lookup (the §4.2 bind-time move applied to the
	// kernel side).
	gMount     *core.FPtrType
	gKillSB    *core.FPtrType
	gCreate    *core.FPtrType
	gLookup    *core.FPtrType
	gUnlink    *core.FPtrType
	gReaddir   *core.FPtrType
	gRename    *core.FPtrType
	gExchange  *core.FPtrType
	gLink      *core.FPtrType
	gReadPage  *core.FPtrType
	gWritePage *core.FPtrType
	gIoctl     *core.FPtrType

	// Writeback flusher state (see flusher.go).
	flushTick     atomic.Uint64
	flushInterval atomic.Int64 // base interval, nanoseconds; 0 = flusher parked
	flushCur      atomic.Int64 // current (pressure-adapted) interval
	flushKick     chan struct{}

	nextIno atomic.Uint64

	Stats Stats
}

// Init builds the VFS on a booted kernel, registering layouts, the
// annotated function-pointer interface, and the kernel exports
// filesystem modules import. bl may be nil on machines without a block
// layer.
func Init(k *kernel.Kernel, bl *blockdev.Layer) *VFS {
	v := &VFS{
		K:           k,
		Block:       bl,
		filesystems: make(map[uint64]*fstype),
		mounts:      make(map[mem.Addr]*mount),
		pages:       make(map[pageKey]*pageEnt),
		lru:         list.New(),
		flushKick:   make(chan struct{}, 1),
	}
	sys := k.Sys

	v.sbLay = sys.Layouts.Define(SuperBlock,
		layout.F("ops", 8),
		layout.F("dev", 8),
		layout.F("root", 8),
		layout.F("private", 8),
		layout.F("flags", 8),
		layout.F("maxbytes", 8),
	)
	v.inoLay = sys.Layouts.Define(Inode,
		layout.F("sb", 8),
		layout.F("ino", 8),
		layout.F("size", 8),
		layout.F("nlink", 8),
		layout.F("mode", 8),
		layout.F("private", 8),
	)
	v.dentLay = sys.Layouts.Define(DentryT,
		layout.F("inode", 8),
		layout.F("parent", 8),
		layout.F("name", NameMax+1),
	)
	v.fopsLay = sys.Layouts.Define(FsOps,
		layout.F("mount", 8),
		layout.F("kill_sb", 8),
		layout.F("create", 8),
		layout.F("lookup", 8),
		layout.F("unlink", 8),
		layout.F("readdir", 8),
		layout.F("rename", 8),
		layout.F("exchange", 8),
		layout.F("link", 8),
		layout.F("readpage", 8),
		layout.F("writepage", 8),
		layout.F("ioctl", 8),
	)

	// page_caps: the single WRITE capability that makes up a page-cache
	// page (pages are raw PageSize buffers, no header struct).
	sys.RegisterIterator("page_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		page := mem.Addr(uint64(args[0]))
		if page == 0 {
			return nil
		}
		return emit(caps.WriteCap(page, mem.PageSize))
	})

	// name_caps: the WRITE capability for a NameMax-sized name buffer —
	// the scratch the kernel lends a module for one readdir entry.
	sys.RegisterIterator("name_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		buf := mem.Addr(uint64(args[0]))
		if buf == 0 {
			return nil
		}
		return emit(caps.WriteCap(buf, NameMax+1))
	})

	v.registerFPtrTypes()
	v.registerExports()
	// The kernel spawns the writeback flusher at boot, like kflushd. It
	// parks until EnableWriteback gives it an interval.
	k.SpawnDaemon("kflushd", v.flusherLoop)
	return v
}

// Unregister removes every filesystem type the named module
// registered, so a reloaded generation can call register_filesystem
// again without tripping the duplicate-fsid EBUSY check. Mounted
// superblocks are untouched: their ops slots keep resolving through
// the retired generation's registrations, and the reload machinery
// redirects those crossings to the successor.
func (v *VFS) Unregister(moduleName string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for fsid, ft := range v.filesystems {
		if ft.module != nil && ft.module.Name == moduleName {
			delete(v.filesystems, fsid)
		}
	}
}

func (v *VFS) registerFPtrTypes() {
	sys := v.K.Sys
	sbP := core.P("sb", "struct super_block *")
	dirP := core.P("dir", "struct inode *")
	nameP := core.P("name", "const char *")
	lenP := core.P("len", "size_t")

	// mount fills in the superblock, so the module's instance principal
	// (named by the superblock itself) gets write access to it.
	v.gMount = sys.RegisterFPtrType(FsMount,
		[]core.Param{sbP},
		"principal(sb) pre(copy(write, sb))")
	v.gKillSB = sys.RegisterFPtrType(FsKillSB,
		[]core.Param{sbP}, "principal(sb)")
	v.gCreate = sys.RegisterFPtrType(FsCreate,
		[]core.Param{sbP, dirP, nameP, lenP, core.P("mode", "int")},
		"principal(sb)")
	v.gLookup = sys.RegisterFPtrType(FsLookup,
		[]core.Param{sbP, dirP, nameP, lenP},
		"principal(sb)")
	v.gUnlink = sys.RegisterFPtrType(FsUnlink,
		[]core.Param{sbP, dirP, core.P("inode", "struct inode *")},
		"principal(sb)")
	// readdir: the module fills the kernel's name buffer with one entry
	// per call (a dir_context-style cursor). WRITE on the buffer travels
	// kernel -> module -> kernel, exactly like a page through readpage.
	v.gReaddir = sys.RegisterFPtrType(FsReaddir,
		[]core.Param{sbP, dirP, core.P("pos", "u64"), core.P("buf", "void *")},
		"principal(sb) pre(transfer(name_caps(buf))) "+
			"post(transfer(name_caps(buf)))")
	// rename: on success the mount's instance principal must still own
	// the moved inode and both directory inodes — the per-mount
	// capability re-check that makes a cross-mount rename smuggled past
	// the kernel checks a contract violation, not a silent corruption.
	// victim is the inode of an existing target the rename replaces (0
	// when the destination is free): passing it through the same
	// crossing lets a journaling module commit the relink and the
	// target's removal as one atomic transaction instead of exposing a
	// crash window between two crossings.
	v.gRename = sys.RegisterFPtrType(FsRename,
		[]core.Param{sbP, core.P("olddir", "struct inode *"),
			core.P("inode", "struct inode *"), core.P("newdir", "struct inode *"),
			nameP, lenP, core.P("victim", "struct inode *")},
		"principal(sb) post(if (return == 0) check(write, olddir)) "+
			"post(if (return == 0) check(write, newdir)) "+
			"post(if (return == 0) check(write, inode))")
	// exchange: RENAME_EXCHANGE — two existing entries swap their
	// (directory, name) positions atomically. Both entries and both
	// directories must still belong to the mount's principal afterwards.
	v.gExchange = sys.RegisterFPtrType(FsExchange,
		[]core.Param{sbP, core.P("dira", "struct inode *"),
			core.P("inoa", "struct inode *"), core.P("dirb", "struct inode *"),
			core.P("inob", "struct inode *")},
		"principal(sb) post(if (return == 0) check(write, dira)) "+
			"post(if (return == 0) check(write, dirb)) "+
			"post(if (return == 0) check(write, inoa)) "+
			"post(if (return == 0) check(write, inob))")
	// link: a new name for an existing inode (hardlink). The module
	// bumps nlink and persists the new entry; the kernel adds the
	// dentry afterwards.
	v.gLink = sys.RegisterFPtrType(FsLink,
		[]core.Param{sbP, dirP, core.P("inode", "struct inode *"), nameP, lenP},
		"principal(sb) post(if (return == 0) check(write, dir)) "+
			"post(if (return == 0) check(write, inode))")
	// readpage: WRITE ownership of the page travels kernel -> module ->
	// kernel; a failing module keeps nothing (revoke).
	v.gReadPage = sys.RegisterFPtrType(FsReadPage,
		[]core.Param{sbP, core.P("inode", "struct inode *"), core.P("idx", "u64"), core.P("page", "void *")},
		"principal(sb) pre(transfer(page_caps(page))) "+
			"post(if (return == 0) transfer(page_caps(page))) "+
			"post(if (return != 0) revoke(page_caps(page)))")
	// writepage: the module proves page ownership with a REF capability
	// but cannot modify the clean page it is persisting.
	v.gWritePage = sys.RegisterFPtrType(FsWritePage,
		[]core.Param{sbP, core.P("inode", "struct inode *"), core.P("idx", "u64"), core.P("page", "void *")},
		"principal(sb) pre(transfer(ref(struct page), page)) "+
			"post(transfer(ref(struct page), page))")
	v.gIoctl = sys.RegisterFPtrType(FsIoctl,
		[]core.Param{sbP, core.P("cmd", "int"), core.P("arg", "u64")},
		"principal(sb)")
}

func (v *VFS) registerExports() {
	sys := v.K.Sys

	// register_filesystem: the module must own the ops table it hands the
	// kernel (the table stays module-writable, so every mount-time and
	// per-page indirect call through it takes the slow writer-set path,
	// like the e1000 ndo_start_xmit slot).
	sys.RegisterKernelFunc("register_filesystem",
		[]core.Param{core.P("fsid", "u64"), core.P("ops", "struct fs_operations *")},
		"pre(check(write, ops))",
		func(t *core.Thread, args []uint64) uint64 {
			v.mu.Lock()
			defer v.mu.Unlock()
			if _, dup := v.filesystems[args[0]]; dup {
				return kernel.Err(kernel.EBUSY)
			}
			// CallerModule, not CurrentModule: this body runs trusted,
			// so the registering module is on the shadow stack.
			v.filesystems[args[0]] = &fstype{module: t.CallerModule(), ops: mem.Addr(args[1])}
			return 0
		})

	// iget allocates a fresh inode; WRITE ownership transfers to the
	// allocating principal (the mount's instance principal), which must
	// fill in size/nlink/mode.
	sys.RegisterKernelFunc("iget",
		[]core.Param{core.P("sb", "struct super_block *")},
		"post(if (return != 0) transfer(alloc_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			ino, err := sys.Slab.Alloc(v.inoLay.Size)
			if err != nil {
				return 0
			}
			must(sys.AS.Zero(ino, v.inoLay.Size))
			must(sys.AS.WriteU64(v.InodeField(ino, "sb"), args[0]))
			must(sys.AS.WriteU64(v.InodeField(ino, "ino"), v.nextIno.Add(1)))
			must(sys.AS.WriteU64(v.InodeField(ino, "nlink"), 1))
			return uint64(ino)
		})

	// iput releases an inode: the caller gives up ownership, and the
	// kernel drops every page-cache page of the dying inode so stale
	// data cannot resurface under a recycled address.
	sys.RegisterKernelFunc("iput",
		[]core.Param{core.P("inode", "struct inode *")},
		"pre(transfer(alloc_caps(inode)))",
		func(t *core.Thread, args []uint64) uint64 {
			ino := mem.Addr(args[0])
			if ino == 0 {
				return 0
			}
			v.dropPagesOf(ino)
			_ = sys.Slab.Free(ino)
			return 0
		})

	// pc_writeback persists one page-cache page to a block device. The
	// page REF check is the whole point: only a module that was handed
	// this page by the VFS writepage path may persist it. The device
	// REF check pins the destination: the caller can only write back to
	// a disk its mount was granted.
	sys.RegisterKernelFunc("pc_writeback",
		[]core.Param{core.P("dev", "u64"), core.P("sector", "u64"), core.P("page", "void *")},
		"pre(check(ref(struct page), page)) pre(check(ref(block device), dev))",
		func(t *core.Thread, args []uint64) uint64 {
			if v.Block == nil {
				return kernel.Err(kernel.ENOENT)
			}
			disk := v.Block.DiskBytes(args[0])
			if disk == nil {
				return kernel.Err(kernel.ENOENT)
			}
			// Bound the sector count before multiplying: args[1] is
			// module-controlled, and a huge value would overflow the
			// byte-offset arithmetic past the bounds check.
			if args[1] > uint64(len(disk))/blockdev.SectorSize {
				return kernel.Err(kernel.EINVAL)
			}
			off := args[1] * blockdev.SectorSize
			if off+mem.PageSize > uint64(len(disk)) {
				return kernel.Err(kernel.EINVAL)
			}
			buf, err := sys.AS.ReadBytes(mem.Addr(args[2]), mem.PageSize)
			if err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			// The write goes through the block layer's single logged
			// mutation path, so writeback shows up in the crash-recovery
			// write log and obeys an armed power cut like any other write.
			if err := v.Block.WriteSectors(args[0], args[1], buf); err != nil {
				return kernel.Err(kernel.EIO)
			}
			return 0
		})
}

// --- field helpers ---

// SBField returns the address of a super_block field.
func (v *VFS) SBField(sb mem.Addr, f string) mem.Addr { return sb + mem.Addr(v.sbLay.Off(f)) }

// InodeField returns the address of an inode field.
func (v *VFS) InodeField(ino mem.Addr, f string) mem.Addr { return ino + mem.Addr(v.inoLay.Off(f)) }

// OpsSlot returns the address of an fs_operations slot.
func (v *VFS) OpsSlot(ops mem.Addr, f string) mem.Addr { return ops + mem.Addr(v.fopsLay.Off(f)) }

// --- mount lifecycle ---

// mountOf returns the mount for sb, or nil. It takes only VFS.mu, so it
// is safe to call while holding a mount lock (cross-mount eviction).
func (v *VFS) mountOf(sb mem.Addr) *mount {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.mounts[sb]
}

// mountList snapshots the mount table. Callers lock individual mounts
// afterwards, never while VFS.mu is held.
func (v *VFS) mountList() []*mount {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*mount, 0, len(v.mounts))
	for _, mnt := range v.mounts {
		out = append(out, mnt)
	}
	return out
}

// lockMount resolves sb and returns its mount with mu held. The caller
// must unlock it. A mount that disappeared (or died) while we waited
// for the lock produces an error instead of an operation on freed
// superblock memory.
func (v *VFS) lockMount(sb mem.Addr) (*mount, error) {
	mnt := v.mountOf(sb)
	if mnt == nil {
		return nil, fmt.Errorf("vfs: not a mounted superblock: %#x", uint64(sb))
	}
	mnt.mu.Lock()
	if mnt.dead {
		mnt.mu.Unlock()
		return nil, fmt.Errorf("vfs: superblock %#x was unmounted", uint64(sb))
	}
	return mnt, nil
}

// Mount instantiates a registered filesystem on a device: it allocates
// the superblock, runs the module's mount callback as the new mount's
// instance principal, and roots the dentry cache at the inode the module
// returns.
func (v *VFS) Mount(t *core.Thread, fsid, dev uint64) (_ mem.Addr, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.mount", rerr) }()
	v.mu.RLock()
	ft, ok := v.filesystems[fsid]
	v.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("vfs: unknown filesystem %d", fsid)
	}
	if ft.module != nil && ft.module.Dead() {
		return 0, core.ErrModuleDead
	}
	sys := v.K.Sys
	sb, err := sys.Slab.Alloc(v.sbLay.Size)
	if err != nil {
		return 0, err
	}
	must(sys.AS.Zero(sb, v.sbLay.Size))
	must(sys.AS.WriteU64(v.SBField(sb, "ops"), uint64(ft.ops)))
	must(sys.AS.WriteU64(v.SBField(sb, "dev"), dev))

	// On any failure the instance principal created for sb must go away
	// with the superblock: FsMount's pre(copy(write, sb)) has already
	// granted it WRITE over the address the slab is about to recycle.
	fail := func(err error) (mem.Addr, error) {
		if ft.module != nil {
			ft.module.Set.DropInstance(sb)
		}
		_ = sys.Slab.Free(sb)
		return 0, err
	}
	// The mount's instance principal is granted REF on its backing
	// device *before* the mount crossing: journal replay happens inside
	// the module's mount callback and must be able to write the disk
	// (dm_write_sectors demands the device REF). The capability dies
	// with the principal — at unmount, or in fail() for a mount that
	// never completed.
	if ft.module != nil {
		sys.Caps.Grant(ft.module.Set.Instance(sb), caps.RefCap(blockdev.DevRef, mem.Addr(dev)))
	}
	ret, err := v.gMount.Call(t, v.OpsSlot(ft.ops, "mount"), uint64(sb))
	if err != nil {
		return fail(err)
	}
	if ret == 0 {
		return fail(fmt.Errorf("vfs: mount of filesystem %d failed", fsid))
	}
	// The mount object exists before it is published in the mount table,
	// so the root dentry can go straight into its private cache.
	mnt := &mount{
		fs: ft, sb: sb, dev: dev,
		dentries: make(map[mem.Addr]*dnode),
		nameBuf:  sys.Statics.Alloc(NameMax+1, 8),
		dirBuf:   sys.Statics.Alloc(NameMax+1, 8),
	}
	root, err := v.newDentry(mnt, 0, "/", mem.Addr(ret))
	if err != nil {
		// The module's mount already succeeded: give it kill_sb so its
		// private allocations and root inode are released before the
		// principal goes away.
		_, _ = v.gKillSB.Call(t, v.OpsSlot(ft.ops, "kill_sb"), uint64(sb))
		return fail(err)
	}
	mnt.root = root
	must(sys.AS.WriteU64(v.SBField(sb, "root"), uint64(root)))
	v.mu.Lock()
	v.mounts[sb] = mnt
	v.mu.Unlock()
	v.Stats.Mounts.Add(1)
	return sb, nil
}

// Unmount runs the module's kill_sb, then reclaims every dentry, inode,
// and page of the mount and discards the mount's instance principal so a
// recycled superblock address cannot inherit stale privileges.
func (v *VFS) Unmount(t *core.Thread, sb mem.Addr) (rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.unmount", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	if _, err := v.gKillSB.Call(t, v.OpsSlot(mnt.fs.ops, "kill_sb"), uint64(sb)); err != nil {
		return err
	}
	mnt.dead = true
	v.mu.Lock()
	delete(v.mounts, sb)
	v.mu.Unlock()
	sys := v.K.Sys
	// Reclaim whatever the module did not release itself. Inodes it
	// already iput are gone from the slab; the double free is ignored.
	for d, n := range mnt.dentries {
		if n.inode != 0 {
			v.dropPagesOf(n.inode)
			_ = sys.Slab.Free(n.inode)
		}
		_ = sys.Slab.Free(d)
	}
	mnt.dentries = make(map[mem.Addr]*dnode)
	if mnt.fs.module != nil {
		mnt.fs.module.Set.DropInstance(sb)
	}
	_ = sys.Slab.Free(sb)
	return nil
}

// Ioctl dispatches a filesystem-specific control operation through the
// module-writable ioctl slot.
func (v *VFS) Ioctl(t *core.Thread, sb mem.Addr, cmd, arg uint64) (_ uint64, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.ioctl", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, err
	}
	defer mnt.mu.Unlock()
	return v.gIoctl.Call(t, v.OpsSlot(mnt.fs.ops, "ioctl"), uint64(sb), cmd, arg)
}

// splitPath normalizes a path into components.
func splitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
