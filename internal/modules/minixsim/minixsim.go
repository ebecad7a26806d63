// Package minixsim is a simulated minix-style block-backed filesystem
// module: file data is persisted to a RAM disk of the blockdev substrate
// in fixed per-inode extents. readpage pulls sectors into the page cache
// with dm_read_sectors (which checks WRITE ownership of the destination
// page — held precisely while the VFS has transferred it), and writepage
// persists clean pages through pc_writeback, proving ownership with the
// REF(struct page) capability the writepage contract hands it.
//
// The namespace is durable too: every extent slot has a one-sector
// directory-table record after the data region (name, parent slot, mode,
// size), written through dm_write_sectors from a module-owned record
// buffer. mount scans the table and rebuilds the full directory tree, so
// a remount recovers everything from the disk alone — the in-memory
// dirent list is just the mounted-state cache of the table.
//
// Each mount also indexes its dirents twice, by name and by inode, in
// bucket chains hung off one table of chain heads, so lookup, rename,
// unlink, exchange and writepage read one chain instead of the whole
// list. The indexes live only in the mounted filesystem: recovery
// rebuilds them through addDirent, and they are never written to disk,
// so the disk format, the journal and replay are unchanged by them.
//
// Like tmpfssim, the module ships a deliberate compromise vector: the
// CmdTamper ioctl arms a corrupted writepage that scribbles on the page
// it is asked to persist. writepage only ever receives a REF capability,
// so under LXFI the scribble is a violation; on the stock kernel the
// tampered bytes reach the disk — and because LRU eviction of a dirty
// page forces writepage, an attacker can trigger the corruption with
// nothing but memory pressure.
package minixsim

import (
	"bytes"
	"math/bits"
	"slices"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/vfs"
)

// FsID is the filesystem id minixsim registers.
const FsID = 2

// CmdTamper arms the compromised writepage: every page persisted from
// then on has its first 8 bytes overwritten with TamperValue first.
const CmdTamper = 0x7101

// CmdPokeDisk is a second compromise vector: write one record-sized
// burst of module memory to sector 0 of the device given in arg. Aimed
// at a foreign device it is a cross-principal disk write —
// dm_write_sectors' REF(block device) check stops it under LXFI.
const CmdPokeDisk = 0x7102

// TamperValue is the marker the corrupted writepage plants.
const TamperValue = 0x4242424242424242

// On-disk geometry: every inode owns a fixed extent of MaxFilePages
// pages; extent slots are handed out round-robin per mount. After the
// data extents sits the directory table: one sector-sized record per
// slot, so the namespace survives a remount. After the table sits the
// used-slot bitmap: one bit per slot, kept in sync by every record
// write, so mount-time recovery reads only the records the bitmap marks
// live — O(live records) instead of a MaxSlots scan.
const (
	SectorsPerPage = mem.PageSize / blockdev.SectorSize
	MaxFilePages   = 4
	SectorsPerFile = MaxFilePages * SectorsPerPage
	MaxSlots       = 1024
	// DataSectors is the extent region; the directory table follows it.
	DataSectors   = MaxSlots * SectorsPerFile
	DirTabStart   = DataSectors
	DirTabSectors = MaxSlots
	// BitmapStart is the used-slot bitmap sector: MaxSlots bits (128
	// bytes), well inside one sector.
	BitmapStart   = DirTabStart + DirTabSectors
	BitmapSectors = 1
	// JournalStart is the write-ahead journal region: one commit sector
	// followed by JournalSlots intent sectors. Multi-record metadata
	// operations write their intent records here first, commit with the
	// single commit-sector write, then apply to the directory table —
	// mount replays committed-but-unapplied transactions and discards
	// torn ones.
	JournalStart   = BitmapStart + BitmapSectors
	JournalSlots   = 16
	JournalSectors = 1 + JournalSlots
	// DiskSectors is the disk size a mount expects.
	DiskSectors = DataSectors + DirTabSectors + BitmapSectors + JournalSectors
	// RecSize is the size of one directory-table record (one sector, so
	// a record is always sector-addressable).
	RecSize = blockdev.SectorSize
	// RootSlot is the parent value of records living directly under the
	// mount root (the root inode itself has no extent slot).
	RootSlot = MaxSlots
	// Buckets is the chain-head count of each of a mount's two dirent
	// indexes: one per slot, so even a full disk averages one entry per
	// chain.
	Buckets = MaxSlots
)

// Directory-table record field offsets. A record is one directory
// entry; its target is the extent slot holding the file's data. Plain
// files and directories target their own slot; a hardlink's record
// targets the shared extent, so the link count of an extent is simply
// the number of live records targeting it.
const (
	recUsed   = 0  // u64: 1 = live
	recParent = 8  // u64: parent directory's extent slot, RootSlot for the root
	recMode   = 16 // u64: vfs.ModeFile / vfs.ModeDir
	recSize   = 24 // u64: logical file size in bytes
	recTarget = 32 // u64: extent slot the entry's data lives in
	recName   = 40 // NUL-terminated, at most vfs.NameMax bytes + NUL
)

// Journal sector layouts. An intent sector is a self-describing record
// image: everything needed to rewrite one directory-table record plus
// its transaction id, sequence number, and checksum. The commit sector
// names the transaction and its record count; writing it is the commit
// point, zeroing it is the checkpoint. Both carry an FNV-1a checksum so
// replay can tell a torn or stale sector from a committed one.
const (
	jMagic  = 0  // u64: jIntentMagic
	jTxid   = 8  // u64: transaction id
	jSeq    = 16 // u64: record index within the transaction
	jSlot   = 24 // u64: directory-table slot the image rewrites
	jUsed   = 32 // u64: record image: live flag
	jParent = 40 // u64: record image: parent extent slot
	jMode   = 48 // u64: record image: mode
	jSize   = 56 // u64: record image: size
	jTarget = 64 // u64: record image: target extent slot
	jName   = 72 // record image: name, NameMax bytes + NUL (56 bytes)
	jSum    = 128

	cMagic = 0  // u64: jCommitMagic
	cTxid  = 8  // u64: transaction id the intents carry
	cCount = 16 // u64: number of intent sectors in the transaction
	cSum   = 24
)

const (
	jIntentMagic uint64 = 0x4c58464a_544e544e // "LXFJ" + "TNTN"
	jCommitMagic uint64 = 0x4c58464a_434d4954 // "LXFJ" + "CMIT"
)

// fnv1a is the checksum both journal sector kinds carry.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Layout names.
const (
	Dirent = "struct minix_dirent"
	SbInfo = "struct minix_sb_info"
)

// FS is the loaded minixsim module.
type FS struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gRegisterFilesystem *core.Gate
	gIget               *core.Gate
	gIput               *core.Gate
	gKmalloc            *core.Gate
	gKfree              *core.Gate
	gDmReadSectors      *core.Gate
	gDmWriteSectors     *core.Gate
	gPcWriteback        *core.Gate
	K                   *kernel.Kernel
	V                   *vfs.VFS

	deLay   *layout.Struct
	privLay *layout.Struct
}

// Load loads the module and runs its init function. The kernel must
// have both the vfs and blockdev substrates initialized.
func Load(t *core.Thread, k *kernel.Kernel, v *vfs.VFS) (*FS, error) {
	fs := &FS{K: k, V: v}
	fs.deLay = defineOnce(k, Dirent,
		layout.F("next", 8),
		layout.F("prev", 8),  // mount-list back link: an unlink splices without a walk
		layout.F("hnext", 8), // next entry on this entry's name chain
		layout.F("inext", 8), // next entry on this entry's inode chain
		layout.F("dir", 8),
		layout.F("inode", 8),
		layout.F("slot", 8),    // directory-table slot backing this entry
		layout.F("recsize", 8), // size last persisted to the on-disk record
		layout.F("name", vfs.NameMax+1),
	)
	fs.privLay = defineOnce(k, SbInfo,
		layout.F("head", 8),
		layout.F("root", 8),
		layout.F("nextslot", 8),
		layout.F("freestack", 8), // array of reusable extent slots
		layout.F("freecount", 8),
		layout.F("recbuf", 8), // module-owned directory-record buffer
		layout.F("bmbuf", 8),  // module-owned used-slot bitmap buffer
		layout.F("jbuf", 8),   // module-owned journal-sector buffer
		layout.F("txid", 8),   // last journal transaction id handed out
		layout.F("tamper", 8), // nonzero once CmdTamper armed the compromise
		layout.F("index", 8),  // 2*Buckets chain heads: name chains, then inode chains
	)

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name: "minixsim",
		Imports: []string{"register_filesystem", "iget", "iput", "kmalloc", "kfree",
			"dm_read_sectors", "dm_write_sectors", "pc_writeback", "printk"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "mount", Type: vfs.FsMount, Impl: fs.mount},
			{Name: "kill_sb", Type: vfs.FsKillSB, Impl: fs.killSB},
			{Name: "create", Type: vfs.FsCreate, Impl: fs.createFn},
			{Name: "lookup", Type: vfs.FsLookup, Impl: fs.lookup},
			{Name: "unlink", Type: vfs.FsUnlink, Impl: fs.unlink},
			{Name: "readdir", Type: vfs.FsReaddir, Impl: fs.readdir},
			{Name: "rename", Type: vfs.FsRename, Impl: fs.rename},
			{Name: "exchange", Type: vfs.FsExchange, Impl: fs.exchange},
			{Name: "link", Type: vfs.FsLink, Impl: fs.link},
			{Name: "readpage", Type: vfs.FsReadPage, Impl: fs.readpage},
			{Name: "writepage", Type: vfs.FsWritePage, Impl: fs.writepage},
			{Name: "ioctl", Type: vfs.FsIoctl, Impl: fs.ioctl},
			{Name: "init", Impl: fs.init},
		},
	})
	if err != nil {
		return nil, err
	}
	fs.M = m
	fs.gRegisterFilesystem = m.Gate("register_filesystem")
	fs.gIget = m.Gate("iget")
	fs.gIput = m.Gate("iput")
	fs.gKmalloc = m.Gate("kmalloc")
	fs.gKfree = m.Gate("kfree")
	fs.gDmReadSectors = m.Gate("dm_read_sectors")
	fs.gDmWriteSectors = m.Gate("dm_write_sectors")
	fs.gPcWriteback = m.Gate("pc_writeback")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return fs, nil
}

func defineOnce(k *kernel.Kernel, name string, fields ...layout.Field) *layout.Struct {
	if s, ok := k.Sys.Layouts.Get(name); ok {
		return s
	}
	return k.Sys.Layouts.Define(name, fields...)
}

type initError struct{ err error }

func (e *initError) Error() string { return "minixsim: init failed" }
func (e *initError) Unwrap() error { return e.err }

// Ops returns the module's fs_operations table address.
func (fs *FS) Ops() mem.Addr { return fs.M.Data }

func (fs *FS) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	for _, slot := range []string{"mount", "kill_sb", "create", "lookup", "unlink", "readdir", "rename", "exchange", "link", "readpage", "writepage", "ioctl"} {
		if err := t.WriteU64(fs.V.OpsSlot(fs.Ops(), slot), uint64(mod.Funcs[slot].Addr)); err != nil {
			return 1
		}
	}
	if ret, err := fs.gRegisterFilesystem.Call(t, FsID, uint64(fs.Ops())); err != nil || kernel.IsErr(ret) {
		return 2
	}
	return 0
}

func (fs *FS) deField(de mem.Addr, f string) mem.Addr { return de + mem.Addr(fs.deLay.Off(f)) }
func (fs *FS) pvField(pv mem.Addr, f string) mem.Addr { return pv + mem.Addr(fs.privLay.Off(f)) }
func (fs *FS) priv(t *core.Thread, sb mem.Addr) mem.Addr {
	p, _ := t.ReadU64(fs.V.SBField(sb, "private"))
	return mem.Addr(p)
}

// parentSlot maps a directory inode to the slot value stored in a
// directory-table record: the directory's own extent slot, or RootSlot
// when the directory is the mount root.
func (fs *FS) parentSlot(t *core.Thread, priv mem.Addr, dir uint64) uint64 {
	root, _ := t.ReadU64(fs.pvField(priv, "root"))
	if dir == root {
		return RootSlot
	}
	slot, _ := t.ReadU64(fs.V.InodeField(mem.Addr(dir), "private"))
	return slot
}

// setUsedBit flips the slot's bit in the module's bitmap buffer and, if
// it changed, persists the bitmap sector. Steady-state record rewrites
// (size folds, renames) leave the bit untouched and skip the extra
// sector write.
func (fs *FS) setUsedBit(t *core.Thread, sb, priv mem.Addr, slot, used uint64) bool {
	buf, _ := t.ReadU64(fs.pvField(priv, "bmbuf"))
	bb := mem.Addr(buf) + mem.Addr(slot/8)
	cur, err := t.ReadU8(bb)
	if err != nil {
		return false
	}
	bit := uint8(1) << (slot % 8)
	next := cur &^ bit
	if used != 0 {
		next = cur | bit
	}
	if next == cur {
		return true
	}
	if t.WriteU8(bb, next) != nil {
		return false
	}
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	ret, err := fs.gDmWriteSectors.Call(t, dev, BitmapStart, buf, blockdev.SectorSize)
	return err == nil && !kernel.IsErr(ret)
}

// jrec is one directory-table record image: the unit a journal intent
// describes and applyRec persists.
type jrec struct {
	slot, used, parent, mode, size, target uint64
	name                                   []byte
}

func putU64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte, off int) uint64 {
	v := uint64(0)
	for i := 0; i < 8; i++ {
		v |= uint64(b[off+i]) << (8 * i)
	}
	return v
}

// sector is one journal sector image, built on the stack.
type sector = [blockdev.SectorSize]byte

// encodeIntent builds one intent sector: the record image plus txid,
// sequence number, and checksum.
func encodeIntent(txid, seq uint64, r jrec) (out sector) {
	img := out[:]
	putU64(img, jMagic, jIntentMagic)
	putU64(img, jTxid, txid)
	putU64(img, jSeq, seq)
	putU64(img, jSlot, r.slot)
	putU64(img, jUsed, r.used)
	putU64(img, jParent, r.parent)
	putU64(img, jMode, r.mode)
	putU64(img, jSize, r.size)
	putU64(img, jTarget, r.target)
	copy(img[jName:], r.name)
	putU64(img, jSum, fnv1a(img[:jSum]))
	return out
}

// encodeCommit builds the commit sector for a txid/count pair.
func encodeCommit(txid, count uint64) (out sector) {
	img := out[:]
	putU64(img, cMagic, jCommitMagic)
	putU64(img, cTxid, txid)
	putU64(img, cCount, count)
	putU64(img, cSum, fnv1a(img[:cSum]))
	return out
}

// decodeIntent validates an intent sector against the committed txid
// and sequence; ok is false for torn, stale, or corrupt sectors.
func decodeIntent(img []byte, txid, seq uint64) (r jrec, ok bool) {
	if getU64(img, jMagic) != jIntentMagic ||
		getU64(img, jTxid) != txid ||
		getU64(img, jSeq) != seq ||
		getU64(img, jSum) != fnv1a(img[:jSum]) {
		return jrec{}, false
	}
	name := img[jName : jName+vfs.NameMax+1]
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	return jrec{
		slot:   getU64(img, jSlot),
		used:   getU64(img, jUsed),
		parent: getU64(img, jParent),
		mode:   getU64(img, jMode),
		size:   getU64(img, jSize),
		target: getU64(img, jTarget),
		name:   append([]byte{}, name...),
	}, true
}

// jwriteSector persists one journal sector from the mount's own journal
// buffer through dm_write_sectors (which checks the module owns the
// buffer it is persisting).
func (fs *FS) jwriteSector(t *core.Thread, sb, priv mem.Addr, sector uint64, img []byte) bool {
	buf, _ := t.ReadU64(fs.pvField(priv, "jbuf"))
	if t.Write(mem.Addr(buf), img) != nil {
		return false
	}
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	ret, err := fs.gDmWriteSectors.Call(t, dev, sector, buf, blockdev.SectorSize)
	return err == nil && !kernel.IsErr(ret)
}

// applyRec persists one directory-table record image from the mount's
// own record buffer, keeping the used-slot bitmap in sync: a live bit
// is set before its record is written and cleared only after the record
// is killed, so a torn apply leaves at worst a set bit over a dead
// record — which replay rewrites, since the commit sector is still
// standing. applyRec is idempotent: images are absolute, so replaying
// an already-applied record rewrites the same bytes.
func (fs *FS) applyRec(t *core.Thread, sb, priv mem.Addr, r jrec) bool {
	if len(r.name) > vfs.NameMax {
		return false
	}
	buf, _ := t.ReadU64(fs.pvField(priv, "recbuf"))
	rb := mem.Addr(buf)
	var img [RecSize]byte
	rec := img[:]
	putU64(rec, recUsed, r.used)
	putU64(rec, recParent, r.parent)
	putU64(rec, recMode, r.mode)
	putU64(rec, recSize, r.size)
	putU64(rec, recTarget, r.target)
	copy(rec[recName:], r.name)
	if r.used != 0 && !fs.setUsedBit(t, sb, priv, r.slot, 1) {
		return false
	}
	if t.Write(rb, rec) != nil {
		return false
	}
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	ret, err := fs.gDmWriteSectors.Call(t, dev, DirTabStart+r.slot, uint64(rb), RecSize)
	if err != nil || kernel.IsErr(ret) {
		return false
	}
	if r.used == 0 && !fs.setUsedBit(t, sb, priv, r.slot, 0) {
		return false
	}
	return true
}

// commitTxn runs one journaled transaction: write every record image as
// an intent sector, commit with the single commit-sector write, apply
// the images to the directory table, then checkpoint by zeroing the
// commit sector. A crash before the commit write loses the whole
// transaction (the directory table is untouched); a crash after it is
// replayed to completion by the next mount. Either way no observer ever
// sees half the records of a multi-record operation.
func (fs *FS) commitTxn(t *core.Thread, sb, priv mem.Addr, recs []jrec) bool {
	if len(recs) == 0 || len(recs) > JournalSlots {
		return false
	}
	txid, _ := t.ReadU64(fs.pvField(priv, "txid"))
	txid++
	if t.WriteU64(fs.pvField(priv, "txid"), txid) != nil {
		return false
	}
	for i, r := range recs {
		img := encodeIntent(txid, uint64(i), r)
		if !fs.jwriteSector(t, sb, priv, JournalStart+1+uint64(i), img[:]) {
			return false
		}
	}
	img := encodeCommit(txid, uint64(len(recs)))
	if !fs.jwriteSector(t, sb, priv, JournalStart, img[:]) {
		return false
	}
	for _, r := range recs {
		if !fs.applyRec(t, sb, priv, r) {
			return false
		}
	}
	var clean sector
	return fs.jwriteSector(t, sb, priv, JournalStart, clean[:])
}

// nameChain returns the address of the head of name's bucket chain.
func (fs *FS) nameChain(t *core.Thread, priv mem.Addr, name []byte) mem.Addr {
	index, _ := t.ReadU64(fs.pvField(priv, "index"))
	return mem.Addr(index) + mem.Addr(8*(fnv1a(name)%Buckets))
}

// inodeChain returns the address of the head of ino's bucket chain. The
// bucket is a multiplicative hash of the inode address: the high bits of
// the product, so the zero low bits of slab addresses do not matter.
func (fs *FS) inodeChain(t *core.Thread, priv mem.Addr, ino uint64) mem.Addr {
	index, _ := t.ReadU64(fs.pvField(priv, "index"))
	b, _ := bits.Mul64(ino*0x9e3779b97f4a7c15, Buckets)
	return mem.Addr(index) + mem.Addr(8*(Buckets+b))
}

// nameBuf holds one name and its NUL on the stack. It has room for the
// longest name the module handles: a recovered record's whole
// NameMax+1-byte name field, which a corrupted record leaves without a
// NUL.
type nameBuf = [vfs.NameMax + 2]byte

// direntName reads an entry's name, without its NUL, into buf.
func (fs *FS) direntName(t *core.Thread, de mem.Addr, buf *nameBuf) ([]byte, error) {
	name := buf[:vfs.NameMax+1]
	if err := t.Read(fs.deField(de, "name"), name); err != nil {
		return nil, err
	}
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	return name, nil
}

// writeName stores name and its NUL in de's name field, in one write.
func (fs *FS) writeName(t *core.Thread, de mem.Addr, name []byte) error {
	var buf nameBuf
	n := copy(buf[:len(buf)-1], name)
	return t.Write(fs.deField(de, "name"), buf[:n+1])
}

// readName reads the n-byte name a crossing passed at addr into buf;
// callers bound n by vfs.NameMax.
func readName(t *core.Thread, addr mem.Addr, n uint64, buf *nameBuf) ([]byte, error) {
	name := buf[:n]
	if err := t.Read(addr, name); err != nil {
		return nil, err
	}
	return name, nil
}

// enchain pushes de onto the chain whose head is at head, through de's
// link field.
func (fs *FS) enchain(t *core.Thread, head, de mem.Addr, link string) error {
	first, _ := t.ReadU64(head)
	if err := t.WriteU64(fs.deField(de, link), first); err != nil {
		return err
	}
	return t.WriteU64(head, uint64(de))
}

// unchain takes de off the chain whose head is at head; an entry that is
// not on the chain is left alone.
func (fs *FS) unchain(t *core.Thread, head, de mem.Addr, link string) error {
	at := head
	for {
		cur, _ := t.ReadU64(at)
		if cur == 0 {
			return nil
		}
		if mem.Addr(cur) == de {
			next, _ := t.ReadU64(fs.deField(de, link))
			return t.WriteU64(at, next)
		}
		at = fs.deField(mem.Addr(cur), link)
	}
}

// unlinkDirent takes de off the mount list and off its name and inode
// chains. It also undoes a partial addDirent: a list link that never
// happened leaves prev zero and the head elsewhere.
func (fs *FS) unlinkDirent(t *core.Thread, priv, de mem.Addr) error {
	prev, _ := t.ReadU64(fs.deField(de, "prev"))
	next, _ := t.ReadU64(fs.deField(de, "next"))
	if prev != 0 {
		if err := t.WriteU64(fs.deField(mem.Addr(prev), "next"), next); err != nil {
			return err
		}
	} else if head, _ := t.ReadU64(fs.pvField(priv, "head")); head == uint64(de) {
		if err := t.WriteU64(fs.pvField(priv, "head"), next); err != nil {
			return err
		}
	}
	if next != 0 {
		if err := t.WriteU64(fs.deField(mem.Addr(next), "prev"), prev); err != nil {
			return err
		}
	}
	ino, _ := t.ReadU64(fs.deField(de, "inode"))
	var nb nameBuf
	name, err := fs.direntName(t, de, &nb)
	if err != nil {
		return err
	}
	if err := fs.unchain(t, fs.nameChain(t, priv, name), de, "hnext"); err != nil {
		return err
	}
	return fs.unchain(t, fs.inodeChain(t, priv, ino), de, "inext")
}

// addDirent links one in-memory directory entry; returns 0 on failure.
// slot is the directory-table slot backing the entry; recsize caches
// the size stored in the slot's on-disk record, so writepage only
// rewrites the record when the size actually changed. The entry joins
// the list and both chains only once all its fields are written.
func (fs *FS) addDirent(t *core.Thread, priv mem.Addr, dir, ino uint64, name []byte, recsize, slot uint64) uint64 {
	de, err := fs.gKmalloc.Call(t, fs.deLay.Size)
	if err != nil || de == 0 {
		return 0
	}
	d := mem.Addr(de)
	if t.WriteU64(fs.deField(d, "dir"), dir) != nil ||
		t.WriteU64(fs.deField(d, "inode"), ino) != nil ||
		t.WriteU64(fs.deField(d, "slot"), slot) != nil ||
		t.WriteU64(fs.deField(d, "recsize"), recsize) != nil ||
		fs.writeName(t, d, name) != nil {
		_, _ = fs.gKfree.Call(t, de)
		return 0
	}
	head, _ := t.ReadU64(fs.pvField(priv, "head"))
	if t.WriteU64(fs.deField(d, "next"), head) != nil ||
		(head != 0 && t.WriteU64(fs.deField(mem.Addr(head), "prev"), de) != nil) ||
		t.WriteU64(fs.pvField(priv, "head"), de) != nil ||
		fs.enchain(t, fs.nameChain(t, priv, name), d, "hnext") != nil ||
		fs.enchain(t, fs.inodeChain(t, priv, ino), d, "inext") != nil {
		if fs.unlinkDirent(t, priv, d) == nil {
			_, _ = fs.gKfree.Call(t, de)
		}
		return 0
	}
	return de
}

// renameDirent gives de a new directory, cached record size and name,
// and moves it to the new name's chain.
func (fs *FS) renameDirent(t *core.Thread, priv, de mem.Addr, dir, recsize uint64, name []byte) error {
	var nb nameBuf
	old, err := fs.direntName(t, de, &nb)
	if err != nil {
		return err
	}
	if err := fs.unchain(t, fs.nameChain(t, priv, old), de, "hnext"); err != nil {
		return err
	}
	if err := t.WriteU64(fs.deField(de, "dir"), dir); err != nil {
		return err
	}
	if err := t.WriteU64(fs.deField(de, "recsize"), recsize); err != nil {
		return err
	}
	if err := fs.writeName(t, de, name); err != nil {
		return err
	}
	return fs.enchain(t, fs.nameChain(t, priv, name), de, "hnext")
}

// entryByName returns dir's entry called name, or 0, walking name's
// chain.
func (fs *FS) entryByName(t *core.Thread, priv mem.Addr, dir uint64, name []byte) mem.Addr {
	var buf nameBuf
	if len(name) >= len(buf) {
		return 0
	}
	got := buf[:len(name)+1]
	cur, _ := t.ReadU64(fs.nameChain(t, priv, name))
	for cur != 0 {
		de := mem.Addr(cur)
		if entryCompared != nil {
			entryCompared()
		}
		if d, _ := t.ReadU64(fs.deField(de, "dir")); d == dir {
			if t.Read(fs.deField(de, "name"), got) == nil && bytes.Equal(got[:len(name)], name) && got[len(name)] == 0 {
				return de
			}
		}
		cur, _ = t.ReadU64(fs.deField(de, "hnext"))
	}
	return 0
}

// entryCompared, when set, runs once for every entry a by-name probe
// compares; tests count a probe's work with it.
var entryCompared func()

// entryByInode returns dir's entry for inode ino, or 0, walking ino's
// chain.
func (fs *FS) entryByInode(t *core.Thread, priv mem.Addr, dir, ino uint64) mem.Addr {
	cur, _ := t.ReadU64(fs.inodeChain(t, priv, ino))
	for cur != 0 {
		de := mem.Addr(cur)
		got, _ := t.ReadU64(fs.deField(de, "inode"))
		if d, _ := t.ReadU64(fs.deField(de, "dir")); got == ino && d == dir {
			return de
		}
		cur, _ = t.ReadU64(fs.deField(de, "inext"))
	}
	return 0
}

func (fs *FS) mount(t *core.Thread, args []uint64) uint64 {
	sb := mem.Addr(args[0])
	// The mount's allocations: sb-info, free-slot stack, record, bitmap
	// and journal buffers, and the zeroed chain-head table (kmalloc
	// zeroes). fail frees the first n of them, last first.
	sizes := [...]uint64{fs.privLay.Size, 8 * MaxSlots, RecSize, blockdev.SectorSize, blockdev.SectorSize, 8 * 2 * Buckets}
	var bufs [len(sizes)]uint64
	n := 0
	fail := func() uint64 {
		for n > 0 {
			n--
			_, _ = fs.gKfree.Call(t, bufs[n])
		}
		return 0
	}
	for ; n < len(sizes); n++ {
		b, err := fs.gKmalloc.Call(t, sizes[n])
		if err != nil || b == 0 {
			return fail()
		}
		bufs[n] = b
	}
	priv, stack, recbuf, bmbuf, jbuf, index := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5]
	root, err := fs.gIget.Call(t, uint64(sb))
	if err != nil || root == 0 {
		return fail()
	}
	if t.WriteU64(fs.V.InodeField(mem.Addr(root), "mode"), vfs.ModeDir) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(root), "nlink"), 2) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "head"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "root"), root) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "nextslot"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "freestack"), stack) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "freecount"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "recbuf"), recbuf) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "bmbuf"), bmbuf) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "jbuf"), jbuf) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "txid"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "tamper"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "index"), index) != nil ||
		t.WriteU64(fs.V.SBField(sb, "private"), priv) != nil ||
		// Declare the per-file capacity so the VFS rejects oversized
		// writes up front instead of caching pages that can never be
		// persisted.
		t.WriteU64(fs.V.SBField(sb, "maxbytes"), MaxFilePages*mem.PageSize) != nil ||
		!fs.recoverNamespace(t, sb, mem.Addr(priv)) {
		_, _ = fs.gIput.Call(t, root)
		return fail()
	}
	return root
}

// replayJournal finishes or discards whatever transaction the previous
// mount left in the journal. A valid commit sector means every intent
// of the transaction reached the disk before the crash (the commit
// write comes last), so the intents are re-applied — applyRec images
// are absolute and idempotent — and the commit sector is zeroed. An
// invalid or torn commit sector means the transaction never committed:
// it is discarded, and the directory table is left exactly as the
// pre-crash namespace had it. A journal-clean (all-zero commit sector)
// disk takes no writes at all. Requires the bitmap to already be loaded
// into bmbuf: applyRec keeps the used-slot bitmap in sync through it.
func (fs *FS) replayJournal(t *core.Thread, sb, priv mem.Addr) bool {
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	jbuf, _ := t.ReadU64(fs.pvField(priv, "jbuf"))
	if ret, err := fs.gDmReadSectors.Call(t, dev, JournalStart, jbuf, blockdev.SectorSize); err != nil || kernel.IsErr(ret) {
		return false
	}
	commit, err := t.ReadBytes(mem.Addr(jbuf), blockdev.SectorSize)
	if err != nil {
		return false
	}
	allZero := true
	for _, b := range commit {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return true
	}
	txid := getU64(commit, cTxid)
	count := getU64(commit, cCount)
	valid := getU64(commit, cMagic) == jCommitMagic &&
		getU64(commit, cSum) == fnv1a(commit[:cSum]) &&
		count >= 1 && count <= JournalSlots
	if valid {
		recs := make([]jrec, 0, count)
		for i := uint64(0); i < count; i++ {
			if ret, err := fs.gDmReadSectors.Call(t, dev, JournalStart+1+i, jbuf, blockdev.SectorSize); err != nil || kernel.IsErr(ret) {
				return false
			}
			img, err := t.ReadBytes(mem.Addr(jbuf), blockdev.SectorSize)
			if err != nil {
				return false
			}
			r, ok := decodeIntent(img, txid, i)
			if !ok || r.slot >= MaxSlots {
				// A committed transaction with a bad intent is corruption,
				// not a torn write; discard rather than half-apply.
				valid = false
				break
			}
			recs = append(recs, r)
		}
		if valid {
			for _, r := range recs {
				if !fs.applyRec(t, sb, priv, r) {
					return false
				}
			}
			if t.WriteU64(fs.pvField(priv, "txid"), txid) != nil {
				return false
			}
		}
	}
	// Checkpoint (or discard the torn/corrupt transaction): zero the
	// commit sector so the journal is clean for the next mount.
	var clean sector
	return fs.jwriteSector(t, sb, priv, JournalStart, clean[:])
}

// recoverNamespace rebuilds the directory tree from the on-disk
// directory table: first journal replay settles any in-flight
// transaction, then one inode per extent in use (records are grouped by
// target, so hardlinked entries share an inode and nlink counts the
// group), then one in-memory dirent per record once every parent inode
// exists. The free-slot bookkeeping is reconstructed from the used
// bits, so slot allocation continues where the previous mount stopped.
//
// Only slots the used-slot bitmap marks live are read — recovery costs
// O(live records), not O(MaxSlots). A set bit whose record is dead (the
// crash window between bitmap and record writes inside an apply, always
// under a still-standing commit sector that replay has just finished)
// is skipped and the slot freed.
func (fs *FS) recoverNamespace(t *core.Thread, sb, priv mem.Addr) bool {
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	buf, _ := t.ReadU64(fs.pvField(priv, "recbuf"))
	bmbuf, _ := t.ReadU64(fs.pvField(priv, "bmbuf"))
	root, _ := t.ReadU64(fs.pvField(priv, "root"))

	// The bitmap must be resident before replay: applyRec maintains the
	// used-slot bits through the in-memory copy.
	if ret, err := fs.gDmReadSectors.Call(t, dev, BitmapStart, bmbuf, blockdev.SectorSize); err != nil || kernel.IsErr(ret) {
		return false
	}
	if !fs.replayJournal(t, sb, priv) {
		return false
	}
	bitmap, err := t.ReadBytes(mem.Addr(bmbuf), MaxSlots/8)
	if err != nil {
		return false
	}

	type rec struct {
		parent, mode, size, target uint64
		name                       []byte
	}
	// Every pass below ranges over slots or targets in ascending order,
	// never over a map, so one disk always mounts to the same list order
	// and inode creation order.
	recs := make(map[uint64]*rec)
	var slots []uint64 // the keys of recs, ascending
	for slot := uint64(0); slot < MaxSlots; slot++ {
		if bitmap[slot/8]&(1<<(slot%8)) == 0 {
			continue
		}
		ret, err := fs.gDmReadSectors.Call(t, dev, DirTabStart+slot, buf, RecSize)
		if err != nil || kernel.IsErr(ret) {
			return false
		}
		raw, err := t.ReadBytes(mem.Addr(buf), RecSize)
		if err != nil {
			return false
		}
		if getU64(raw, recUsed) != 1 {
			// Stale bit over a dead record (torn apply the replay above
			// has already settled): skip, the slot is reclaimed by the
			// post-recovery free pass.
			continue
		}
		name := raw[recName : recName+vfs.NameMax+1]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		target := getU64(raw, recTarget)
		if target >= MaxSlots {
			continue
		}
		recs[slot] = &rec{parent: getU64(raw, recParent), mode: getU64(raw, recMode),
			size: getU64(raw, recSize), target: target,
			name: append([]byte{}, name...)}
		slots = append(slots, slot)
	}

	// Reachability from the root, BFS over parent links: a record whose
	// parent chain is broken (parent record gone or not a directory) or
	// cyclic — possible on a corrupted table — is an orphan. Orphans are
	// dropped entirely: no inode, no dirent, and their slots become
	// reusable, so the dead records are overwritten on reuse rather than
	// resurrected as ghosts on every future mount. (Their bitmap bits
	// stay set until reuse — clearing them would cost a clean mount its
	// read-only path — so a dropped record costs one extra sector read
	// per mount until its slot is recycled.) Parent links name the
	// parent directory's extent slot, i.e. its record's target.
	children := make(map[uint64][]uint64)
	for _, slot := range slots {
		children[recs[slot].parent] = append(children[recs[slot].parent], slot)
	}
	reachable := make(map[uint64]bool)
	queue := append([]uint64{}, children[RootSlot]...)
	for len(queue) > 0 {
		slot := queue[0]
		queue = queue[1:]
		if reachable[slot] {
			continue
		}
		reachable[slot] = true
		if recs[slot].mode == vfs.ModeDir {
			queue = append(queue, children[recs[slot].target]...)
		}
	}

	// Group reachable records by target extent: hardlinked entries are
	// several records over one extent and must share one inode.
	groups := make(map[uint64][]uint64)
	var targets []uint64 // the keys of groups, ascending
	for _, slot := range slots {
		if !reachable[slot] {
			continue
		}
		target := recs[slot].target
		if _, ok := groups[target]; !ok {
			targets = append(targets, target)
		}
		groups[target] = append(groups[target], slot)
	}
	slices.Sort(targets)
	inoByTarget := make(map[uint64]uint64)

	// bail releases everything a partial recovery allocated: the dirent
	// list is unlinked and freed, the chain heads are cleared, every
	// inode created so far is iput. mount's own error branch then frees
	// priv/stack/buffers/table/root.
	bail := func() bool {
		cur, _ := t.ReadU64(fs.pvField(priv, "head"))
		for cur != 0 {
			next, _ := t.ReadU64(fs.deField(mem.Addr(cur), "next"))
			_, _ = fs.gKfree.Call(t, cur)
			cur = next
		}
		_ = t.WriteU64(fs.pvField(priv, "head"), 0)
		index, _ := t.ReadU64(fs.pvField(priv, "index"))
		_ = t.Zero(mem.Addr(index), 8*2*Buckets)
		for _, target := range targets {
			if ino, ok := inoByTarget[target]; ok {
				_, _ = fs.gIput.Call(t, ino)
			}
		}
		return false
	}

	// Pass 1: an inode per extent in use. nlink counts the records of
	// the group; the size is the freshest any record saw. writepage
	// folds the size into every link whose cached size lags, so the
	// records of a group lag only after a failed or torn apply — the max
	// is the one persisted last.
	maxUsed := int64(-1)
	for _, target := range targets {
		group := groups[target]
		ino, err := fs.gIget.Call(t, uint64(sb))
		if err != nil || ino == 0 {
			return bail()
		}
		inoByTarget[target] = ino
		mode := recs[group[0]].mode
		size := uint64(0)
		for _, s := range group {
			if recs[s].size > size {
				size = recs[s].size
			}
		}
		nlink := uint64(len(group))
		if mode == vfs.ModeDir {
			nlink = 2
		}
		if t.WriteU64(fs.V.InodeField(mem.Addr(ino), "mode"), mode) != nil ||
			t.WriteU64(fs.V.InodeField(mem.Addr(ino), "nlink"), nlink) != nil ||
			t.WriteU64(fs.V.InodeField(mem.Addr(ino), "size"), size) != nil ||
			t.WriteU64(fs.V.InodeField(mem.Addr(ino), "private"), target) != nil {
			return bail()
		}
		if int64(target) > maxUsed {
			maxUsed = int64(target)
		}
		for _, s := range group {
			if int64(s) > maxUsed {
				maxUsed = int64(s)
			}
		}
	}

	// Pass 2: the directory entries, now that every parent inode exists.
	// addDirent also hangs each on its name and inode chains.
	for _, slot := range slots {
		if !reachable[slot] {
			continue
		}
		r := recs[slot]
		parent := root
		if r.parent != RootSlot {
			parent = inoByTarget[r.parent]
		}
		if fs.addDirent(t, priv, parent, inoByTarget[r.target], r.name, r.size, slot) == 0 {
			return bail()
		}
	}

	// Slot bookkeeping: allocation resumes after the highest slot in use
	// (record or target); every other slot below it is reusable.
	inUse := func(slot uint64) bool {
		if reachable[slot] {
			return true
		}
		_, live := groups[slot]
		return live
	}
	next := uint64(maxUsed + 1)
	if t.WriteU64(fs.pvField(priv, "nextslot"), next) != nil {
		return false
	}
	for slot := uint64(0); slot < next; slot++ {
		if !inUse(slot) {
			fs.freeSlot(t, priv, slot)
		}
	}
	return true
}

func (fs *FS) killSB(t *core.Thread, args []uint64) uint64 {
	sb := mem.Addr(args[0])
	priv := fs.priv(t, sb)
	if priv == 0 {
		return 0
	}
	cur, _ := t.ReadU64(fs.pvField(priv, "head"))
	// Hardlinked inodes appear under several entries but must be
	// released exactly once.
	seen := make(map[uint64]bool)
	for cur != 0 {
		next, _ := t.ReadU64(fs.deField(mem.Addr(cur), "next"))
		ino, _ := t.ReadU64(fs.deField(mem.Addr(cur), "inode"))
		if !seen[ino] {
			seen[ino] = true
			_, _ = fs.gIput.Call(t, ino)
		}
		_, _ = fs.gKfree.Call(t, cur)
		cur = next
	}
	root, _ := t.ReadU64(fs.pvField(priv, "root"))
	_, _ = fs.gIput.Call(t, root)
	for _, f := range []string{"freestack", "recbuf", "bmbuf", "jbuf", "index"} {
		buf, _ := t.ReadU64(fs.pvField(priv, f))
		_, _ = fs.gKfree.Call(t, buf)
	}
	_, _ = fs.gKfree.Call(t, uint64(priv))
	return 0
}

// allocSlot hands out an extent slot: a previously freed one if any,
// else the next never-used one. Returns MaxSlots when the disk is full —
// slots are never aliased while their file is alive.
func (fs *FS) allocSlot(t *core.Thread, priv mem.Addr) uint64 {
	fc, _ := t.ReadU64(fs.pvField(priv, "freecount"))
	if fc > 0 {
		stack, _ := t.ReadU64(fs.pvField(priv, "freestack"))
		slot, _ := t.ReadU64(mem.Addr(stack) + mem.Addr(8*(fc-1)))
		if t.WriteU64(fs.pvField(priv, "freecount"), fc-1) != nil {
			return MaxSlots
		}
		return slot
	}
	next, _ := t.ReadU64(fs.pvField(priv, "nextslot"))
	if next >= MaxSlots {
		return MaxSlots
	}
	if t.WriteU64(fs.pvField(priv, "nextslot"), next+1) != nil {
		return MaxSlots
	}
	return next
}

// freeSlot returns an extent slot to the free stack on unlink.
func (fs *FS) freeSlot(t *core.Thread, priv mem.Addr, slot uint64) {
	fc, _ := t.ReadU64(fs.pvField(priv, "freecount"))
	stack, _ := t.ReadU64(fs.pvField(priv, "freestack"))
	if fc >= MaxSlots {
		return
	}
	if t.WriteU64(mem.Addr(stack)+mem.Addr(8*fc), slot) == nil {
		_ = t.WriteU64(fs.pvField(priv, "freecount"), fc+1)
	}
}

func (fs *FS) createFn(t *core.Thread, args []uint64) uint64 {
	sb, dir, name, nlen, mode := mem.Addr(args[0]), args[1], mem.Addr(args[2]), args[3], args[4]
	if nlen > vfs.NameMax {
		return 0
	}
	priv := fs.priv(t, sb)
	slot := fs.allocSlot(t, priv)
	if slot >= MaxSlots {
		return 0 // out of extent slots: ENOSPC
	}
	ino, err := fs.gIget.Call(t, uint64(sb))
	if err != nil || ino == 0 {
		fs.freeSlot(t, priv, slot)
		return 0
	}
	nlink := uint64(1)
	if mode == vfs.ModeDir {
		nlink = 2
	}
	var nb nameBuf
	nameBytes, err := readName(t, name, nlen, &nb)
	if err != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(ino), "mode"), mode) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(ino), "nlink"), nlink) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(ino), "private"), slot) != nil {
		fs.freeSlot(t, priv, slot)
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	// Journal the record before linking the entry: a crash between the
	// two leaves a committed record a future mount recovers, never a
	// file that silently vanishes.
	if !fs.commitTxn(t, sb, priv, []jrec{{slot: slot, used: 1,
		parent: fs.parentSlot(t, priv, dir), mode: mode, target: slot, name: nameBytes}}) {
		fs.freeSlot(t, priv, slot)
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	if fs.addDirent(t, priv, dir, ino, nameBytes, 0, slot) == 0 {
		_ = fs.commitTxn(t, sb, priv, []jrec{{slot: slot, used: 0}})
		fs.freeSlot(t, priv, slot)
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	return ino
}

func (fs *FS) lookup(t *core.Thread, args []uint64) uint64 {
	sb, dir, name, nlen := mem.Addr(args[0]), args[1], mem.Addr(args[2]), args[3]
	if nlen > vfs.NameMax {
		return 0
	}
	var nb nameBuf
	nameBytes, err := readName(t, name, nlen, &nb)
	if err != nil {
		return 0
	}
	de := fs.entryByName(t, fs.priv(t, sb), dir, nameBytes)
	if de == 0 {
		return 0
	}
	ino, _ := t.ReadU64(fs.deField(de, "inode"))
	return ino
}

// readdir returns the pos-th entry of dir (its inode address), writing
// the name into the kernel's lent buffer.
func (fs *FS) readdir(t *core.Thread, args []uint64) uint64 {
	sb, dir, pos, buf := mem.Addr(args[0]), args[1], args[2], mem.Addr(args[3])
	priv := fs.priv(t, sb)
	cur, _ := t.ReadU64(fs.pvField(priv, "head"))
	seen := uint64(0)
	for cur != 0 {
		d, _ := t.ReadU64(fs.deField(mem.Addr(cur), "dir"))
		if d == dir {
			if seen == pos {
				name, err := t.ReadBytes(fs.deField(mem.Addr(cur), "name"), vfs.NameMax+1)
				if err != nil || t.Write(buf, name) != nil {
					return 0
				}
				ino, _ := t.ReadU64(fs.deField(mem.Addr(cur), "inode"))
				return ino
			}
			seen++
		}
		cur, _ = t.ReadU64(fs.deField(mem.Addr(cur), "next"))
	}
	return 0
}

// rename relinks the entry in memory and journals its directory-table
// record rewrite (new parent, new name). A non-zero victim is the inode
// the move replaces: its record kill rides in the same transaction, so
// the disk never holds two live (parent, name) records — the crash
// window the old rename-then-unlink sequence left open.
func (fs *FS) rename(t *core.Thread, args []uint64) uint64 {
	sb, olddir, inode, newdir, name, nlen, victim := mem.Addr(args[0]), args[1], args[2], args[3], mem.Addr(args[4]), args[5], args[6]
	if nlen > vfs.NameMax {
		return kernel.Err(kernel.EINVAL)
	}
	priv := fs.priv(t, sb)
	de := fs.entryByInode(t, priv, olddir, inode)
	if de == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	var nb nameBuf
	nameBytes, err := readName(t, name, nlen, &nb)
	if err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	slot, _ := t.ReadU64(fs.deField(de, "slot"))
	target, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "private"))
	mode, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "mode"))
	size, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "size"))
	txn := [2]jrec{{slot: slot, used: 1, parent: fs.parentSlot(t, priv, newdir),
		mode: mode, size: size, target: target, name: nameBytes}}
	recs := 1
	var vde mem.Addr
	if victim != 0 {
		vde = fs.entryByInode(t, priv, newdir, victim)
		if vde == 0 {
			return kernel.Err(kernel.ENOENT)
		}
		vslot, _ := t.ReadU64(fs.deField(vde, "slot"))
		txn[1] = jrec{slot: vslot, used: 0}
		recs = 2
	}
	if !fs.commitTxn(t, sb, priv, txn[:recs]) {
		return kernel.Err(kernel.EIO)
	}
	if fs.renameDirent(t, priv, de, newdir, size, nameBytes) != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if victim != 0 {
		return fs.removeLinkMem(t, priv, vde, victim)
	}
	return 0
}

// exchange atomically swaps two directory entries: each record takes
// the other's (parent, name), journaled as one transaction so a crash
// lands on either both swapped or neither.
func (fs *FS) exchange(t *core.Thread, args []uint64) uint64 {
	sb, dira, inoa, dirb, inob := mem.Addr(args[0]), args[1], args[2], args[3], args[4]
	priv := fs.priv(t, sb)
	dea := fs.entryByInode(t, priv, dira, inoa)
	deb := fs.entryByInode(t, priv, dirb, inob)
	if dea == 0 || deb == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	var nba, nbb nameBuf
	namea, erra := fs.direntName(t, dea, &nba)
	nameb, errb := fs.direntName(t, deb, &nbb)
	if erra != nil || errb != nil {
		return kernel.Err(kernel.EFAULT)
	}
	slota, _ := t.ReadU64(fs.deField(dea, "slot"))
	slotb, _ := t.ReadU64(fs.deField(deb, "slot"))
	ta, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inoa), "private"))
	tb, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inob), "private"))
	ma, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inoa), "mode"))
	mb, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inob), "mode"))
	sza, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inoa), "size"))
	szb, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inob), "size"))
	pa := fs.parentSlot(t, priv, dira)
	pb := fs.parentSlot(t, priv, dirb)
	txn := []jrec{
		{slot: slota, used: 1, parent: pb, mode: ma, size: sza, target: ta, name: nameb},
		{slot: slotb, used: 1, parent: pa, mode: mb, size: szb, target: tb, name: namea},
	}
	if !fs.commitTxn(t, sb, priv, txn) {
		return kernel.Err(kernel.EIO)
	}
	if fs.renameDirent(t, priv, dea, dirb, sza, nameb) != nil ||
		fs.renameDirent(t, priv, deb, dira, szb, namea) != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// link adds a second directory entry over an existing inode's extent:
// a fresh record slot whose target is the shared extent. nlink is the
// number of live records targeting the extent, so recovery recounts it
// from the table.
func (fs *FS) link(t *core.Thread, args []uint64) uint64 {
	sb, dir, inode, name, nlen := mem.Addr(args[0]), args[1], args[2], mem.Addr(args[3]), args[4]
	if nlen > vfs.NameMax {
		return kernel.Err(kernel.EINVAL)
	}
	priv := fs.priv(t, sb)
	slot := fs.allocSlot(t, priv)
	if slot >= MaxSlots {
		return kernel.Err(kernel.ENOSPC)
	}
	var nb nameBuf
	nameBytes, err := readName(t, name, nlen, &nb)
	if err != nil {
		fs.freeSlot(t, priv, slot)
		return kernel.Err(kernel.EFAULT)
	}
	target, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "private"))
	mode, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "mode"))
	size, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "size"))
	if !fs.commitTxn(t, sb, priv, []jrec{{slot: slot, used: 1,
		parent: fs.parentSlot(t, priv, dir), mode: mode, size: size, target: target, name: nameBytes}}) {
		fs.freeSlot(t, priv, slot)
		return kernel.Err(kernel.EIO)
	}
	if fs.addDirent(t, priv, dir, inode, nameBytes, size, slot) == 0 {
		_ = fs.commitTxn(t, sb, priv, []jrec{{slot: slot, used: 0}})
		fs.freeSlot(t, priv, slot)
		return kernel.Err(kernel.ENOMEM)
	}
	nlink, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "nlink"))
	if t.WriteU64(fs.V.InodeField(mem.Addr(inode), "nlink"), nlink+1) != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// removeLinkMem tears down the in-memory side of a dead directory
// entry whose on-disk record kill has already committed: take the
// dirent off the list and both chains, reclaim slots, and release the
// inode when its last link died. The record slot is freed unless it
// doubles as the extent slot of a still-linked inode; the extent slot
// is freed only with the last link.
func (fs *FS) removeLinkMem(t *core.Thread, priv, de mem.Addr, inode uint64) uint64 {
	slot, _ := t.ReadU64(fs.deField(de, "slot"))
	target, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "private"))
	mode, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "mode"))
	nlink, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "nlink"))
	if err := fs.unlinkDirent(t, priv, de); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if _, err := fs.gKfree.Call(t, uint64(de)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if mode != vfs.ModeDir && nlink > 1 {
		if slot != target {
			fs.freeSlot(t, priv, slot)
		}
		if err := t.WriteU64(fs.V.InodeField(mem.Addr(inode), "nlink"), nlink-1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	fs.freeSlot(t, priv, slot)
	if target != slot {
		fs.freeSlot(t, priv, target)
	}
	if _, err := fs.gIput.Call(t, inode); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (fs *FS) unlink(t *core.Thread, args []uint64) uint64 {
	sb, dir, inode := mem.Addr(args[0]), args[1], args[2]
	priv := fs.priv(t, sb)
	de := fs.entryByInode(t, priv, dir, inode)
	if de == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	// Journal the record kill first: better a crash that forgets an
	// unlink was in flight than one that resurrects a half-removed file.
	slot, _ := t.ReadU64(fs.deField(de, "slot"))
	if !fs.commitTxn(t, sb, priv, []jrec{{slot: slot, used: 0}}) {
		return kernel.Err(kernel.EIO)
	}
	return fs.removeLinkMem(t, priv, de, inode)
}

// extent returns the first sector of (inode, page idx).
func (fs *FS) extent(t *core.Thread, ino mem.Addr, idx uint64) uint64 {
	slot, _ := t.ReadU64(fs.V.InodeField(ino, "private"))
	return slot*SectorsPerFile + idx*SectorsPerPage
}

// readpage pulls the page's sectors from the backing disk. The
// destination is the page-cache page whose WRITE capability the VFS
// transferred for exactly this call. Bytes beyond the inode's logical
// size are zeroed rather than read: extent slots are recycled across
// file lifetimes, and a new file must never see a dead file's sectors.
func (fs *FS) readpage(t *core.Thread, args []uint64) uint64 {
	sb, ino, idx, page := mem.Addr(args[0]), mem.Addr(args[1]), args[2], args[3]
	if idx >= MaxFilePages {
		return kernel.Err(kernel.ENOSPC)
	}
	size, _ := t.ReadU64(fs.V.InodeField(ino, "size"))
	start := idx * mem.PageSize
	if start >= size {
		// Wholly past EOF: a hole, not a disk read.
		if err := t.Zero(mem.Addr(page), mem.PageSize); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	ret, err := fs.gDmReadSectors.Call(t, dev, fs.extent(t, ino, idx), page, mem.PageSize)
	if err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EIO)
	}
	if valid := size - start; valid < mem.PageSize {
		if err := t.Zero(mem.Addr(page)+mem.Addr(valid), mem.PageSize-valid); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

// writepage persists the clean page; the REF(struct page) capability
// received from the writepage contract is what pc_writeback checks. The
// inode's current size is folded into the directory-table record so a
// remount recovers it. When CmdTamper has armed the compromise, the
// module first scribbles on the page it was asked to persist — a write
// its REF capability does not permit, so LXFI stops it; the stock
// kernel lets the corruption reach the disk.
func (fs *FS) writepage(t *core.Thread, args []uint64) uint64 {
	sb, ino, idx, page := mem.Addr(args[0]), mem.Addr(args[1]), args[2], args[3]
	if idx >= MaxFilePages {
		return kernel.Err(kernel.ENOSPC)
	}
	priv := fs.priv(t, sb)
	if tamper, _ := t.ReadU64(fs.pvField(priv, "tamper")); tamper != 0 {
		if err := t.WriteU64(mem.Addr(page), TamperValue); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	dev, _ := t.ReadU64(fs.V.SBField(sb, "dev"))
	ret, err := fs.gPcWriteback.Call(t, dev, fs.extent(t, ino, idx), page)
	if err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EIO)
	}
	// Fold the size into every record of the inode's link group — but
	// only the records whose persisted size lags (the dirent caches it),
	// so a multi-page sync rewrites each record once, not once per page.
	// All links must carry the size: any of them can be the survivor of
	// a later unlink, and recovery takes the freshest size it finds. The
	// links are the entries for ino on its inode chain; a missing entry
	// (concurrent unlink) just skips the update.
	size, _ := t.ReadU64(fs.V.InodeField(ino, "size"))
	target, _ := t.ReadU64(fs.V.InodeField(ino, "private"))
	mode, _ := t.ReadU64(fs.V.InodeField(ino, "mode"))
	cur, _ := t.ReadU64(fs.inodeChain(t, priv, uint64(ino)))
	for cur != 0 {
		de := mem.Addr(cur)
		cur, _ = t.ReadU64(fs.deField(de, "inext"))
		if got, _ := t.ReadU64(fs.deField(de, "inode")); got != uint64(ino) {
			continue
		}
		if cached, _ := t.ReadU64(fs.deField(de, "recsize")); cached == size {
			continue
		}
		dir, _ := t.ReadU64(fs.deField(de, "dir"))
		var nb nameBuf
		name, err := fs.direntName(t, de, &nb)
		if err != nil {
			continue
		}
		slot, _ := t.ReadU64(fs.deField(de, "slot"))
		// A same-slot size refresh is a single-sector overwrite — atomic
		// at the disk's write granularity, so it skips the journal and
		// goes straight to the directory table.
		if fs.applyRec(t, sb, priv, jrec{slot: slot, used: 1,
			parent: fs.parentSlot(t, priv, dir), mode: mode, size: size,
			target: target, name: name}) {
			_ = t.WriteU64(fs.deField(de, "recsize"), size)
		}
	}
	return 0
}

// ioctl carries the deliberate compromise vectors: CmdTamper arms the
// corrupted writepage, CmdPokeDisk aims a raw sector write at an
// attacker-chosen device.
func (fs *FS) ioctl(t *core.Thread, args []uint64) uint64 {
	sb, cmd, arg := mem.Addr(args[0]), args[1], args[2]
	switch cmd {
	case CmdTamper:
		priv := fs.priv(t, sb)
		if err := t.WriteU64(fs.pvField(priv, "tamper"), 1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	case CmdPokeDisk:
		priv := fs.priv(t, sb)
		buf, _ := t.ReadU64(fs.pvField(priv, "recbuf"))
		if err := t.WriteU64(mem.Addr(buf), TamperValue); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		ret, err := fs.gDmWriteSectors.Call(t, arg, 0, buf, RecSize)
		if err != nil || kernel.IsErr(ret) {
			return kernel.Err(kernel.EIO)
		}
		return 0
	}
	return kernel.Err(kernel.EINVAL)
}
