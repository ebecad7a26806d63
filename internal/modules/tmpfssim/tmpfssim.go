// Package tmpfssim is a simulated ramfs/tmpfs-style filesystem module:
// file data lives only in the kernel's page cache (readpage fills holes
// with zeroes, writepage has nothing to persist) and directory entries
// live in module-owned memory.
//
// Every mount runs as its own LXFI instance principal (named by the
// superblock), so two tmpfs mounts cannot touch each other's inodes,
// directory lists, or cached pages.
//
// Like the CVE-carrying modules of Fig. 9, the module ships a deliberate
// compromise vector: the CmdPoke ioctl performs an arbitrary 8-byte
// kernel write on behalf of the caller — the stand-in for a hijacked
// control path inside a compromised filesystem module. Under LXFI the
// poke is confined to memory the mount's principal owns; the
// cross-principal page-cache scribble it enables on the stock kernel is
// the new exploit scenario in internal/exploits.
package tmpfssim

import (
	"bytes"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/vfs"
)

// FsID is the filesystem id tmpfssim registers.
const FsID = 1

// CmdPoke is the compromised ioctl: write PokeValue at the address in
// arg.
const CmdPoke = 0x7001

// PokeValue is the marker the poke writes.
const PokeValue = 0x4141414141414141

// CmdReplay is the second compromise vector: re-issue the module's most
// recent readpage store (the exact same address and size). During the
// readpage crossing that store was legitimate — the kernel had
// transferred WRITE on the page — and it warmed the executing thread's
// check cache with an allow verdict. Replaying it after the crossing
// returned (and the transfer-back revoked the capability) is the
// cached-then-revoked attack the capability epoch exists to stop.
const CmdReplay = 0x7002

// Layout names.
const (
	Dirent = "struct tmpfs_dirent"
	SbInfo = "struct tmpfs_sb_info"
)

// FS is the loaded tmpfssim module.
type FS struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gRegisterFilesystem *core.Gate
	gIget               *core.Gate
	gIput               *core.Gate
	gKmalloc            *core.Gate
	gKfree              *core.Gate
	K                   *kernel.Kernel
	V                   *vfs.VFS

	deLay   *layout.Struct
	privLay *layout.Struct

	// lastPage remembers the most recent readpage target for CmdReplay
	// (module-local Go state, the analogue of a stashed pointer in the
	// module's data section).
	lastPage mem.Addr
}

// Load loads the module and runs its init function, which installs the
// fs_operations table and registers the filesystem.
func Load(t *core.Thread, k *kernel.Kernel, v *vfs.VFS) (*FS, error) {
	fs := &FS{K: k, V: v}
	fs.deLay = defineOnce(k, Dirent,
		layout.F("next", 8),
		layout.F("dir", 8),
		layout.F("inode", 8),
		layout.F("name", vfs.NameMax+1),
	)
	fs.privLay = defineOnce(k, SbInfo,
		layout.F("head", 8),
		layout.F("root", 8),
	)

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "tmpfssim",
		Imports:  []string{"register_filesystem", "iget", "iput", "kmalloc", "kfree", "printk"},
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

func (e *initError) Error() string { return "tmpfssim: init failed" }
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

func (fs *FS) mount(t *core.Thread, args []uint64) uint64 {
	sb := mem.Addr(args[0])
	priv, err := fs.gKmalloc.Call(t, fs.privLay.Size)
	if err != nil || priv == 0 {
		return 0
	}
	root, err := fs.gIget.Call(t, uint64(sb))
	if err != nil || root == 0 {
		_, _ = fs.gKfree.Call(t, priv)
		return 0
	}
	if t.WriteU64(fs.V.InodeField(mem.Addr(root), "mode"), vfs.ModeDir) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(root), "nlink"), 2) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "head"), 0) != nil ||
		t.WriteU64(fs.pvField(mem.Addr(priv), "root"), root) != nil ||
		t.WriteU64(fs.V.SBField(sb, "private"), priv) != nil ||
		// Page cache is the only copy of tmpfs data: tell the VFS never
		// to evict this mount.
		t.WriteU64(fs.V.SBField(sb, "flags"), vfs.SBMemOnly) != nil {
		_, _ = fs.gIput.Call(t, root)
		_, _ = fs.gKfree.Call(t, priv)
		return 0
	}
	return root
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
	_, _ = fs.gKfree.Call(t, uint64(priv))
	return 0
}

// createFn allocates the inode and prepends a directory entry to the
// mount-private list. Both objects are owned by this mount's instance
// principal: the entry via the kmalloc transfer, the inode via iget's.
func (fs *FS) createFn(t *core.Thread, args []uint64) uint64 {
	sb, dir, name, nlen, mode := mem.Addr(args[0]), args[1], mem.Addr(args[2]), args[3], args[4]
	if nlen > vfs.NameMax {
		return 0
	}
	ino, err := fs.gIget.Call(t, uint64(sb))
	if err != nil || ino == 0 {
		return 0
	}
	nlink := uint64(1)
	if mode == vfs.ModeDir {
		nlink = 2
	}
	if t.WriteU64(fs.V.InodeField(mem.Addr(ino), "mode"), mode) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(ino), "nlink"), nlink) != nil {
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	de, err := fs.gKmalloc.Call(t, fs.deLay.Size)
	if err != nil || de == 0 {
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	priv := fs.priv(t, sb)
	head, _ := t.ReadU64(fs.pvField(priv, "head"))
	nameBytes, err := t.ReadBytes(name, nlen)
	if err != nil ||
		t.WriteU64(fs.deField(mem.Addr(de), "next"), head) != nil ||
		t.WriteU64(fs.deField(mem.Addr(de), "dir"), dir) != nil ||
		t.WriteU64(fs.deField(mem.Addr(de), "inode"), ino) != nil ||
		t.Write(fs.deField(mem.Addr(de), "name"), append(nameBytes, 0)) != nil ||
		t.WriteU64(fs.pvField(priv, "head"), de) != nil {
		_, _ = fs.gKfree.Call(t, de)
		_, _ = fs.gIput.Call(t, ino)
		return 0
	}
	return ino
}

// findEntry walks the directory list for (dir, name); name == nil
// matches on inode instead.
func (fs *FS) findEntry(t *core.Thread, sb mem.Addr, dir uint64, name []byte, inode uint64) (entry, prev mem.Addr) {
	priv := fs.priv(t, sb)
	cur, _ := t.ReadU64(fs.pvField(priv, "head"))
	for cur != 0 {
		d, _ := t.ReadU64(fs.deField(mem.Addr(cur), "dir"))
		if d == dir {
			if name != nil {
				got, err := t.ReadBytes(fs.deField(mem.Addr(cur), "name"), uint64(len(name)+1))
				if err == nil && bytes.Equal(got[:len(name)], name) && got[len(name)] == 0 {
					return mem.Addr(cur), prev
				}
			} else {
				ino, _ := t.ReadU64(fs.deField(mem.Addr(cur), "inode"))
				if ino == inode {
					return mem.Addr(cur), prev
				}
			}
		}
		prev = mem.Addr(cur)
		cur, _ = t.ReadU64(fs.deField(mem.Addr(cur), "next"))
	}
	return 0, 0
}

func (fs *FS) lookup(t *core.Thread, args []uint64) uint64 {
	sb, dir, name, nlen := mem.Addr(args[0]), args[1], mem.Addr(args[2]), args[3]
	if nlen > vfs.NameMax {
		return 0
	}
	nameBytes, err := t.ReadBytes(name, nlen)
	if err != nil {
		return 0
	}
	de, _ := fs.findEntry(t, sb, dir, nameBytes, 0)
	if de == 0 {
		return 0
	}
	ino, _ := t.ReadU64(fs.deField(de, "inode"))
	return ino
}

// readdir returns the pos-th entry of dir: the entry's inode address,
// with its name written into the kernel's lent buffer (the module holds
// WRITE on it for exactly this call). Returns 0 past the end.
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

// rename relinks the directory entry of inode from olddir to newdir
// under a new name; the entry object itself stays where it is. A
// non-zero victim is the inode the move replaces: its entry is removed
// in the same crossing, so the kernel never sees a window with two
// (newdir, name) entries.
func (fs *FS) rename(t *core.Thread, args []uint64) uint64 {
	sb, olddir, inode, newdir, name, nlen, victim := mem.Addr(args[0]), args[1], args[2], args[3], mem.Addr(args[4]), args[5], args[6]
	if nlen > vfs.NameMax {
		return kernel.Err(kernel.EINVAL)
	}
	de, _ := fs.findEntry(t, sb, olddir, nil, inode)
	if de == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	if victim != 0 {
		if ret := fs.removeLink(t, sb, newdir, victim); kernel.IsErr(ret) {
			return ret
		}
	}
	nameBytes, err := t.ReadBytes(name, nlen)
	if err != nil ||
		t.WriteU64(fs.deField(de, "dir"), newdir) != nil ||
		t.Write(fs.deField(de, "name"), append(nameBytes, 0)) != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// exchange atomically swaps the directory entries of two inodes: each
// entry takes the other's (dir, name) slot.
func (fs *FS) exchange(t *core.Thread, args []uint64) uint64 {
	sb, dira, inoa, dirb, inob := mem.Addr(args[0]), args[1], args[2], args[3], args[4]
	dea, _ := fs.findEntry(t, sb, dira, nil, inoa)
	deb, _ := fs.findEntry(t, sb, dirb, nil, inob)
	if dea == 0 || deb == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	namea, erra := t.ReadBytes(fs.deField(dea, "name"), vfs.NameMax+1)
	nameb, errb := t.ReadBytes(fs.deField(deb, "name"), vfs.NameMax+1)
	if erra != nil || errb != nil ||
		t.WriteU64(fs.deField(dea, "dir"), dirb) != nil ||
		t.Write(fs.deField(dea, "name"), nameb) != nil ||
		t.WriteU64(fs.deField(deb, "dir"), dira) != nil ||
		t.Write(fs.deField(deb, "name"), namea) != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// link adds a second directory entry for an existing inode and bumps
// its link count; the entry does not take an extra inode reference, so
// removeLink only releases the inode when the last link dies.
func (fs *FS) link(t *core.Thread, args []uint64) uint64 {
	sb, dir, inode, name, nlen := mem.Addr(args[0]), args[1], args[2], mem.Addr(args[3]), args[4]
	if nlen > vfs.NameMax {
		return kernel.Err(kernel.EINVAL)
	}
	nameBytes, err := t.ReadBytes(name, nlen)
	if err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	de, err := fs.gKmalloc.Call(t, fs.deLay.Size)
	if err != nil || de == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	priv := fs.priv(t, sb)
	head, _ := t.ReadU64(fs.pvField(priv, "head"))
	nlink, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "nlink"))
	if t.WriteU64(fs.deField(mem.Addr(de), "next"), head) != nil ||
		t.WriteU64(fs.deField(mem.Addr(de), "dir"), dir) != nil ||
		t.WriteU64(fs.deField(mem.Addr(de), "inode"), inode) != nil ||
		t.Write(fs.deField(mem.Addr(de), "name"), append(nameBytes, 0)) != nil ||
		t.WriteU64(fs.pvField(priv, "head"), de) != nil ||
		t.WriteU64(fs.V.InodeField(mem.Addr(inode), "nlink"), nlink+1) != nil {
		_, _ = fs.gKfree.Call(t, de)
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// removeLink splices out the (dir, inode) entry and drops one link:
// the inode itself is released only when its last link disappears.
func (fs *FS) removeLink(t *core.Thread, sb mem.Addr, dir, inode uint64) uint64 {
	de, prev := fs.findEntry(t, sb, dir, nil, inode)
	if de == 0 {
		return kernel.Err(kernel.ENOENT)
	}
	next, _ := t.ReadU64(fs.deField(de, "next"))
	if prev == 0 {
		priv := fs.priv(t, sb)
		if err := t.WriteU64(fs.pvField(priv, "head"), next); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	} else if err := t.WriteU64(fs.deField(prev, "next"), next); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if _, err := fs.gKfree.Call(t, uint64(de)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	mode, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "mode"))
	nlink, _ := t.ReadU64(fs.V.InodeField(mem.Addr(inode), "nlink"))
	if mode != vfs.ModeDir && nlink > 1 {
		if err := t.WriteU64(fs.V.InodeField(mem.Addr(inode), "nlink"), nlink-1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	if _, err := fs.gIput.Call(t, inode); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (fs *FS) unlink(t *core.Thread, args []uint64) uint64 {
	sb, dir, inode := mem.Addr(args[0]), args[1], args[2]
	return fs.removeLink(t, sb, dir, inode)
}

// readpage fills page-cache holes with zeroes: tmpfs has no backing
// store, so any page not already cached is sparse.
func (fs *FS) readpage(t *core.Thread, args []uint64) uint64 {
	fs.lastPage = mem.Addr(args[3])
	if err := t.Zero(mem.Addr(args[3]), mem.PageSize); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// writepage has nothing to persist; the page cache is the backing store.
func (fs *FS) writepage(t *core.Thread, args []uint64) uint64 { return 0 }

// ioctl carries the deliberate compromise vector: CmdPoke writes
// PokeValue through an attacker-supplied pointer.
func (fs *FS) ioctl(t *core.Thread, args []uint64) uint64 {
	cmd, arg := args[1], args[2]
	if cmd == CmdPoke {
		if err := t.WriteU64(mem.Addr(arg), PokeValue); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	if cmd == CmdReplay {
		// Re-issue the exact store readpage made while it legitimately
		// owned the page: same principal, same address, same size — the
		// verdict for it is sitting in the thread's check cache.
		if fs.lastPage == 0 {
			return kernel.Err(kernel.EINVAL)
		}
		if err := t.Zero(fs.lastPage, mem.PageSize); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	return kernel.Err(kernel.EINVAL)
}
