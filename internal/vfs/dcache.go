package vfs

import (
	"fmt"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// dnode is the kernel's view of one cached dentry. The children map
// keyed by path component makes the dentry cache an M-way trie:
// resolution walks one node per component and only crosses into the
// filesystem module on a miss.
//
// dnodes hang off their mount's root and are only touched under that
// mount's lock.
type dnode struct {
	inode  mem.Addr
	parent *dnode // nil for a mount root
	name   string
	isDir  bool
	child  map[string]*dnode
}

// newDentry adds the trie node for name under parent (nil for a mount
// root). Caller holds the mount's lock (or exclusively owns a
// not-yet-published mount).
func (v *VFS) newDentry(parent *dnode, name string, inode mem.Addr) *dnode {
	mode, _ := v.K.Sys.AS.ReadU64(v.InodeField(inode, "mode"))
	n := &dnode{
		inode:  inode,
		parent: parent,
		name:   name,
		isDir:  mode == ModeDir || parent == nil,
		child:  make(map[string]*dnode),
	}
	if parent != nil {
		parent.child[name] = n
	}
	return n
}

// detach removes a non-root dentry from its parent's children.
func (n *dnode) detach() { delete(n.parent.child, n.name) }

// relink attaches a detached dentry (and implicitly its whole subtree)
// under a new parent and name.
func (n *dnode) relink(parent *dnode, name string) {
	n.parent, n.name = parent, name
	parent.child[name] = n
}

// visit calls fn on n and every cached dentry below it.
func (n *dnode) visit(fn func(*dnode)) {
	fn(n)
	for _, c := range n.child {
		c.visit(fn)
	}
}

// pushName copies one path component into the mount's kernel scratch
// buffer the module-facing calls pass names through. Each mount has its
// own buffer so concurrent lookups on different mounts cannot clobber
// each other's component mid-crossing.
func (v *VFS) pushName(mnt *mount, name string) error {
	if len(name) > NameMax {
		return fmt.Errorf("vfs: name %q too long", name)
	}
	return v.K.Sys.AS.WriteCString(mnt.nameBuf, name)
}

// childOf resolves one path component under cur: dentry cache first,
// module lookup on a miss. Returns nil (and no error) when the entry
// does not exist — the one authoritative "does this name exist" probe,
// so existence decisions never trust the cache alone (after a remount
// the cache is cold while the module's table is not).
func (v *VFS) childOf(t *core.Thread, mnt *mount, cur *dnode, comp string) (*dnode, error) {
	if c, ok := cur.child[comp]; ok {
		v.Stats.DcacheHits.Add(1)
		return c, nil
	}
	v.Stats.DcacheMiss.Add(1)
	if err := v.pushName(mnt, comp); err != nil {
		return nil, err
	}
	ret, err := v.gLookup.Call(t, v.OpsSlot(mnt.fs.ops, "lookup"),
		uint64(mnt.sb), uint64(cur.inode), uint64(mnt.nameBuf), uint64(len(comp)))
	if err != nil {
		return nil, err
	}
	if ret == 0 {
		return nil, nil
	}
	return v.newDentry(cur, comp, mem.Addr(ret)), nil
}

// walk resolves path on mnt through the dentry cache, calling the
// module's lookup on each miss. The final component's dnode is returned.
// Caller holds mnt.mu.
func (v *VFS) walk(t *core.Thread, mnt *mount, path string) (*dnode, error) {
	cur := mnt.root
	for _, comp := range splitPath(path) {
		if !cur.isDir {
			return nil, fmt.Errorf("vfs: %q: not a directory", cur.name)
		}
		next, err := v.childOf(t, mnt, cur, comp)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return nil, fmt.Errorf("vfs: %s: errno %d", comp, kernel.ENOENT)
		}
		cur = next
	}
	return cur, nil
}

// splitParent splits a path into its parent directory path and final
// component.
func splitParent(path string) (dir, name string, ok bool) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return "", "", false
	}
	for _, c := range comps[:len(comps)-1] {
		dir += "/" + c
	}
	return dir, comps[len(comps)-1], true
}

// dirNotEmpty reports whether a directory holds any entry — cached
// children first, then the module's table (which is authoritative: a
// recovered directory's children may never have been looked up).
func (v *VFS) dirNotEmpty(t *core.Thread, mnt *mount, n *dnode) (bool, error) {
	if len(n.child) > 0 {
		return true, nil
	}
	if !n.isDir {
		return false, nil
	}
	empty, err := v.dirEmpty(t, mnt, n.inode)
	return !empty, err
}

// Lookup resolves path to its inode address.
func (v *VFS) Lookup(t *core.Thread, sb mem.Addr, path string) (_ mem.Addr, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.lookup", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, path)
	if err != nil {
		return 0, err
	}
	return n.inode, nil
}

// create is the shared implementation of Create and Mkdir.
func (v *VFS) create(t *core.Thread, sb mem.Addr, path string, mode uint64) (_ mem.Addr, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.create", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, err
	}
	defer mnt.mu.Unlock()
	dirPath, name, ok := splitParent(path)
	if !ok {
		return 0, fmt.Errorf("vfs: cannot create %q", path)
	}
	dir, err := v.walk(t, mnt, dirPath)
	if err != nil {
		return 0, err
	}
	if existing, err := v.childOf(t, mnt, dir, name); err != nil {
		return 0, err
	} else if existing != nil {
		return 0, fmt.Errorf("vfs: %s: errno %d", name, kernel.EEXIST)
	}
	if err := v.pushName(mnt, name); err != nil {
		return 0, err
	}
	ret, err := v.gCreate.Call(t, v.OpsSlot(mnt.fs.ops, "create"),
		uint64(sb), uint64(dir.inode), uint64(mnt.nameBuf), uint64(len(name)), mode)
	if err != nil {
		return 0, err
	}
	if ret == 0 {
		return 0, fmt.Errorf("vfs: create %s failed", name)
	}
	v.newDentry(dir, name, mem.Addr(ret))
	v.Stats.Creates.Add(1)
	return mem.Addr(ret), nil
}

// Create makes a regular file and returns its inode address.
func (v *VFS) Create(t *core.Thread, sb mem.Addr, path string) (mem.Addr, error) {
	return v.create(t, sb, path, ModeFile)
}

// Mkdir makes a directory and returns its inode address.
func (v *VFS) Mkdir(t *core.Thread, sb mem.Addr, path string) (mem.Addr, error) {
	return v.create(t, sb, path, ModeDir)
}

// Unlink removes a file: the module's unlink callback releases the inode
// (via iput, dropping its page-cache pages), then the kernel drops the
// dentry.
func (v *VFS) Unlink(t *core.Thread, sb mem.Addr, path string) (rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.unlink", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, path)
	if err != nil {
		return err
	}
	if n.parent == nil {
		return fmt.Errorf("vfs: cannot unlink the root")
	}
	if notEmpty, err := v.dirNotEmpty(t, mnt, n); err != nil {
		return err
	} else if notEmpty {
		return fmt.Errorf("vfs: %s: directory not empty", n.name)
	}
	ret, err := v.gUnlink.Call(t, v.OpsSlot(mnt.fs.ops, "unlink"),
		uint64(sb), uint64(n.parent.inode), uint64(n.inode))
	if err != nil {
		return err
	}
	if kernel.IsErr(ret) {
		return fmt.Errorf("vfs: unlink %s: errno %d", n.name, -int64(ret))
	}
	n.detach()
	v.Stats.Unlinks.Add(1)
	return nil
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name string
	Ino  uint64 // inode number (the "ino" field, not the address)
	Mode uint64
}

// MaxDirEntries bounds a single directory enumeration. The module's
// readdir cursor is module-controlled; without a ceiling a compromised
// module that never returns "end" would spin the kernel thread forever.
const MaxDirEntries = 1 << 20

// dirEmpty asks the module whether dir has any entry at all (a readdir
// probe at position 0). The dentry cache cannot answer "empty": it only
// holds entries that were already looked up, and after a remount a
// recovered directory's children exist only in the module's table.
func (v *VFS) dirEmpty(t *core.Thread, mnt *mount, dir mem.Addr) (bool, error) {
	ret, err := v.gReaddir.Call(t, v.OpsSlot(mnt.fs.ops, "readdir"),
		uint64(mnt.sb), uint64(dir), 0, uint64(mnt.dirBuf))
	if err != nil {
		v.K.Sys.Caps.RevokeAll(caps.WriteCap(mnt.dirBuf, NameMax+1))
		return false, err
	}
	return ret == 0, nil
}

// Readdir enumerates a directory through the module's readdir callback:
// one checked crossing per entry, dir_context-style, with the mount's
// name buffer lent to the module (WRITE transfer out and back) for each.
// The dentry cache cannot answer this — it only holds what was already
// looked up — so enumeration always reflects the module's own table.
func (v *VFS) Readdir(t *core.Thread, sb mem.Addr, path string) (_ []DirEntry, rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.readdir", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return nil, err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, path)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("vfs: %q: not a directory", n.name)
	}
	as := v.K.Sys.AS
	var out []DirEntry
	for pos := uint64(0); ; pos++ {
		if pos >= MaxDirEntries {
			return nil, fmt.Errorf("vfs: readdir %s: module never ended the listing (errno %d)", path, kernel.EIO)
		}
		ret, err := v.gReaddir.Call(t, v.OpsSlot(mnt.fs.ops, "readdir"),
			uint64(sb), uint64(n.inode), pos, uint64(mnt.dirBuf))
		if err != nil {
			// Mirror the readpage failure path: an aborted crossing must
			// not leave the module holding WRITE on the kernel's buffer.
			v.K.Sys.Caps.RevokeAll(caps.WriteCap(mnt.dirBuf, NameMax+1))
			return nil, err
		}
		if ret == 0 {
			return out, nil
		}
		v.Stats.Readdirs.Add(1)
		name, err := as.ReadCString(mnt.dirBuf, NameMax+1)
		if err != nil {
			return nil, err
		}
		ino, _ := as.ReadU64(v.InodeField(mem.Addr(ret), "ino"))
		mode, _ := as.ReadU64(v.InodeField(mem.Addr(ret), "mode"))
		out = append(out, DirEntry{Name: name, Ino: ino, Mode: mode})
	}
}

// Rename flags (the renameat2(2) subset the substrate implements).
const (
	// RenameNoReplace fails with EEXIST when the destination exists
	// instead of replacing it.
	RenameNoReplace = 1 << 0
	// RenameExchange atomically swaps the two paths; both must exist.
	RenameExchange = 1 << 1
)

// Rename moves srcPath on srcSB to dstPath on dstSB; plain rename(2)
// semantics, i.e. RenameFlags with no flags.
func (v *VFS) Rename(t *core.Thread, srcSB mem.Addr, srcPath string, dstSB mem.Addr, dstPath string) error {
	return v.RenameFlags(t, srcSB, srcPath, dstSB, dstPath, 0)
}

// RenameFlags moves srcPath on srcSB to dstPath on dstSB. Both paths
// must be on the same mount (a cross-mount rename is EXDEV, as in Linux
// — the two superblocks are different principals and an inode cannot
// change owners by renaming). An existing target of the same kind is
// replaced, directories only when empty; the replaced target's inode is
// passed into the rename crossing as the victim, so the module commits
// the relink and the target's removal as one transaction — there is no
// second unlink crossing, hence no crash window between them. With
// RenameExchange the two entries swap positions instead; with
// RenameNoReplace an existing destination is EEXIST.
//
// Because cross-mount renames are rejected before any lock is taken,
// RenameFlags only ever holds one mount lock — no two-mount ordering
// issue.
func (v *VFS) RenameFlags(t *core.Thread, srcSB mem.Addr, srcPath string, dstSB mem.Addr, dstPath string, flags uint64) (rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.rename", rerr) }()
	if v.mountOf(srcSB) == nil {
		return fmt.Errorf("vfs: not a mounted superblock: %#x", uint64(srcSB))
	}
	if v.mountOf(dstSB) == nil {
		return fmt.Errorf("vfs: not a mounted superblock: %#x", uint64(dstSB))
	}
	if srcSB != dstSB {
		return fmt.Errorf("vfs: rename %s -> %s: errno %d (cross-mount)", srcPath, dstPath, kernel.EXDEV)
	}
	sb := srcSB
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, srcPath)
	if err != nil {
		return err
	}
	if n.parent == nil {
		return fmt.Errorf("vfs: cannot rename the root")
	}
	dstDirPath, newName, ok := splitParent(dstPath)
	if !ok {
		return fmt.Errorf("vfs: cannot rename to %q", dstPath)
	}
	dstDir, err := v.walk(t, mnt, dstDirPath)
	if err != nil {
		return err
	}
	if !dstDir.isDir {
		return fmt.Errorf("vfs: %q: not a directory", dstDir.name)
	}
	// Renaming a directory under itself would detach the subtree.
	for p := dstDir; p != nil; p = p.parent {
		if p == n {
			return fmt.Errorf("vfs: rename %s -> %s: errno %d (into own subtree)", srcPath, dstPath, kernel.EINVAL)
		}
	}
	// The per-mount capability re-check: the mount's instance principal
	// must own the inode being moved and both directory inodes. Under
	// enforcement a stale or foreign inode address fails here, before
	// any module state changes.
	oldDir := n.parent
	if mnt.fs.module != nil && v.K.Sys.Mon.Enforcing() {
		prin, ok := mnt.fs.module.Set.Lookup(sb)
		if !ok {
			return fmt.Errorf("vfs: no instance principal for mount %#x", uint64(sb))
		}
		for _, ino := range []mem.Addr{n.inode, oldDir.inode, dstDir.inode} {
			if !v.K.Sys.Caps.Check(prin, caps.WriteCap(ino, 1)) {
				return fmt.Errorf("vfs: rename %s: mount principal does not own inode %#x", srcPath, uint64(ino))
			}
		}
	}
	// Rename over an existing target: same-kind targets are replaced
	// (directories only when empty), mismatched kinds are rejected. The
	// existence probe goes through childOf — the module's table, not
	// just the cache, decides whether the name is taken.
	tgt, err := v.childOf(t, mnt, dstDir, newName)
	if err != nil {
		return err
	}
	if flags&RenameExchange != 0 {
		if tgt == nil {
			return fmt.Errorf("vfs: rename %s <-> %s: errno %d (no target to exchange)", srcPath, dstPath, kernel.ENOENT)
		}
		if tgt == n {
			return nil // exchange with itself
		}
		// The symmetric cycle check: the source may not move under the
		// target's subtree either.
		for p := oldDir; p != nil; p = p.parent {
			if p == tgt {
				return fmt.Errorf("vfs: rename %s <-> %s: errno %d (into own subtree)", srcPath, dstPath, kernel.EINVAL)
			}
		}
		if fp, _ := v.K.Sys.AS.ReadU64(v.OpsSlot(mnt.fs.ops, "exchange")); fp == 0 {
			return fmt.Errorf("vfs: rename %s <-> %s: errno %d", srcPath, dstPath, kernel.ENOSYS)
		}
		ret, err := v.gExchange.Call(t, v.OpsSlot(mnt.fs.ops, "exchange"),
			uint64(sb), uint64(oldDir.inode), uint64(n.inode),
			uint64(dstDir.inode), uint64(tgt.inode))
		if err != nil {
			return err
		}
		if kernel.IsErr(ret) {
			return fmt.Errorf("vfs: rename %s <-> %s: errno %d", srcPath, dstPath, -int64(ret))
		}
		// Swap the two dnodes: detach both from their parents first so
		// neither insertion can clobber the other's mapping.
		oldName := n.name
		n.detach()
		tgt.detach()
		n.relink(dstDir, newName)
		tgt.relink(oldDir, oldName)
		v.Stats.Renames.Add(1)
		v.Stats.Exchanges.Add(1)
		return nil
	}
	if tgt != nil {
		if tgt == n {
			return nil // rename to itself
		}
		if flags&RenameNoReplace != 0 {
			return fmt.Errorf("vfs: rename %s -> %s: errno %d", srcPath, dstPath, kernel.EEXIST)
		}
		if tgt.isDir != n.isDir {
			errno := kernel.EISDIR
			if !tgt.isDir {
				errno = kernel.ENOTDIR
			}
			return fmt.Errorf("vfs: rename %s -> %s: errno %d", srcPath, dstPath, errno)
		}
		if notEmpty, err := v.dirNotEmpty(t, mnt, tgt); err != nil {
			return err
		} else if notEmpty {
			return fmt.Errorf("vfs: %s: directory not empty", tgt.name)
		}
	}
	if err := v.pushName(mnt, newName); err != nil {
		return err
	}
	// The replaced target (if any) rides into the crossing as the
	// victim: the module commits the source's relink and the victim's
	// removal as one transaction, so a rename that fails in the module
	// has destroyed nothing (the rename(2) contract) and a crash can
	// never leave the half-moved state two separate crossings allowed.
	victim := uint64(0)
	if tgt != nil {
		victim = uint64(tgt.inode)
	}
	ret, err := v.gRename.Call(t, v.OpsSlot(mnt.fs.ops, "rename"),
		uint64(sb), uint64(oldDir.inode), uint64(n.inode), uint64(dstDir.inode),
		uint64(mnt.nameBuf), uint64(len(newName)), victim)
	if err != nil {
		return err
	}
	if kernel.IsErr(ret) {
		return fmt.Errorf("vfs: rename %s -> %s: errno %d", srcPath, dstPath, -int64(ret))
	}
	if tgt != nil {
		// The module removed the victim inside the rename transaction;
		// only the kernel's view is left to clean up.
		tgt.detach()
		v.Stats.Unlinks.Add(1)
	}
	n.detach()
	n.relink(dstDir, newName)
	v.Stats.Renames.Add(1)
	return nil
}

// Link creates newPath as an additional name (hardlink) for the inode
// at oldPath. Directories cannot be hardlinked. The module persists the
// new entry and bumps nlink; the kernel then adds the dentry.
func (v *VFS) Link(t *core.Thread, sb mem.Addr, oldPath, newPath string) (rerr error) {
	defer func() { rerr = core.Degrade(kernel.EIO, "vfs.link", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, oldPath)
	if err != nil {
		return err
	}
	if n.isDir {
		return fmt.Errorf("vfs: link %s: errno %d (directory)", oldPath, kernel.EISDIR)
	}
	dirPath, name, ok := splitParent(newPath)
	if !ok {
		return fmt.Errorf("vfs: cannot link to %q", newPath)
	}
	dir, err := v.walk(t, mnt, dirPath)
	if err != nil {
		return err
	}
	if !dir.isDir {
		return fmt.Errorf("vfs: %q: not a directory", dir.name)
	}
	if existing, err := v.childOf(t, mnt, dir, name); err != nil {
		return err
	} else if existing != nil {
		return fmt.Errorf("vfs: link %s: errno %d", name, kernel.EEXIST)
	}
	// Same per-mount re-check as rename: the mount's principal must own
	// both the linked inode and the directory gaining the entry.
	if mnt.fs.module != nil && v.K.Sys.Mon.Enforcing() {
		prin, ok := mnt.fs.module.Set.Lookup(sb)
		if !ok {
			return fmt.Errorf("vfs: no instance principal for mount %#x", uint64(sb))
		}
		for _, ino := range []mem.Addr{n.inode, dir.inode} {
			if !v.K.Sys.Caps.Check(prin, caps.WriteCap(ino, 1)) {
				return fmt.Errorf("vfs: link %s: mount principal does not own inode %#x", oldPath, uint64(ino))
			}
		}
	}
	if fp, _ := v.K.Sys.AS.ReadU64(v.OpsSlot(mnt.fs.ops, "link")); fp == 0 {
		return fmt.Errorf("vfs: link %s: errno %d", newPath, kernel.ENOSYS)
	}
	if err := v.pushName(mnt, name); err != nil {
		return err
	}
	ret, err := v.gLink.Call(t, v.OpsSlot(mnt.fs.ops, "link"),
		uint64(sb), uint64(dir.inode), uint64(n.inode),
		uint64(mnt.nameBuf), uint64(len(name)))
	if err != nil {
		return err
	}
	if kernel.IsErr(ret) {
		return fmt.Errorf("vfs: link %s -> %s: errno %d", oldPath, newPath, -int64(ret))
	}
	v.newDentry(dir, name, n.inode)
	v.Stats.Links.Add(1)
	return nil
}

// Stat returns a file's size and link count from the inode cache — a
// pure kernel-side path once the path is cached (as in Linux, where a
// cached stat never enters the filesystem); a dentry-cache miss crosses
// into the module's lookup.
func (v *VFS) Stat(t *core.Thread, sb mem.Addr, path string) (size, nlink uint64, err error) {
	defer func() { err = core.Degrade(kernel.EIO, "vfs.stat", err) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, 0, err
	}
	defer mnt.mu.Unlock()
	n, err := v.walk(t, mnt, path)
	if err != nil {
		return 0, 0, err
	}
	as := v.K.Sys.AS
	size, _ = as.ReadU64(v.InodeField(n.inode, "size"))
	nlink, _ = as.ReadU64(v.InodeField(n.inode, "nlink"))
	return size, nlink, nil
}

// DcacheLen returns the number of cached dentries across all mounts.
func (v *VFS) DcacheLen() int {
	total := 0
	for _, mnt := range v.mountList() {
		mnt.mu.Lock()
		if !mnt.dead {
			mnt.root.visit(func(*dnode) { total++ })
		}
		mnt.mu.Unlock()
	}
	return total
}
