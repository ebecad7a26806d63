// Package dmcrypt is the simulated dm-crypt device-mapper target: a
// transparent encryption layer over a backing disk. It is the paper's
// §2.1 example of a shared module with many privileges: one dm-crypt
// module instance may encrypt both the system disk and an untrusted USB
// stick, and LXFI's per-target principals keep a compromise of one
// volume from reaching the others.
//
// The cipher is a keyed XOR — a stand-in with the same data-flow shape
// (in-place transform between bio payload and backing store) as the real
// module's crypto; the isolation properties under test do not depend on
// cipher strength.
package dmcrypt

import (
	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// Target is the loaded dm-crypt module.
type Target struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gKmalloc       *core.Gate
	gKfree         *core.Gate
	gSubmitBio     *core.Gate
	gBioEndio      *core.Gate
	gDmReadSectors *core.Gate
	L              *blockdev.Layer
}

// Load loads the module.
func Load(t *core.Thread, k *kernel.Kernel, l *blockdev.Layer) (*Target, error) {
	tg := &Target{L: l}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name: "dm-crypt",
		Imports: []string{
			"kmalloc", "kfree", "submit_bio", "bio_endio",
			"dm_read_sectors", "printk", "spin_lock_init",
		},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "ctr", Type: blockdev.DmCtr, Impl: tg.ctr},
			{Name: "dtr", Type: blockdev.DmDtr, Impl: tg.dtr},
			{Name: "map", Type: blockdev.DmMap, Impl: tg.mapBio},
			{Name: "init", Impl: tg.init},
		},
	})
	if err != nil {
		return nil, err
	}
	tg.M = m
	tg.gKmalloc = m.Gate("kmalloc")
	tg.gKfree = m.Gate("kfree")
	tg.gSubmitBio = m.Gate("submit_bio")
	tg.gBioEndio = m.Gate("bio_endio")
	tg.gDmReadSectors = m.Gate("dm_read_sectors")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return tg, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "dm-crypt: init failed" }
func (e *initError) Unwrap() error { return e.err }

// Ops returns the module's dm_target_type table address.
func (tg *Target) Ops() mem.Addr { return tg.M.Data }

func (tg *Target) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	for slot, fn := range map[string]string{"ctr": "ctr", "dtr": "dtr", "map": "map"} {
		if err := t.WriteU64(tg.L.OpsSlot(mod.Data, slot), uint64(mod.Funcs[fn].Addr)); err != nil {
			return 1
		}
	}
	return 0
}

// ctr stores the volume key in per-target memory. The key buffer is
// owned by this target's principal only: a sibling volume's principal
// cannot read^Wwrite it.
func (tg *Target) ctr(t *core.Thread, args []uint64) uint64 {
	ti, key := mem.Addr(args[0]), args[1]
	keyBuf, err := tg.gKmalloc.Call(t, 8)
	if err != nil || keyBuf == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.WriteU64(mem.Addr(keyBuf), key); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(tg.L.TargetField(ti, "private"), keyBuf); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (tg *Target) dtr(t *core.Thread, args []uint64) uint64 {
	ti := mem.Addr(args[0])
	keyBuf, _ := t.ReadU64(tg.L.TargetField(ti, "private"))
	if keyBuf != 0 {
		if _, err := tg.gKfree.Call(t, keyBuf); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

// mapBio encrypts writes in place before submitting them, and decrypts
// reads after fetching the ciphertext into the (module-owned) payload.
func (tg *Target) mapBio(t *core.Thread, args []uint64) uint64 {
	ti, bio := mem.Addr(args[0]), mem.Addr(args[1])

	keyBuf, _ := t.ReadU64(tg.L.TargetField(ti, "private"))
	key, _ := t.ReadU64(mem.Addr(keyBuf))
	begin, _ := t.ReadU64(tg.L.TargetField(ti, "begin"))
	dev, _ := t.ReadU64(tg.L.TargetField(ti, "dev"))

	sector, _ := t.ReadU64(tg.L.BioField(bio, "sector"))
	data, _ := t.ReadU64(tg.L.BioField(bio, "data"))
	n, _ := t.ReadU64(tg.L.BioField(bio, "len"))
	rw, _ := t.ReadU64(tg.L.BioField(bio, "rw"))

	// Remap into the target's slice of the backing device.
	if err := t.WriteU64(tg.L.BioField(bio, "sector"), sector+begin); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(tg.L.BioField(bio, "dev"), dev); err != nil {
		return kernel.Err(kernel.EFAULT)
	}

	if rw == blockdev.WriteBio {
		if ret := tg.xorPayload(t, mem.Addr(data), n, key); ret != 0 {
			return ret
		}
		if ret, err := tg.gSubmitBio.Call(t, uint64(bio)); err != nil || kernel.IsErr(ret) {
			return kernel.Err(kernel.EFAULT)
		}
		return blockdev.MapSubmitted
	}

	// Read: fetch ciphertext into the payload we own, decrypt in place,
	// complete.
	if ret, err := tg.gDmReadSectors.Call(t, dev, sector+begin, data, n); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EFAULT)
	}
	if ret := tg.xorPayload(t, mem.Addr(data), n, key); ret != 0 {
		return ret
	}
	if ret, err := tg.gBioEndio.Call(t, uint64(bio)); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EFAULT)
	}
	return blockdev.MapSubmitted
}

// xorPayload applies the keyed XOR in 8-byte chunks via instrumented
// writes.
func (tg *Target) xorPayload(t *core.Thread, data mem.Addr, n, key uint64) uint64 {
	for off := uint64(0); off+8 <= n; off += 8 {
		v, err := t.ReadU64(data + mem.Addr(off))
		if err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		if err := t.WriteU64(data+mem.Addr(off), v^key); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}
