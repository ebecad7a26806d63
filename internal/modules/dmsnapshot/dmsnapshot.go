// Package dmsnapshot is the simulated dm-snapshot device-mapper target:
// a copy-on-write snapshot. Writes are redirected into a snapshot area
// and recorded in a per-target exception table; reads consult the table
// and fall through to the origin when no exception exists.
package dmsnapshot

import (
	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// MaxExceptions bounds the per-target exception table.
const MaxExceptions = 64

// table layout: [0] = next free snapshot chunk; [1+i*2] = origin sector,
// [2+i*2] = snapshot sector, for i < MaxExceptions.
const tableSize = (1 + 2*MaxExceptions) * 8

// Target is the loaded dm-snapshot module.
type Target struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gKmalloc *core.Gate
	gKfree   *core.Gate
	L        *blockdev.Layer

	// SnapBase is the first sector of the snapshot area on the backing
	// device.
	SnapBase uint64
}

// Load loads the module. snapBase is where the copy-on-write area
// begins on the backing device.
func Load(t *core.Thread, k *kernel.Kernel, l *blockdev.Layer, snapBase uint64) (*Target, error) {
	tg := &Target{L: l, SnapBase: snapBase}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "dm-snapshot",
		Imports:  []string{"kmalloc", "kfree", "printk", "spin_lock_init", "spin_lock", "spin_unlock"},
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
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return tg, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "dm-snapshot: init failed" }
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

func (tg *Target) ctr(t *core.Thread, args []uint64) uint64 {
	ti := mem.Addr(args[0])
	table, err := tg.gKmalloc.Call(t, tableSize)
	if err != nil || table == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.WriteU64(tg.L.TargetField(ti, "private"), table); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (tg *Target) dtr(t *core.Thread, args []uint64) uint64 {
	ti := mem.Addr(args[0])
	table, _ := t.ReadU64(tg.L.TargetField(ti, "private"))
	if table != 0 {
		if _, err := tg.gKfree.Call(t, table); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

// lookup scans the exception table for an origin sector; returns the
// snapshot sector and whether it exists.
func (tg *Target) lookup(t *core.Thread, table mem.Addr, origin uint64) (uint64, bool) {
	count, _ := t.ReadU64(table)
	for i := uint64(0); i < count && i < MaxExceptions; i++ {
		o, _ := t.ReadU64(table + mem.Addr((1+2*i)*8))
		if o == origin {
			s, _ := t.ReadU64(table + mem.Addr((2+2*i)*8))
			return s, true
		}
	}
	return 0, false
}

// mapBio implements copy-on-write remapping; the rewritten bio is handed
// back to the dm core (MapRemapped), which performs the actual I/O —
// exercising the conditional post transfer of the map annotation.
func (tg *Target) mapBio(t *core.Thread, args []uint64) uint64 {
	ti, bio := mem.Addr(args[0]), mem.Addr(args[1])
	table64, _ := t.ReadU64(tg.L.TargetField(ti, "private"))
	table := mem.Addr(table64)
	sector, _ := t.ReadU64(tg.L.BioField(bio, "sector"))
	rw, _ := t.ReadU64(tg.L.BioField(bio, "rw"))
	dev, _ := t.ReadU64(tg.L.TargetField(ti, "dev"))
	if err := t.WriteU64(tg.L.BioField(bio, "dev"), dev); err != nil {
		return kernel.Err(kernel.EFAULT)
	}

	if rw == blockdev.WriteBio {
		snap, ok := tg.lookup(t, table, sector)
		if !ok {
			count, _ := t.ReadU64(table)
			if count >= MaxExceptions {
				return kernel.Err(kernel.ENOMEM)
			}
			snap = tg.SnapBase + count
			if err := t.WriteU64(table+mem.Addr((1+2*count)*8), sector); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			if err := t.WriteU64(table+mem.Addr((2+2*count)*8), snap); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			if err := t.WriteU64(table, count+1); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
		}
		if err := t.WriteU64(tg.L.BioField(bio, "sector"), snap); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return blockdev.MapRemapped
	}

	if snap, ok := tg.lookup(t, table, sector); ok {
		if err := t.WriteU64(tg.L.BioField(bio, "sector"), snap); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return blockdev.MapRemapped
}
