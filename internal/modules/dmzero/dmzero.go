// Package dmzero is the simulated dm-zero device-mapper target: reads
// return zeroes, writes are discarded. It is the smallest of the ten
// annotated modules of Figure 9 (6 functions, 2 function pointers in the
// paper's count) and a useful minimal example of the dm target
// interface.
package dmzero

import (
	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// Target is the loaded dm-zero module.
type Target struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gBioEndio *core.Gate
	L         *blockdev.Layer
}

// Load loads the module; its target-type ops table lives at the start of
// its data section.
func Load(t *core.Thread, k *kernel.Kernel, l *blockdev.Layer) (*Target, error) {
	tg := &Target{L: l}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "dm-zero",
		Imports:  []string{"bio_endio", "printk"},
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
	tg.gBioEndio = m.Gate("bio_endio")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return tg, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "dm-zero: init failed" }
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

func (tg *Target) ctr(t *core.Thread, args []uint64) uint64 { return 0 }

func (tg *Target) dtr(t *core.Thread, args []uint64) uint64 { return 0 }

// mapBio zeroes read payloads and discards writes, completing the bio
// itself.
func (tg *Target) mapBio(t *core.Thread, args []uint64) uint64 {
	bio := mem.Addr(args[1])
	rw, _ := t.ReadU64(tg.L.BioField(bio, "rw"))
	if rw == blockdev.ReadBio {
		data, _ := t.ReadU64(tg.L.BioField(bio, "data"))
		n, _ := t.ReadU64(tg.L.BioField(bio, "len"))
		if err := t.Zero(mem.Addr(data), n); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	if ret, err := tg.gBioEndio.Call(t, uint64(bio)); err != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EFAULT)
	}
	return blockdev.MapSubmitted
}
