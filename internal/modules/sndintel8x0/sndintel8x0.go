// Package sndintel8x0 is the simulated snd-intel8x0 AC'97 sound driver,
// one of the two sound modules of Figure 9. Each opened card is its own
// principal; the DMA buffer belongs to that card's principal only.
package sndintel8x0

import (
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/sound"
)

// BufferSize is the AC'97 DMA buffer size.
const BufferSize = 2048

// Driver is the loaded module.
type Driver struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gKmalloc *core.Gate
	gKfree   *core.Gate
	S        *sound.Sound

	// Played counts samples the "hardware" consumed.
	Played uint64
}

// Load loads the module and installs its ops table.
func Load(t *core.Thread, k *kernel.Kernel, s *sound.Sound) (*Driver, error) {
	d := &Driver{S: s}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "snd-intel8x0",
		Imports:  []string{"kmalloc", "kfree", "printk", "spin_lock_init", "spin_lock", "spin_unlock"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "open", Type: sound.PcmOpen, Impl: d.open},
			{Name: "close", Type: sound.PcmClose, Impl: d.close},
			{Name: "trigger", Type: sound.PcmTrigger, Impl: d.trigger},
			{Name: "pointer", Type: sound.PcmPointer, Impl: d.pointer},
			{Name: "init", Impl: d.init},
		},
	})
	if err != nil {
		return nil, err
	}
	d.M = m
	d.gKmalloc = m.Gate("kmalloc")
	d.gKfree = m.Gate("kfree")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return d, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "snd-intel8x0: init failed" }
func (e *initError) Unwrap() error { return e.err }

// Ops returns the module's snd_pcm_ops table address.
func (d *Driver) Ops() mem.Addr { return d.M.Data }

func (d *Driver) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	for slot, fn := range map[string]string{
		"open": "open", "close": "close", "trigger": "trigger", "pointer": "pointer",
	} {
		if err := t.WriteU64(d.S.OpsSlot(mod.Data, slot), uint64(mod.Funcs[fn].Addr)); err != nil {
			return 1
		}
	}
	return 0
}

func (d *Driver) open(t *core.Thread, args []uint64) uint64 {
	card := mem.Addr(args[0])
	buf, err := d.gKmalloc.Call(t, BufferSize)
	if err != nil || buf == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.WriteU64(d.S.CardField(card, "buf"), buf); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(d.S.CardField(card, "buflen"), BufferSize); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (d *Driver) close(t *core.Thread, args []uint64) uint64 {
	card := mem.Addr(args[0])
	buf, _ := t.ReadU64(d.S.CardField(card, "buf"))
	if buf != 0 {
		if _, err := d.gKfree.Call(t, buf); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

func (d *Driver) trigger(t *core.Thread, args []uint64) uint64 {
	card, cmd := mem.Addr(args[0]), args[1]
	switch cmd {
	case sound.TriggerStart:
		buflen, _ := t.ReadU64(d.S.CardField(card, "buflen"))
		pos, _ := t.ReadU64(d.S.CardField(card, "pos"))
		if err := t.WriteU64(d.S.CardField(card, "pos"), pos+buflen); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		if err := t.WriteU64(d.S.CardField(card, "playing"), 1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		d.Played += buflen
		return 0
	case sound.TriggerStop:
		if err := t.WriteU64(d.S.CardField(card, "playing"), 0); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		return 0
	}
	return kernel.Err(kernel.EINVAL)
}

func (d *Driver) pointer(t *core.Thread, args []uint64) uint64 {
	pos, _ := t.ReadU64(d.S.CardField(mem.Addr(args[0]), "pos"))
	return pos
}
