// Package sndens1370 is the simulated snd-ens1370 (Ensoniq AudioPCI)
// sound driver — the second sound module of Figure 9. Unlike the AC'97
// intel8x0 driver it programs a small register file (sample rate and
// control registers held in module-owned memory) on every trigger, and
// uses a smaller DMA buffer.
//
// In the paper's annotation count the two sound drivers share most of
// their annotations: both implement the same snd_pcm_ops interface, so
// only the module bodies differ.
package sndens1370

import (
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/sound"
)

// BufferSize is the ES1370 DMA buffer size.
const BufferSize = 1024

// Register file offsets (within the kmalloc'd register block).
const (
	regControl = 0
	regRate    = 8
	regFrame   = 16
	regSize    = 24
)

// DefaultRate is the ES1370 fixed DAC1 sample rate.
const DefaultRate = 44100

// Driver is the loaded module.
type Driver struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gKmalloc *core.Gate
	gKfree   *core.Gate
	S        *sound.Sound

	// regs maps a card to its register block (module bookkeeping, as a
	// real driver would keep in its chip struct).
	regs map[mem.Addr]mem.Addr

	// Played counts samples the "hardware" consumed.
	Played uint64
}

// Load loads the module and installs its ops table.
func Load(t *core.Thread, k *kernel.Kernel, s *sound.Sound) (*Driver, error) {
	d := &Driver{S: s, regs: make(map[mem.Addr]mem.Addr)}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "snd-ens1370",
		Imports:  []string{"kmalloc", "kfree", "printk"},
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

func (e *initError) Error() string { return "snd-ens1370: init failed" }
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

// open allocates the DMA buffer and the register block, then programs
// the fixed DAC1 rate.
func (d *Driver) open(t *core.Thread, args []uint64) uint64 {
	card := mem.Addr(args[0])
	buf, err := d.gKmalloc.Call(t, BufferSize)
	if err != nil || buf == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	regs, err := d.gKmalloc.Call(t, regSize)
	if err != nil || regs == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	d.regs[card] = mem.Addr(regs)
	if err := t.WriteU64(mem.Addr(regs)+regRate, DefaultRate); err != nil {
		return kernel.Err(kernel.EFAULT)
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
	if regs, ok := d.regs[card]; ok {
		delete(d.regs, card)
		if _, err := d.gKfree.Call(t, uint64(regs)); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

// trigger programs the control register and advances the frame counter.
func (d *Driver) trigger(t *core.Thread, args []uint64) uint64 {
	card, cmd := mem.Addr(args[0]), args[1]
	regs, ok := d.regs[card]
	if !ok {
		return kernel.Err(kernel.EINVAL)
	}
	switch cmd {
	case sound.TriggerStart:
		if err := t.WriteU64(regs+regControl, 1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
		buflen, _ := t.ReadU64(d.S.CardField(card, "buflen"))
		frame, _ := t.ReadU64(regs + regFrame)
		if err := t.WriteU64(regs+regFrame, frame+1); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
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
		if err := t.WriteU64(regs+regControl, 0); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
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

// Rate returns the programmed sample rate of a card (test
// introspection).
func (d *Driver) Rate(card mem.Addr) uint64 {
	regs, ok := d.regs[card]
	if !ok {
		return 0
	}
	r, _ := d.S.K.Sys.AS.ReadU64(regs + regRate)
	return r
}
