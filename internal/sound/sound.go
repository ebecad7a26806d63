// Package sound implements a minimal ALSA-like substrate for the two
// sound-card driver modules of Figure 9 (snd-intel8x0 and snd-ens1370):
// snd_card objects, the annotated snd_pcm_ops interface, and the
// kernel-side playback path.
package sound

import (
	"fmt"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

// SndCard is the layout name of struct snd_card.
const SndCard = "struct snd_card"

// Function-pointer types of the snd_pcm_ops interface.
const (
	PcmOpen    = "snd_pcm_ops.open"
	PcmClose   = "snd_pcm_ops.close"
	PcmTrigger = "snd_pcm_ops.trigger"
	PcmPointer = "snd_pcm_ops.pointer"
)

// Trigger commands.
const (
	TriggerStart = 1
	TriggerStop  = 2
)

// Sound is the simulated sound core.
type Sound struct {
	K    *kernel.Kernel
	card *layout.Struct
	pcm  *layout.Struct

	// The registered function-pointer types of the snd_pcm_ops slots.
	gOpen    *core.FPtrType
	gClose   *core.FPtrType
	gTrigger *core.FPtrType
	gPointer *core.FPtrType
}

// Init builds the sound core.
func Init(k *kernel.Kernel) *Sound {
	s := &Sound{K: k}
	sys := k.Sys
	s.card = sys.Layouts.Define(SndCard,
		layout.F("ops", 8),
		layout.F("buf", 8),
		layout.F("buflen", 8),
		layout.F("pos", 8),
		layout.F("playing", 8),
	)
	s.pcm = sys.Layouts.Define("struct snd_pcm_ops",
		layout.F("open", 8),
		layout.F("close", 8),
		layout.F("trigger", 8),
		layout.F("pointer", 8),
	)

	s.gOpen = sys.RegisterFPtrType(PcmOpen,
		[]core.Param{core.P("card", "struct snd_card *")},
		"principal(card) pre(copy(write, card))")
	s.gClose = sys.RegisterFPtrType(PcmClose,
		[]core.Param{core.P("card", "struct snd_card *")},
		"principal(card)")
	s.gTrigger = sys.RegisterFPtrType(PcmTrigger,
		[]core.Param{core.P("card", "struct snd_card *"), core.P("cmd", "int")},
		"principal(card)")
	s.gPointer = sys.RegisterFPtrType(PcmPointer,
		[]core.Param{core.P("card", "struct snd_card *")},
		"principal(card)")
	return s
}

// CardField returns the address of a snd_card field.
func (s *Sound) CardField(card mem.Addr, f string) mem.Addr {
	return card + mem.Addr(s.card.Off(f))
}

// OpsSlot returns the address of a snd_pcm_ops slot.
func (s *Sound) OpsSlot(ops mem.Addr, f string) mem.Addr {
	return ops + mem.Addr(s.pcm.Off(f))
}

// NewCard allocates a card bound to the given module ops table and runs
// the driver's open callback through the annotated indirect call.
func (s *Sound) NewCard(t *core.Thread, ops mem.Addr) (mem.Addr, error) {
	card, err := s.K.Sys.Slab.Alloc(s.card.Size)
	if err != nil {
		return 0, err
	}
	if err := s.K.Sys.AS.WriteU64(s.CardField(card, "ops"), uint64(ops)); err != nil {
		return 0, err
	}
	ret, err := s.gOpen.Call(t, s.OpsSlot(ops, "open"), uint64(card))
	if err != nil {
		return 0, err
	}
	if kernel.IsErr(ret) {
		_ = s.K.Sys.Slab.Free(card)
		return 0, fmt.Errorf("sound: open failed: errno %d", -int64(ret))
	}
	return card, nil
}

// Playback copies PCM samples into the card's DMA buffer and triggers
// the driver.
func (s *Sound) Playback(t *core.Thread, card mem.Addr, samples []byte) error {
	as := s.K.Sys.AS
	buf, _ := as.ReadU64(s.CardField(card, "buf"))
	buflen, _ := as.ReadU64(s.CardField(card, "buflen"))
	if buf == 0 || uint64(len(samples)) > buflen {
		return fmt.Errorf("sound: DMA buffer too small (%d > %d)", len(samples), buflen)
	}
	if err := as.Write(mem.Addr(buf), samples); err != nil {
		return err
	}
	ops, _ := as.ReadU64(s.CardField(card, "ops"))
	ret, err := s.gTrigger.Call(t, s.OpsSlot(mem.Addr(ops), "trigger"), uint64(card), TriggerStart)
	if err != nil {
		return err
	}
	if kernel.IsErr(ret) {
		return fmt.Errorf("sound: trigger failed: errno %d", -int64(ret))
	}
	return nil
}

// Pointer asks the driver for the current hardware position.
func (s *Sound) Pointer(t *core.Thread, card mem.Addr) (uint64, error) {
	ops, _ := s.K.Sys.AS.ReadU64(s.CardField(card, "ops"))
	return s.gPointer.Call(t, s.OpsSlot(mem.Addr(ops), "pointer"), uint64(card))
}

// Close runs the driver's close callback and frees the card.
func (s *Sound) Close(t *core.Thread, card mem.Addr) error {
	ops, _ := s.K.Sys.AS.ReadU64(s.CardField(card, "ops"))
	if _, err := s.gClose.Call(t, s.OpsSlot(mem.Addr(ops), "close"), uint64(card)); err != nil {
		return err
	}
	return s.K.Sys.Slab.Free(card)
}
