// Package canbcm is the simulated CAN broadcast-manager module,
// carrying CVE-2010-2959: bcm_rx_setup computes its allocation size as a
// 32-bit product nframes*16, so a large user-supplied nframes overflows
// and the module allocates far less memory than it believes it has. The
// module then indexes the buffer by frame number with no bound tied to
// the actual allocation, writing into whatever slab object sits next —
// in Oberheide's exploit, a shmid_kernel whose ops pointer the attacker
// redirects.
package canbcm

import (
	"encoding/binary"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// Family is AF_CAN with the BCM protocol (simulated as its own family
// for dispatch simplicity).
const Family = 29

// Opcodes in the simulated bcm_msg_head.
const (
	OpRxSetup  = 1 + iota // allocate the frame array
	OpSetFrame            // write one frame by index
	OpGetFrame            // read one frame by index
)

// FrameSize is sizeof(struct can_frame) rounded as in the exploit: the
// allocation is nframes*16.
const FrameSize = 16

// BcmSock is the layout of per-socket state.
const BcmSock = "struct bcm_sock"

// MsgHead is the user-visible message header layout: four u64 fields
// (opcode, nframes, index, value).
const msgHeadSize = 32

// Proto is the loaded can-bcm module.
type Proto struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gSockRegister *core.Gate
	gKmalloc      *core.Gate
	gKfree        *core.Gate
	K             *kernel.Kernel
	St            *netstack.Stack

	sockLay *layout.Struct
}

// Load loads the module and registers the family.
func Load(t *core.Thread, k *kernel.Kernel, st *netstack.Stack) (*Proto, error) {
	p := &Proto{K: k, St: st}
	if _, ok := k.Sys.Layouts.Get(BcmSock); !ok {
		p.sockLay = k.Sys.Layouts.Define(BcmSock,
			layout.F("nframes", 8),
			layout.F("frames", 8),
		)
	} else {
		p.sockLay = k.Sys.Layouts.MustGet(BcmSock)
	}

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "can-bcm",
		Imports:  []string{"sock_register", "kmalloc", "kfree", "printk"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "create", Type: netstack.FamilyCreate, Impl: p.create},
			{Name: "sendmsg", Type: netstack.OpsSendmsg, Impl: p.sendmsg},
			{Name: "recvmsg", Type: netstack.OpsRecvmsg, Impl: p.recvmsg},
			{Name: "release", Type: netstack.OpsRelease, Impl: p.release},
			{Name: "init", Impl: p.init},
		},
	})
	if err != nil {
		return nil, err
	}
	p.M = m
	p.gSockRegister = m.Gate("sock_register")
	p.gKmalloc = m.Gate("kmalloc")
	p.gKfree = m.Gate("kfree")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return p, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "can-bcm: init failed" }
func (e *initError) Unwrap() error { return e.err }

func (p *Proto) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	ops := mod.Data
	for slot, fn := range map[string]string{
		"sendmsg": "sendmsg", "recvmsg": "recvmsg", "release": "release",
	} {
		if err := t.WriteU64(p.St.ProtoOpsSlot(ops, slot), uint64(mod.Funcs[fn].Addr)); err != nil {
			return 1
		}
	}
	if ret, err := p.gSockRegister.Call(t, Family, uint64(mod.Funcs["create"].Addr)); err != nil || kernel.IsErr(ret) {
		return 2
	}
	return 0
}

func (p *Proto) skField(sk mem.Addr, f string) mem.Addr {
	return sk + mem.Addr(p.sockLay.Off(f))
}

func (p *Proto) create(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, err := p.gKmalloc.Call(t, p.sockLay.Size)
	if err != nil || sk == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.WriteU64(p.St.SockField(sock, "ops"), uint64(t.CurrentModule().Data)); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(p.St.SockField(sock, "sk"), sk); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// sendmsg parses the bcm_msg_head from the user buffer and dispatches.
func (p *Proto) sendmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	if n < msgHeadSize {
		return kernel.Err(kernel.EINVAL)
	}
	head, err := t.ReadBytes(buf, msgHeadSize)
	if err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	op := binary.LittleEndian.Uint64(head[0:])
	nframes := binary.LittleEndian.Uint64(head[8:])
	idx := binary.LittleEndian.Uint64(head[16:])
	val := binary.LittleEndian.Uint64(head[24:])

	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	switch op {
	case OpRxSetup:
		return p.rxSetup(t, mem.Addr(sk), nframes)
	case OpSetFrame:
		return p.setFrame(t, mem.Addr(sk), idx, val)
	default:
		return kernel.Err(kernel.EINVAL)
	}
}

// rxSetup is bcm_rx_setup: THE BUG — the allocation size is computed in
// 32 bits, so nframes = 0x10000001 yields 0x10000001*16 = 0x100000010,
// truncated to 0x10 = 16 bytes, while the module records the full
// nframes as its logical array length.
func (p *Proto) rxSetup(t *core.Thread, sk mem.Addr, nframes uint64) uint64 {
	allocSize := uint64(uint32(nframes * FrameSize)) // 32-bit overflow (CVE-2010-2959)
	if allocSize == 0 {
		return kernel.Err(kernel.EINVAL)
	}
	frames, err := p.gKmalloc.Call(t, allocSize)
	if err != nil || frames == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.WriteU64(p.skField(sk, "frames"), frames); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(p.skField(sk, "nframes"), nframes); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// setFrame writes a frame by index, bounded only by the (overflowed)
// nframes count — so under the stock kernel, writes past the 16-byte
// allocation land in the adjacent slab object.
func (p *Proto) setFrame(t *core.Thread, sk mem.Addr, idx, val uint64) uint64 {
	nframes, _ := t.ReadU64(p.skField(sk, "nframes"))
	if idx >= nframes {
		return kernel.Err(kernel.EINVAL)
	}
	frames, _ := t.ReadU64(p.skField(sk, "frames"))
	if frames == 0 {
		return kernel.Err(kernel.EINVAL)
	}
	dst := mem.Addr(frames) + mem.Addr(idx*FrameSize)
	if err := t.WriteU64(dst, val); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(dst+8, val); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (p *Proto) recvmsg(t *core.Thread, args []uint64) uint64 {
	return 0
}

func (p *Proto) release(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	if sk != 0 {
		frames, _ := t.ReadU64(p.skField(mem.Addr(sk), "frames"))
		if frames != 0 {
			if _, err := p.gKfree.Call(t, frames); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
		}
		if _, err := p.gKfree.Call(t, sk); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}

// Frames returns the frame-array address of a socket (test
// introspection).
func (p *Proto) Frames(sock mem.Addr) mem.Addr {
	sk, _ := p.K.Sys.AS.ReadU64(p.St.SockField(sock, "sk"))
	frames, _ := p.K.Sys.AS.ReadU64(mem.Addr(sk) + mem.Addr(p.sockLay.Off("frames")))
	return mem.Addr(frames)
}

// MsgHead encodes a bcm_msg_head for sendmsg.
func MsgHead(op, nframes, idx, val uint64) []byte {
	b := make([]byte, msgHeadSize)
	binary.LittleEndian.PutUint64(b[0:], op)
	binary.LittleEndian.PutUint64(b[8:], nframes)
	binary.LittleEndian.PutUint64(b[16:], idx)
	binary.LittleEndian.PutUint64(b[24:], val)
	return b
}
