// Package can is the simulated raw CAN protocol module (af_can): a
// small, well-behaved protocol whose sockets loop frames back through
// the network stack. It exists primarily as one of the ten annotated
// modules of Figure 9; it shares nearly all of its annotations with the
// other protocol modules, illustrating the paper's observation that
// supporting an additional similar module needs very few new
// annotations.
package can

import (
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// Family is AF_CAN (raw).
const Family = 30

// CanSock is the layout of per-socket state.
const CanSock = "struct can_sock"

// Proto is the loaded can module.
type Proto struct {
	M *core.Module

	// Bound kernel-call gates, resolved once at load (bind-time
	// resolution: crossings perform no symbol lookup).
	gSockRegister *core.Gate
	gKmalloc      *core.Gate
	gKfree        *core.Gate
	gCopyToUser   *core.Gate
	K             *kernel.Kernel
	St            *netstack.Stack

	sockLay *layout.Struct
	// rxq holds loopback frames per socket.
	rxq map[mem.Addr][][]byte
}

// Load loads the module.
func Load(t *core.Thread, k *kernel.Kernel, st *netstack.Stack) (*Proto, error) {
	p := &Proto{K: k, St: st, rxq: make(map[mem.Addr][][]byte)}
	if _, ok := k.Sys.Layouts.Get(CanSock); !ok {
		p.sockLay = k.Sys.Layouts.Define(CanSock,
			layout.F("ifindex", 8),
			layout.F("txcount", 8),
		)
	} else {
		p.sockLay = k.Sys.Layouts.MustGet(CanSock)
	}
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "can",
		Imports:  []string{"sock_register", "kmalloc", "kfree", "printk", "copy_to_user"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "create", Type: netstack.FamilyCreate, Impl: p.create},
			{Name: "bind", Type: netstack.OpsBind, Impl: p.bind},
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
	p.gCopyToUser = m.Gate("copy_to_user")
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{err}
	}
	return p, nil
}

type initError struct{ err error }

func (e *initError) Error() string { return "can: init failed" }
func (e *initError) Unwrap() error { return e.err }

func (p *Proto) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	for slot, fn := range map[string]string{
		"bind": "bind", "sendmsg": "sendmsg", "recvmsg": "recvmsg", "release": "release",
	} {
		if err := t.WriteU64(p.St.ProtoOpsSlot(mod.Data, slot), uint64(mod.Funcs[fn].Addr)); err != nil {
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

func (p *Proto) bind(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	if err := t.WriteU64(p.skField(mem.Addr(sk), "ifindex"), args[1]); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// sendmsg loops the frame straight back to the socket's receive queue.
func (p *Proto) sendmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	if n > 64 { // CAN frames are small
		return kernel.Err(kernel.EINVAL)
	}
	frame, err := t.ReadBytes(buf, n)
	if err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	p.rxq[sock] = append(p.rxq[sock], frame)
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	cnt, _ := t.ReadU64(p.skField(mem.Addr(sk), "txcount"))
	if err := t.WriteU64(p.skField(mem.Addr(sk), "txcount"), cnt+1); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return n
}

// recvmsg copies a queued frame to the user buffer via copy-to-user
// semantics: the destination must be user memory or the module's own.
func (p *Proto) recvmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	q := p.rxq[sock]
	if len(q) == 0 {
		return 0
	}
	frame := q[0]
	p.rxq[sock] = q[1:]
	if uint64(len(frame)) < n {
		n = uint64(len(frame))
	}
	// Unlike rds, can uses the checked uaccess path: copy_to_user
	// performs access_ok itself, so a kernel-space destination EFAULTs
	// even on a stock kernel (no CVE here).
	staging, err := p.gKmalloc.Call(t, n)
	if err != nil || staging == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.Write(mem.Addr(staging), frame[:n]); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	ret, cerr := p.gCopyToUser.Call(t, uint64(buf), staging, n)
	if _, ferr := p.gKfree.Call(t, staging); ferr != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if cerr != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EFAULT)
	}
	return n
}

func (p *Proto) release(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	delete(p.rxq, sock)
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	if sk != 0 {
		if _, err := p.gKfree.Call(t, sk); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}
