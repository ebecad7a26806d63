// Package rds is the simulated Reliable Datagram Sockets module,
// carrying CVE-2010-3904: rds_page_copy_user copies message data to a
// user-supplied destination address without checking that the address is
// actually in user space, giving a local attacker an
// arbitrary-kernel-write primitive through recvmsg(2).
//
// Two build configurations mirror §8.1's evaluation:
//
//   - ops table in .rodata (the real layout): LXFI never grants a WRITE
//     capability for the read-only section, so the exploit's write is
//     blocked outright;
//   - ops table in .data (the paper's "we made this memory location
//     writable" variant): the write succeeds, and the exploit is instead
//     stopped at the kernel's indirect call by the writer-set + CALL
//     capability check.
package rds

import (
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// Family is AF_RDS.
const Family = 21

// RdsSock is the layout of the module's per-socket state.
const RdsSock = "struct rds_sock"

// Config selects where the proto_ops table lives.
type Config struct {
	// WritableOps places rds_proto_ops in the module's .data section
	// instead of .rodata, reproducing the paper's second experiment.
	WritableOps bool
}

// Proto is the loaded rds module.
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

	cfg     Config
	sockLay *layout.Struct

	// pending holds queued message payloads per socket (the simulated
	// receive queue; in Linux this lives in sk_buffs on the socket).
	pending map[mem.Addr][][]byte
}

// Load loads the module with the given configuration.
func Load(t *core.Thread, k *kernel.Kernel, st *netstack.Stack, cfg Config) (*Proto, error) {
	p := &Proto{K: k, St: st, cfg: cfg, pending: make(map[mem.Addr][][]byte)}
	if _, ok := k.Sys.Layouts.Get(RdsSock); !ok {
		p.sockLay = k.Sys.Layouts.Define(RdsSock,
			layout.F("bound", 8),
			layout.F("port", 8),
		)
	} else {
		p.sockLay = k.Sys.Layouts.MustGet(RdsSock)
	}

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:       "rds",
		Imports:    []string{"sock_register", "kmalloc", "kfree", "printk", "__copy_to_user", "__copy_from_user"},
		DataSize:   4096,
		RODataSize: 4096,
		Funcs: []core.FuncSpec{
			{Name: "create", Type: netstack.FamilyCreate, Impl: p.create},
			{Name: "bind", Type: netstack.OpsBind, Impl: p.bind},
			{Name: "sendmsg", Type: netstack.OpsSendmsg, Impl: p.sendmsg},
			{Name: "recvmsg", Type: netstack.OpsRecvmsg, Impl: p.recvmsg},
			{Name: "ioctl", Type: netstack.OpsIoctl, Impl: p.ioctl},
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
	p.gCopyToUser = m.Gate("__copy_to_user")

	// The module loader materializes the ops table from the object file:
	// for the .rodata configuration the module itself could never write
	// it, so the "relocation" happens in trusted loader context.
	ops := p.OpsTable()
	as := k.Sys.AS
	for slot, fn := range map[string]string{
		"bind": "bind", "sendmsg": "sendmsg", "recvmsg": "recvmsg",
		"ioctl": "ioctl", "release": "release",
	} {
		if err := as.WriteU64(st.ProtoOpsSlot(ops, slot), uint64(m.Funcs[fn].Addr)); err != nil {
			return nil, err
		}
	}

	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		if err == nil {
			err = kernelInitErr
		}
		return nil, err
	}
	return p, nil
}

var kernelInitErr = &initError{}

type initError struct{}

func (e *initError) Error() string { return "rds: init failed" }

// OpsTable returns the address of rds_proto_ops in the configured
// section.
func (p *Proto) OpsTable() mem.Addr {
	if p.cfg.WritableOps {
		return p.M.Data
	}
	return p.M.ROData
}

// IoctlSlot returns the slot the exploit overwrites.
func (p *Proto) IoctlSlot() mem.Addr { return p.St.ProtoOpsSlot(p.OpsTable(), "ioctl") }

func (p *Proto) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	if ret, err := p.gSockRegister.Call(t, Family, uint64(mod.Funcs["create"].Addr)); err != nil || kernel.IsErr(ret) {
		return 1
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
	if err := t.WriteU64(p.St.SockField(sock, "ops"), uint64(p.OpsTable())); err != nil {
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
	if err := t.WriteU64(p.skField(mem.Addr(sk), "port"), args[1]); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(p.skField(mem.Addr(sk), "bound"), 1); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// sendmsg queues a message: the payload is read from the user buffer
// (reads are legitimate) and held until recvmsg.
func (p *Proto) sendmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	if n > 4096 {
		return kernel.Err(kernel.EINVAL)
	}
	payload, err := t.ReadBytes(buf, n)
	if err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	p.pending[sock] = append(p.pending[sock], payload)
	return n
}

// recvmsg is rds_page_copy_user (CVE-2010-3904): it copies the queued
// message to the destination the user supplied — with NO access_ok
// check, so a kernel address works just as well. The store goes through
// the module's own (instrumented) write path: stock kernels perform it
// blindly; LXFI demands a WRITE capability.
func (p *Proto) recvmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	q := p.pending[sock]
	if len(q) == 0 {
		return 0
	}
	msg := q[0]
	p.pending[sock] = q[1:]
	if uint64(len(msg)) < n {
		n = uint64(len(msg))
	}
	// Stage the message in module-owned memory, then copy it out with
	// the no-access_ok uaccess variant.
	staging, err := p.gKmalloc.Call(t, n)
	if err != nil || staging == 0 {
		return kernel.Err(kernel.ENOMEM)
	}
	if err := t.Write(mem.Addr(staging), msg[:n]); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	// MISSING: if !access_ok(buf, n) { return -EFAULT } (CVE-2010-3904):
	// __copy_to_user performs no check of its own, so a kernel-space buf
	// goes straight through on a stock kernel.
	ret, cerr := p.gCopyToUser.Call(t, uint64(buf), staging, n)
	if _, ferr := p.gKfree.Call(t, staging); ferr != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if cerr != nil || kernel.IsErr(ret) {
		return kernel.Err(kernel.EFAULT)
	}
	return n
}

func (p *Proto) ioctl(t *core.Thread, args []uint64) uint64 {
	return kernel.Err(kernel.EINVAL)
}

func (p *Proto) release(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	delete(p.pending, sock)
	if sk != 0 {
		if _, err := p.gKfree.Call(t, sk); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	}
	return 0
}
