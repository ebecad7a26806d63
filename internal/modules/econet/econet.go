// Package econet is the simulated Econet protocol module (af_econet),
// carrying the two module-side vulnerabilities of the Econet exploit
// chain from §8.1:
//
//   - CVE-2010-3849: a NULL pointer dereference in sendmsg reachable by
//     an unprivileged user (a NULL destination address).
//   - CVE-2010-3850: a missing capable(CAP_NET_ADMIN) check in the
//     SIOCSIFADDR ioctl.
//
// It is also the paper's worked example for multi-principal modules:
// every socket is its own principal, and the module keeps a linked list
// of all sockets whose cross-instance manipulation requires switching to
// the module's global principal (§3.1, Guideline 6).
package econet

import (
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// Family is AF_ECONET.
const Family = 19

// SIOCSIFADDR is the station-address ioctl with the missing privilege
// check.
const SIOCSIFADDR = 0x8916

// Layout of the module's private per-socket state.
const EconetSock = "struct econet_sock"

// Offsets into the module's data section.
const (
	opsOff  = 0   // struct proto_ops (48 bytes)
	headOff = 128 // global socket list head
)

// Proto is the loaded econet module.
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

	// Stations records the station addresses configured through the
	// (unprivileged!) SIOCSIFADDR path; exploit observability.
	Stations []uint64

	// LastOops is set when sendmsg hit the NULL dereference.
	LastOops bool
}

// Load loads the module and runs its init function, which installs the
// proto_ops table and registers the protocol family.
func Load(t *core.Thread, k *kernel.Kernel, st *netstack.Stack) (*Proto, error) {
	p := &Proto{K: k, St: st}
	if _, ok := k.Sys.Layouts.Get(EconetSock); !ok {
		p.sockLay = k.Sys.Layouts.Define(EconetSock,
			layout.F("next", 8),
			layout.F("station", 8),
			layout.F("txcount", 8),
		)
	} else {
		p.sockLay = k.Sys.Layouts.MustGet(EconetSock)
	}

	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "econet",
		Imports:  []string{"sock_register", "kmalloc", "kfree", "printk", "capable"},
		DataSize: 4096,
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
	if ret, err := t.CallModule(m, "init"); err != nil || ret != 0 {
		return nil, &initError{ret: ret, err: err}
	}
	return p, nil
}

type initError struct {
	ret uint64
	err error
}

func (e *initError) Error() string { return "econet: init failed" }
func (e *initError) Unwrap() error { return e.err }

// OpsTable returns the address of the module's proto_ops table (in its
// writable data section, as in the Linux module).
func (p *Proto) OpsTable() mem.Addr { return p.M.Data + opsOff }

// IoctlSlot returns the address of the ioctl slot the exploit targets.
func (p *Proto) IoctlSlot() mem.Addr { return p.St.ProtoOpsSlot(p.OpsTable(), "ioctl") }

func (p *Proto) init(t *core.Thread, args []uint64) uint64 {
	mod := t.CurrentModule()
	ops := p.OpsTable()
	for slot, fn := range map[string]string{
		"bind": "bind", "sendmsg": "sendmsg", "recvmsg": "recvmsg",
		"ioctl": "ioctl", "release": "release",
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

// create allocates the per-socket state and links it into the global
// socket list. The new node and the list head are writable by this
// instance (the node is instance-owned; the head slot is in the shared
// data section), so no principal switch is needed to prepend.
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
	head := p.M.Data + headOff
	old, _ := t.ReadU64(head)
	if err := t.WriteU64(p.skField(mem.Addr(sk), "next"), old); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	if err := t.WriteU64(head, sk); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

func (p *Proto) bind(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	if err := t.WriteU64(p.skField(mem.Addr(sk), "station"), args[1]); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// sendmsg carries CVE-2010-3849: a NULL destination address (buf == 0)
// makes the module dereference NULL. The simulated fault is observable
// through LastOops; the exploit harness then runs the kernel's oops
// path (do_exit with KERNEL_DS still set).
func (p *Proto) sendmsg(t *core.Thread, args []uint64) uint64 {
	sock, buf, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
	if buf == 0 {
		// econet transmits over an internal kernel socket, so this path
		// runs under set_fs(KERNEL_DS)...
		t.KernelDS = true
		// ...and econet_sendmsg dereferences the destination without a
		// NULL check (CVE-2010-3849). The oops unwinds out of the module
		// with KERNEL_DS still set — the state CVE-2010-4258 abuses.
		if _, err := t.ReadU64(0); err != nil {
			p.LastOops = true
			return kernel.Err(kernel.EFAULT)
		}
		t.KernelDS = false
	}
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	cnt, _ := t.ReadU64(p.skField(mem.Addr(sk), "txcount"))
	if err := t.WriteU64(p.skField(mem.Addr(sk), "txcount"), cnt+1); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return n
}

func (p *Proto) recvmsg(t *core.Thread, args []uint64) uint64 {
	return 0 // nothing queued in this simulation
}

// ioctl carries CVE-2010-3850: SIOCSIFADDR should require
// capable(CAP_NET_ADMIN) but the check is missing, letting any user
// configure the AUN station — which is what arms the NULL-dereference
// path for unprivileged users.
func (p *Proto) ioctl(t *core.Thread, args []uint64) uint64 {
	cmd, arg := args[1], args[2]
	if cmd == SIOCSIFADDR {
		// MISSING: if capable() != 1 { return -EPERM } (CVE-2010-3850)
		p.Stations = append(p.Stations, arg)
		return 0
	}
	return kernel.Err(kernel.EINVAL)
}

// release unlinks the socket from the global list. Walking and patching
// other sockets' next pointers touches state owned by sibling instances,
// so the module switches to its global principal (Guideline 6). The
// preceding check — that the socket being released belongs to the
// caller's principal — is the guard that keeps this privileged section
// safe.
func (p *Proto) release(t *core.Thread, args []uint64) uint64 {
	sock := mem.Addr(args[0])
	sk, _ := t.ReadU64(p.St.SockField(sock, "sk"))
	if sk == 0 {
		return kernel.Err(kernel.EINVAL)
	}

	restore, err := t.SwitchGlobal()
	if err != nil {
		return kernel.Err(kernel.EPERM)
	}
	defer restore()

	head := p.M.Data + headOff
	cur, _ := t.ReadU64(head)
	if cur == sk {
		next, _ := t.ReadU64(p.skField(mem.Addr(sk), "next"))
		if err := t.WriteU64(head, next); err != nil {
			return kernel.Err(kernel.EFAULT)
		}
	} else {
		for cur != 0 {
			next, _ := t.ReadU64(p.skField(mem.Addr(cur), "next"))
			if next == sk {
				nn, _ := t.ReadU64(p.skField(mem.Addr(sk), "next"))
				if err := t.WriteU64(p.skField(mem.Addr(cur), "next"), nn); err != nil {
					return kernel.Err(kernel.EFAULT)
				}
				break
			}
			cur = next
		}
	}
	if _, err := p.gKfree.Call(t, sk); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	return 0
}

// SocketCount walks the module's global socket list (kernel-side
// introspection for tests).
func (p *Proto) SocketCount() int {
	n := 0
	cur, _ := p.K.Sys.AS.ReadU64(p.M.Data + headOff)
	for cur != 0 && n < 1<<16 {
		n++
		cur, _ = p.K.Sys.AS.ReadU64(mem.Addr(cur) + mem.Addr(p.sockLay.Off("next")))
	}
	return n
}

// TxCount returns the per-socket transmit counter.
func (p *Proto) TxCount(sock mem.Addr) uint64 {
	sk, _ := p.K.Sys.AS.ReadU64(p.St.SockField(sock, "sk"))
	v, _ := p.K.Sys.AS.ReadU64(mem.Addr(sk) + mem.Addr(p.sockLay.Off("txcount")))
	return v
}

// Sk returns the private state address of a socket.
func (p *Proto) Sk(sock mem.Addr) mem.Addr {
	sk, _ := p.K.Sys.AS.ReadU64(p.St.SockField(sock, "sk"))
	return mem.Addr(sk)
}
