// Package kernel implements the simulated core kernel that modules are
// isolated from: tasks and credentials, the pid hash table, uaccess
// (copy_{to,from}_user with the KERNEL_DS pitfall of CVE-2010-4258),
// spinlocks, the SysV shm objects used by the CAN BCM exploit, and the
// memory-allocator exports with their LXFI annotations.
//
// Everything here is "core kernel" in LXFI's threat model: fully
// trusted, running with a nil principal.
package kernel

import (
	"fmt"
	"sync"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

// Errno values (returned as negative numbers in the usual kernel style).
const (
	EPERM   = 1
	ENOENT  = 2
	EIO     = 5
	ENOMEM  = 12
	EFAULT  = 14
	EBUSY   = 16
	EEXIST  = 17
	EXDEV   = 18
	ENOTDIR = 20
	EISDIR  = 21
	EINVAL  = 22
	EFBIG   = 27
	ENOSPC  = 28
	ENOSYS  = 38
	// ENETDOWN is what the socket layer surfaces while a protocol or
	// driver module is quarantined (graceful degradation of crossings
	// that would otherwise fail with a raw gate error).
	ENETDOWN = 100
)

// Err encodes -errno as a uint64 return value.
func Err(errno int64) uint64 { return uint64(-errno) }

// IsErr reports whether a return value encodes an error.
func IsErr(v uint64) bool { return int64(v) < 0 }

// PidHashBuckets is the size of the simulated pid hash table.
const PidHashBuckets = 16

// Kernel is the simulated core kernel.
//
// mu guards the small mutable kernel tables (pid counter, timer wheel,
// port space, printk log, daemon list); it is a leaf lock, never held
// across a call into module code.
type Kernel struct {
	Sys *core.System

	mu      sync.Mutex
	pidHash mem.Addr // array of PidHashBuckets u64 chain heads
	nextPid uint64

	taskLayout *layout.Struct
	shmLayout  *layout.Struct

	// ports is the simulated I/O port space (see ioport.go).
	ports map[uint64]uint8

	// The registered function-pointer types of the shm ctl slot and
	// timer callbacks, kept by ShmInit/TimerInit.
	gShmCtl  *core.FPtrType
	gTimerFn *core.FPtrType

	// timer state (see timer.go).
	timerOn     bool
	timers      []timer
	nextTimerID uint64
	now         uint64

	logs []string

	// daemons are background kernel threads (goroutine-backed), e.g. the
	// VFS writeback flusher. Shutdown stops and joins them.
	daemons []*daemon
}

// daemon is one background kernel thread.
type daemon struct {
	name string
	stop chan struct{}
	h    *core.ThreadHandle
}

// SpawnDaemon starts a background kernel thread (a kthread): run
// executes on its own goroutine-backed Thread and should return when the
// stop channel closes. Subsystems register daemons at boot — the VFS
// writeback flusher is spawned this way from vfs.Init.
func (k *Kernel) SpawnDaemon(name string, run func(t *core.Thread, stop <-chan struct{})) {
	d := &daemon{name: name, stop: make(chan struct{})}
	d.h = k.Sys.Spawn(name, func(t *core.Thread) { run(t, d.stop) })
	k.mu.Lock()
	k.daemons = append(k.daemons, d)
	k.mu.Unlock()
}

// Shutdown stops every background daemon and waits for it to exit. Safe
// to call more than once.
func (k *Kernel) Shutdown() {
	k.mu.Lock()
	ds := k.daemons
	k.daemons = nil
	k.mu.Unlock()
	for _, d := range ds {
		close(d.stop)
		d.h.Join()
	}
}

// Layout names registered by this package.
const (
	TaskStruct = "struct task_struct"
	ShmKernel  = "struct shmid_kernel"
)

// New boots a simulated kernel on a fresh core.System.
func New() *Kernel {
	sys := core.NewSystem()
	k := &Kernel{Sys: sys, nextPid: 1}

	k.taskLayout = sys.Layouts.Define(TaskStruct,
		layout.F("pid", 8),
		layout.F("uid", 8),
		layout.F("euid", 8),
		layout.F("clear_child_tid", 8),
		layout.F("next", 8), // pid hash chain
		layout.F("comm", 16),
	)
	// shmid_kernel is deliberately in the 16-byte size class so that it
	// can sit adjacent to the CAN BCM module's undersized buffer, as in
	// Oberheide's exploit (§8.1).
	k.shmLayout = sys.Layouts.Define(ShmKernel,
		layout.F("ops", 8), // pointer to shm operations table
		layout.F("perm", 8),
	)
	sys.Layouts.Define("spinlock_t", layout.F("val", 8))

	k.pidHash = sys.Statics.Alloc(8*PidHashBuckets, 8)

	sys.RegisterConst("EPERM", EPERM)
	sys.RegisterConst("ENOENT", ENOENT)
	sys.RegisterConst("EIO", EIO)
	sys.RegisterConst("ENOMEM", ENOMEM)
	sys.RegisterConst("EFAULT", EFAULT)
	sys.RegisterConst("EBUSY", EBUSY)
	sys.RegisterConst("EEXIST", EEXIST)
	sys.RegisterConst("EXDEV", EXDEV)
	sys.RegisterConst("ENOTDIR", ENOTDIR)
	sys.RegisterConst("EISDIR", EISDIR)
	sys.RegisterConst("EINVAL", EINVAL)
	sys.RegisterConst("EFBIG", EFBIG)
	sys.RegisterConst("ENOSPC", ENOSPC)
	sys.RegisterConst("ENOSYS", ENOSYS)

	k.registerExports()
	return k
}

// Enforce switches LXFI on.
func (k *Kernel) Enforce() { k.Sys.Mon.SetMode(core.Enforce) }

// Stock switches LXFI off (baseline kernel).
func (k *Kernel) Stock() { k.Sys.Mon.SetMode(core.Off) }

// Log returns a snapshot of the printk log.
func (k *Kernel) Log() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.logs...)
}

// Printk appends to the kernel log (trusted-side helper).
func (k *Kernel) Printk(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k.mu.Lock()
	k.logs = append(k.logs, msg)
	k.mu.Unlock()
}

// --- exported kernel API (the functions modules import) ---

func (k *Kernel) registerExports() {
	sys := k.Sys

	// alloc_caps resolves an allocation's base address to a WRITE
	// capability for its *actual* allocated size (the slab class size).
	// A pointer that is not a live allocation (freed, forged, interior)
	// still emits a one-byte probe: the caller cannot own it, so kfree
	// double-frees and wild frees fail the transfer's ownership check.
	sys.RegisterIterator("alloc_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		addr := mem.Addr(uint64(args[0]))
		if addr == 0 {
			return nil
		}
		size, ok := sys.Slab.ObjectSize(addr)
		if !ok {
			return emit(caps.WriteCap(addr, 1))
		}
		return emit(caps.WriteCap(addr, size))
	})

	// Memory allocator. The post annotation transfers a WRITE capability
	// for the memory actually allocated — which is what defeats the CAN
	// BCM integer overflow (§8.1): "LXFI will grant the module a WRITE
	// capability for only the number of bytes corresponding to the
	// actual allocation size, rather than what the module asked for."
	sys.RegisterKernelFunc("kmalloc",
		[]core.Param{core.P("size", "size_t")},
		"post(if (return != 0) transfer(alloc_caps(return)))",
		func(t *core.Thread, args []uint64) uint64 {
			a, err := sys.Slab.Alloc(args[0])
			if err != nil {
				return 0
			}
			return uint64(a)
		})

	// kfree uses a transfer with a capability iterator so that *no*
	// principal retains write access to freed memory.
	sys.RegisterKernelFunc("kfree",
		[]core.Param{core.P("ptr", "void *")},
		"pre(transfer(alloc_caps(ptr)))",
		func(t *core.Thread, args []uint64) uint64 {
			if args[0] == 0 {
				return 0
			}
			_ = sys.Slab.Free(mem.Addr(args[0]))
			return 0
		})

	// spin_lock_init writes zero through its argument — the §1 example of
	// a "harmless" routine that needs a check annotation.
	for _, fn := range []struct {
		name string
		v    uint64
	}{{"spin_lock_init", 0}, {"spin_lock", 1}, {"spin_unlock", 0}} {
		v := fn.v
		sys.RegisterKernelFunc(fn.name,
			[]core.Param{core.P("lock", "spinlock_t *")},
			"pre(check(write, lock, 8))",
			func(t *core.Thread, args []uint64) uint64 {
				if err := sys.AS.WriteU64(mem.Addr(args[0]), v); err != nil {
					return Err(EFAULT)
				}
				return 0
			})
	}

	sys.RegisterKernelFunc("printk",
		[]core.Param{core.P("msg", "const char *")},
		"",
		func(t *core.Thread, args []uint64) uint64 {
			s, err := sys.AS.ReadCString(mem.Addr(args[0]), 256)
			if err != nil {
				return Err(EFAULT)
			}
			k.mu.Lock()
			k.logs = append(k.logs, s)
			k.mu.Unlock()
			return 0
		})

	// copy_from_user(to, from, n): the *callee* (kernel) writes n bytes
	// at to on the module's behalf, so the module must prove WRITE
	// ownership of the destination. The RDS vulnerability is exactly a
	// module passing an unchecked user-controlled `to` here.
	sys.RegisterKernelFunc("copy_from_user",
		[]core.Param{core.P("to", "void *"), core.P("from", "const void *"), core.P("n", "size_t")},
		"pre(check(write, to, n))",
		func(t *core.Thread, args []uint64) uint64 {
			to, from, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
			if !k.accessOK(t, from, n) {
				return Err(EFAULT)
			}
			buf := make([]byte, n)
			if err := sys.AS.Read(from, buf); err != nil {
				return Err(EFAULT)
			}
			if err := sys.AS.Write(to, buf); err != nil {
				return Err(EFAULT)
			}
			return 0
		})

	// uaccess_dst models the contract of the no-access_ok uaccess
	// variants (__copy_to_user / __copy_from_user): a user-space
	// destination needs no capability (the hardware protects the kernel),
	// but a kernel-space destination must be memory the module owns.
	sys.RegisterIterator("uaccess_dst", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		to := mem.Addr(uint64(args[0]))
		n := uint64(args[1])
		if mem.IsUser(to) && mem.IsUser(to+mem.Addr(n)) {
			return nil
		}
		return emit(caps.WriteCap(to, n))
	})

	// __copy_to_user: the double-underscore variant skips access_ok — its
	// callers are supposed to have checked already. rds_page_copy_user
	// famously had not (CVE-2010-3904). The LXFI annotation restores the
	// contract: kernel-space destinations require WRITE ownership.
	rawCopy := func(t *core.Thread, args []uint64) uint64 {
		to, from, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
		buf := make([]byte, n)
		if err := sys.AS.Read(from, buf); err != nil {
			return Err(EFAULT)
		}
		if err := sys.AS.Write(to, buf); err != nil {
			return Err(EFAULT)
		}
		return 0
	}
	sys.RegisterKernelFunc("__copy_to_user",
		[]core.Param{core.P("to", "void *"), core.P("from", "const void *"), core.P("n", "size_t")},
		"pre(check(uaccess_dst(to, n)))",
		rawCopy)
	sys.RegisterKernelFunc("__copy_from_user",
		[]core.Param{core.P("to", "void *"), core.P("from", "const void *"), core.P("n", "size_t")},
		"pre(check(uaccess_dst(to, n)))",
		rawCopy)

	sys.RegisterKernelFunc("copy_to_user",
		[]core.Param{core.P("to", "void *"), core.P("from", "const void *"), core.P("n", "size_t")},
		"",
		func(t *core.Thread, args []uint64) uint64 {
			to, from, n := mem.Addr(args[0]), mem.Addr(args[1]), args[2]
			if !k.accessOK(t, to, n) {
				return Err(EFAULT)
			}
			buf := make([]byte, n)
			if err := sys.AS.Read(from, buf); err != nil {
				return Err(EFAULT)
			}
			if err := sys.AS.Write(to, buf); err != nil {
				return Err(EFAULT)
			}
			return 0
		})

	// capable(CAP_NET_ADMIN)-style check: true iff current euid is root.
	sys.RegisterKernelFunc("capable",
		[]core.Param{core.P("cap", "int")},
		"",
		func(t *core.Thread, args []uint64) uint64 {
			if t.Task == 0 {
				return 0
			}
			euid, _ := sys.AS.ReadU64(t.Task + mem.Addr(k.taskLayout.Off("euid")))
			if euid == 0 {
				return 1
			}
			return 0
		})

	// commit_creds/prepare_kernel_cred: the classic privilege-escalation
	// payload pair. Exported (the attacker payloads reference them), but
	// deliberately unannotated: no module has any business calling them,
	// so LXFI's safe default keeps them unreachable from module context.
	sys.RegisterUnannotatedKernelFunc("prepare_kernel_cred",
		[]core.Param{core.P("daemon", "struct task_struct *")},
		func(t *core.Thread, args []uint64) uint64 { return 0 })
	sys.RegisterUnannotatedKernelFunc("commit_creds",
		[]core.Param{core.P("cred", "struct cred *")},
		func(t *core.Thread, args []uint64) uint64 {
			if t.Task != 0 {
				k.SetTaskUID(t.Task, 0)
			}
			return 0
		})

	// detach_pid unlinks a task from the pid hash — the rootkit
	// primitive of §8.1 ("Other exploits"). Unannotated: modules may not
	// call it.
	sys.RegisterUnannotatedKernelFunc("detach_pid",
		[]core.Param{core.P("task", "struct task_struct *")},
		func(t *core.Thread, args []uint64) uint64 {
			k.DetachPid(mem.Addr(args[0]))
			return 0
		})
}

// accessOK models access_ok(): user pointers are always fine; kernel
// pointers only pass when the thread runs with KERNEL_DS — the exact
// hole CVE-2010-4258 exploits.
func (k *Kernel) accessOK(t *core.Thread, addr mem.Addr, n uint64) bool {
	if t.KernelDS {
		return true
	}
	return mem.IsUser(addr) && mem.IsUser(addr+mem.Addr(n))
}

// AccessOK exposes accessOK to module code implementing uaccess-style
// checks of their own.
func (k *Kernel) AccessOK(t *core.Thread, addr mem.Addr, n uint64) bool {
	return k.accessOK(t, addr, n)
}

// --- tasks ---

// TaskField returns the address of a named task_struct field.
func (k *Kernel) TaskField(task mem.Addr, field string) mem.Addr {
	return task + mem.Addr(k.taskLayout.Off(field))
}

// CreateTask allocates a task_struct with the given uid, inserts it into
// the pid hash, and returns its address.
func (k *Kernel) CreateTask(comm string, uid uint64) mem.Addr {
	task := k.Sys.Statics.Alloc(k.taskLayout.Size, 8)
	k.mu.Lock()
	defer k.mu.Unlock()
	pid := k.nextPid
	k.nextPid++
	as := k.Sys.AS
	must(as.WriteU64(k.TaskField(task, "pid"), pid))
	must(as.WriteU64(k.TaskField(task, "uid"), uid))
	must(as.WriteU64(k.TaskField(task, "euid"), uid))
	if len(comm) > 15 {
		comm = comm[:15]
	}
	must(as.WriteCString(k.TaskField(task, "comm"), comm))
	// Insert at the head of the hash chain.
	bucket := k.pidHash + mem.Addr(8*(pid%PidHashBuckets))
	head, _ := as.ReadU64(bucket)
	must(as.WriteU64(k.TaskField(task, "next"), head))
	must(as.WriteU64(bucket, uint64(task)))
	return task
}

// TaskPID returns a task's pid.
func (k *Kernel) TaskPID(task mem.Addr) uint64 {
	v, _ := k.Sys.AS.ReadU64(k.TaskField(task, "pid"))
	return v
}

// TaskUID returns a task's uid.
func (k *Kernel) TaskUID(task mem.Addr) uint64 {
	v, _ := k.Sys.AS.ReadU64(k.TaskField(task, "uid"))
	return v
}

// SetTaskUID sets uid and euid (commit_creds).
func (k *Kernel) SetTaskUID(task mem.Addr, uid uint64) {
	must(k.Sys.AS.WriteU64(k.TaskField(task, "uid"), uid))
	must(k.Sys.AS.WriteU64(k.TaskField(task, "euid"), uid))
}

// SetCurrent makes task the thread's current task.
func (k *Kernel) SetCurrent(t *core.Thread, task mem.Addr) { t.Task = task }

// SetClearChildTid sets the task's clear_child_tid pointer (normally a
// benign user-space address set via set_tid_address(2); attackers set it
// to a kernel address).
func (k *Kernel) SetClearChildTid(task, addr mem.Addr) {
	must(k.Sys.AS.WriteU64(k.TaskField(task, "clear_child_tid"), uint64(addr)))
}

// LookupPid walks the pid hash chain; returns 0 if the pid is unlinked
// (this is what `ps` sees).
func (k *Kernel) LookupPid(pid uint64) mem.Addr {
	bucket := k.pidHash + mem.Addr(8*(pid%PidHashBuckets))
	cur, _ := k.Sys.AS.ReadU64(bucket)
	for cur != 0 {
		if k.TaskPID(mem.Addr(cur)) == pid {
			return mem.Addr(cur)
		}
		cur, _ = k.Sys.AS.ReadU64(k.TaskField(mem.Addr(cur), "next"))
	}
	return 0
}

// DetachPid unlinks a task from the pid hash (the rootkit primitive).
func (k *Kernel) DetachPid(task mem.Addr) {
	pid := k.TaskPID(task)
	bucket := k.pidHash + mem.Addr(8*(pid%PidHashBuckets))
	as := k.Sys.AS
	cur, _ := as.ReadU64(bucket)
	if mem.Addr(cur) == task {
		next, _ := as.ReadU64(k.TaskField(task, "next"))
		must(as.WriteU64(bucket, next))
		return
	}
	prev := mem.Addr(cur)
	for prev != 0 {
		next, _ := as.ReadU64(k.TaskField(prev, "next"))
		if mem.Addr(next) == task {
			nn, _ := as.ReadU64(k.TaskField(task, "next"))
			must(as.WriteU64(k.TaskField(prev, "next"), nn))
			return
		}
		prev = mem.Addr(next)
	}
}

// DoExit models the buggy do_exit of CVE-2010-4258: when a task dies,
// the kernel writes a zero through clear_child_tid *without resetting
// the addr_limit context*, so with KERNEL_DS in effect the check of the
// user-provided pointer is omitted and the zero lands at an arbitrary
// kernel address.
func (k *Kernel) DoExit(t *core.Thread) {
	if t.Task == 0 {
		return
	}
	tid, _ := k.Sys.AS.ReadU64(k.TaskField(t.Task, "clear_child_tid"))
	if tid == 0 {
		return
	}
	// put_user(0, (int __user *)tid) — a 32-bit zero store.
	if k.accessOK(t, mem.Addr(tid), 4) {
		_ = k.Sys.AS.WriteU32(mem.Addr(tid), 0)
	}
}

// Oops models the kernel's NULL-dereference handler: it logs and kills
// the current task via DoExit — with addr_limit still set, per the CVE.
func (k *Kernel) Oops(t *core.Thread, what string) {
	k.Printk("BUG: unable to handle kernel NULL pointer dereference (%s)", what)
	k.DoExit(t)
}

// --- SysV shm (the CAN BCM exploit's victim object) ---

// ShmOpsSlot is the registered fptr type for shm_operations.ctl.
const ShmOpsSlot = "shm_operations.ctl"

// ShmInit registers the shm fptr type and default operations table; call
// once after New when the shm subsystem is needed.
func (k *Kernel) ShmInit() {
	k.gShmCtl = k.Sys.RegisterFPtrType(ShmOpsSlot,
		[]core.Param{core.P("shm", "struct shmid_kernel *"), core.P("cmd", "int")},
		"")
	k.Sys.RegisterKernelFunc("shm_default_ctl",
		[]core.Param{core.P("shm", "struct shmid_kernel *"), core.P("cmd", "int")},
		"",
		func(t *core.Thread, args []uint64) uint64 { return 0 })
}

// NewShmSegment allocates a shmid_kernel from the slab (size class 16)
// with its ops pointing at a static table whose ctl slot holds
// shm_default_ctl.
func (k *Kernel) NewShmSegment() (shm mem.Addr, err error) {
	shm, aerr := k.Sys.Slab.Alloc(k.shmLayout.Size)
	if aerr != nil {
		return 0, aerr
	}
	ctl, ok := k.Sys.FuncByName("shm_default_ctl")
	if !ok {
		return 0, fmt.Errorf("kernel: ShmInit not called")
	}
	table := k.Sys.Statics.Alloc(8, 8)
	must(k.Sys.AS.WriteU64(table, uint64(ctl.Addr)))
	must(k.Sys.AS.WriteU64(shm+mem.Addr(k.shmLayout.Off("ops")), uint64(table)))
	return shm, nil
}

// ShmCtl is the kernel path the exploit triggers (shmctl(2)): it loads
// the ops table pointer from the shmid_kernel and indirect-calls the ctl
// slot.
func (k *Kernel) ShmCtl(t *core.Thread, shm mem.Addr, cmd uint64) (uint64, error) {
	table, err := k.Sys.AS.ReadU64(shm + mem.Addr(k.shmLayout.Off("ops")))
	if err != nil {
		return 0, err
	}
	return k.gShmCtl.Call(t, mem.Addr(table), uint64(shm), cmd)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
