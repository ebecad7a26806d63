// Package lxfi is the public API of the LXFI reproduction: software
// fault isolation with API integrity and multi-principal modules
// (Mao et al., SOSP 2011), built on a simulated Linux-like kernel.
//
// The package re-exports the core types and provides one-call boot
// helpers. The heavy lifting lives in the internal packages:
//
//	internal/core     — the LXFI reference monitor (capabilities,
//	                    principals, annotations, wrappers, writer sets)
//	internal/kernel   — the simulated core kernel
//	internal/netstack, internal/blockdev, internal/pci, internal/sound,
//	internal/vfs      — subsystem substrates (network, block, PCI,
//	                    sound, and the virtual filesystem layer with its
//	                    dentry and page caches)
//	internal/modules  — the ten isolated modules of the paper's Fig. 9,
//	                    plus the tmpfssim/minixsim filesystem modules,
//	                    and the descriptor registry + loader that boots,
//	                    unloads, and hot-reloads them by name
//	internal/exploits — the CVE exploits of Fig. 8 and the page-cache
//	                    scribble scenario
//
// Quick start:
//
//	machine, err := lxfi.Boot(lxfi.Enforce)
//	...
//	ld := machine.Loader()
//	inst, err := ld.Load(machine.Thread, "econet")
//
// (importing a module package — or lxfi/internal/modules/all for the
// whole Fig. 9 set — registers its descriptor; bespoke one-off modules
// still go through machine.Kernel.Sys.LoadModule with a ModuleSpec).
package lxfi

import (
	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/netstack"
	"lxfi/internal/pci"
	"lxfi/internal/sound"
	"lxfi/internal/vfs"
)

// Core types, re-exported for library users.
type (
	// System is the simulated machine plus the LXFI runtime.
	System = core.System
	// Thread is one simulated kernel thread; modules touch kernel state
	// only through it.
	Thread = core.Thread
	// Module is a loaded, isolated kernel module.
	Module = core.Module
	// ModuleSpec describes a module to load.
	ModuleSpec = core.ModuleSpec
	// FuncSpec describes one module function.
	FuncSpec = core.FuncSpec
	// Param is a function parameter (name + C type).
	Param = core.Param
	// Impl is a simulated function body.
	Impl = core.Impl
	// Mode selects stock or enforced execution.
	Mode = core.Mode
	// Violation describes a failed LXFI check.
	Violation = core.Violation
	// Gate is a bound module→kernel crossing (resolved at load time;
	// one variadic, allocation-free Call).
	Gate = core.Gate
	// FPtrType is an annotated function-pointer type; kernel
	// substrates make their checked indirect calls through it.
	FPtrType = core.FPtrType
	// Cap is a WRITE/REF/CALL capability.
	Cap = caps.Cap
	// Addr is a simulated virtual address.
	Addr = mem.Addr
	// Kernel is the simulated core kernel.
	Kernel = kernel.Kernel
	// Loader loads, unloads, and hot-reloads registered modules by name.
	Loader = modules.Loader
	// ModuleDescriptor registers a loadable module with the loader.
	ModuleDescriptor = modules.Descriptor
	// ReloadStats reports what one hot reload did and what it cost.
	ReloadStats = modules.ReloadStats
)

// Enforcement modes.
const (
	// Off runs modules without isolation (the stock-kernel baseline).
	Off = core.Off
	// Enforce runs all LXFI guards.
	Enforce = core.Enforce
)

// Capability constructors.
var (
	// WriteCap builds a WRITE(ptr, size) capability.
	WriteCap = caps.WriteCap
	// RefCap builds a REF(type, addr) capability.
	RefCap = caps.RefCap
	// CallCap builds a CALL(addr) capability.
	CallCap = caps.CallCap
)

// P builds a Param.
func P(name, typ string) Param { return core.P(name, typ) }

// Machine is a fully booted simulated machine with every subsystem
// substrate initialized.
type Machine struct {
	Kernel *kernel.Kernel
	Bus    *pci.Bus
	Net    *netstack.Stack
	Block  *blockdev.Layer
	Sound  *sound.Sound
	FS     *vfs.VFS
	Thread *core.Thread
}

// Boot creates a machine with all substrates under the given mode.
func Boot(mode Mode) (*Machine, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	k.ShmInit()
	m := &Machine{
		Kernel: k,
		Bus:    pci.Init(k),
		Net:    netstack.Init(k),
		Block:  blockdev.Init(k),
		Sound:  sound.Init(k),
	}
	m.FS = vfs.Init(k, m.Block)
	m.Thread = k.Sys.NewThread("main")
	return m, nil
}

// Loader returns a module loader over the machine's substrates:
// modules whose packages are linked in (each registers a descriptor in
// init) load by name, with dependency resolution, clean unload, and
// hot reload with capability migration.
func (m *Machine) Loader() *Loader {
	return modules.NewLoaderWith(&modules.BootContext{
		K:     m.Kernel,
		Bus:   m.Bus,
		Net:   m.Net,
		Block: m.Block,
		Snd:   m.Sound,
		FS:    m.FS,
	})
}

// NewKernel boots just the core kernel (no subsystem substrates) for
// minimal uses.
func NewKernel(mode Mode) *kernel.Kernel {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	return k
}
