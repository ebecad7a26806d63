// Package pci implements the simulated PCI subsystem: pci_dev objects,
// the annotated pci_driver.probe interface, and pci_enable_device — the
// running example of Figures 1 and 4 in the paper.
package pci

import (
	"fmt"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/layout"
	"lxfi/internal/mem"
)

// PciDev is the layout name of struct pci_dev.
const PciDev = "struct pci_dev"

// ProbeType is the registered fptr type for pci_driver.probe. Its
// annotation is the one from Fig. 4: the probe runs as the principal
// named by the pci_dev pointer, receives a REF capability for its
// device, and gives it back if probing fails.
const ProbeType = "pci_driver.probe"

// Bus is the simulated PCI bus.
type Bus struct {
	K *kernel.Kernel

	devs    []*Device
	drivers []*driver
	lay     *layout.Struct

	// gIrq is the registered irq_handler type handlers are called
	// through.
	gIrq *core.FPtrType
}

// Device is one simulated PCI device.
type Device struct {
	Addr    mem.Addr // address of its struct pci_dev
	Vendor  uint32
	DevID   uint32
	bound   bool
	Module  string // binding driver module
	irqFn   func(t *core.Thread)
	irqName string

	// HW is the device model's own state, such as a NIC's frame
	// queues. It belongs to the device, not to the driver bound to it,
	// so it outlives unbinding and driver reloads, and it is collected
	// with the bus.
	HW any
}

type driver struct {
	module  *core.Module
	probeFn string
	vendor  uint32
	devID   uint32
}

// Init creates the bus, registers layouts, the probe fptr type, and the
// PCI kernel exports.
func Init(k *kernel.Kernel) *Bus {
	b := &Bus{K: k}
	sys := k.Sys

	b.lay = sys.Layouts.Define(PciDev,
		layout.F("vendor", 4),
		layout.F("device", 4),
		layout.F("bar0", 8),
		layout.F("enabled", 8),
		layout.F("irq", 8),
	)

	sys.RegisterFPtrType(ProbeType,
		[]core.Param{core.P("pcidev", "struct pci_dev *")},
		"principal(pcidev) "+
			"pre(copy(ref(struct pci_dev), pcidev)) "+
			"post(if (return < 0) transfer(ref(struct pci_dev), pcidev))")

	// pci_enable_device (Fig. 4 line 66): callable only with a REF
	// capability for the pci_dev — a module cannot enable devices it does
	// not own, nor hand-crafted pci_dev structures.
	sys.RegisterKernelFunc("pci_enable_device",
		[]core.Param{core.P("pcidev", "struct pci_dev *")},
		"pre(check(ref(struct pci_dev), pcidev))",
		func(t *core.Thread, args []uint64) uint64 {
			dev := b.DeviceAt(mem.Addr(args[0]))
			if dev == nil {
				return kernel.Err(kernel.ENOENT)
			}
			if err := sys.AS.WriteU64(dev.Addr+mem.Addr(b.lay.Off("enabled")), 1); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			return 0
		})

	sys.RegisterKernelFunc("pci_disable_device",
		[]core.Param{core.P("pcidev", "struct pci_dev *")},
		"pre(check(ref(struct pci_dev), pcidev))",
		func(t *core.Thread, args []uint64) uint64 {
			dev := b.DeviceAt(mem.Addr(args[0]))
			if dev == nil {
				return kernel.Err(kernel.ENOENT)
			}
			if err := sys.AS.WriteU64(dev.Addr+mem.Addr(b.lay.Off("enabled")), 0); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			return 0
		})

	// request_irq(pcidev, handler): the module registers its interrupt
	// handler; it must own the device and the handler must be code it
	// could call itself ("the module should be able to provide only
	// pointers to functions that the module itself can invoke", §2.2).
	b.gIrq = sys.RegisterFPtrType("irq_handler",
		[]core.Param{core.P("pcidev", "struct pci_dev *")},
		"principal(pcidev)")
	sys.RegisterKernelFunc("request_irq",
		[]core.Param{core.P("pcidev", "struct pci_dev *"), core.P("handler", "irq_handler_t")},
		"pre(check(ref(struct pci_dev), pcidev)) pre(check(call, handler))",
		func(t *core.Thread, args []uint64) uint64 {
			dev := b.DeviceAt(mem.Addr(args[0]))
			if dev == nil {
				return kernel.Err(kernel.ENOENT)
			}
			handler := mem.Addr(args[1])
			dev.irqFn = func(th *core.Thread) {
				_, _ = b.gIrq.CallAddr(th, handler, uint64(dev.Addr))
			}
			return 0
		})

	return b
}

// AddDevice plugs a new device into the bus.
func (b *Bus) AddDevice(vendor, devID uint32) *Device {
	sys := b.K.Sys
	addr := sys.Statics.Alloc(b.lay.Size, 8)
	must(sys.AS.WriteU32(addr+mem.Addr(b.lay.Off("vendor")), vendor))
	must(sys.AS.WriteU32(addr+mem.Addr(b.lay.Off("device")), devID))
	d := &Device{Addr: addr, Vendor: vendor, DevID: devID}
	b.devs = append(b.devs, d)
	return d
}

// RegisterDriver binds a module's probe function to a (vendor, device)
// pair and probes all matching unbound devices, as the core kernel does
// on module load (Fig. 1 line 20).
func (b *Bus) RegisterDriver(t *core.Thread, m *core.Module, probeFn string, vendor, devID uint32) error {
	fn, ok := m.Funcs[probeFn]
	if !ok {
		return fmt.Errorf("pci: module %s has no function %q", m.Name, probeFn)
	}
	// The probe function must carry the pci_driver.probe annotations
	// (annotation propagation has already verified equality if both were
	// given).
	ft, _ := b.K.Sys.FPtrType(ProbeType)
	if fn.Annot.Hash() != ft.Annot.Hash() {
		return fmt.Errorf("pci: %s.%s does not carry pci_driver.probe annotations", m.Name, probeFn)
	}
	b.drivers = append(b.drivers, &driver{module: m, probeFn: probeFn, vendor: vendor, devID: devID})
	for _, d := range b.devs {
		if !d.bound && d.Vendor == vendor && d.DevID == devID {
			ret, err := t.CallModule(m, probeFn, uint64(d.Addr))
			if err != nil {
				return err
			}
			if !kernel.IsErr(ret) {
				d.bound = true
				d.Module = m.Name
			}
		}
	}
	return nil
}

// Unbind detaches the named module from the bus: devices it bound
// become probe-able again and its driver registrations are dropped, so
// a reloaded generation re-probes the hardware through RegisterDriver
// exactly as a fresh load would.
func (b *Bus) Unbind(moduleName string) {
	for _, d := range b.devs {
		if d.Module == moduleName {
			d.bound = false
			d.Module = ""
			d.irqFn = nil
			d.irqName = ""
		}
	}
	keep := b.drivers[:0]
	for _, dr := range b.drivers {
		if dr.module.Name != moduleName {
			keep = append(keep, dr)
		}
	}
	b.drivers = keep
}

// Enabled reports whether the device has been enabled.
func (b *Bus) Enabled(d *Device) bool {
	v, _ := b.K.Sys.AS.ReadU64(d.Addr + mem.Addr(b.lay.Off("enabled")))
	return v == 1
}

// RaiseIRQ delivers an interrupt to the device's registered handler,
// running it in module context via the interrupt-save path.
func (b *Bus) RaiseIRQ(t *core.Thread, d *Device) {
	if d.irqFn == nil {
		return
	}
	d.irqFn(t)
}

// Devices returns all devices on the bus.
func (b *Bus) Devices() []*Device { return b.devs }

// DeviceAt returns the device whose struct pci_dev is at addr, or nil.
func (b *Bus) DeviceAt(addr mem.Addr) *Device {
	for _, d := range b.devs {
		if d.Addr == addr {
			return d
		}
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
