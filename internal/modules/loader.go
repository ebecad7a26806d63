package modules

import (
	"fmt"
	"sync"
	"time"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

func init() {
	failpoint.Register("loader.load")
	failpoint.Register("loader.unload")
	failpoint.Register("loader.migrate")
}

// Loader loads, unloads, and hot-reloads registered modules against
// one boot context. It is safe for concurrent use, and lifecycle
// operations on *distinct* modules run concurrently: one module can be
// mid-quiesce while another swaps generations.
//
// Lock order (none of the four Coffman conditions can close into a
// cycle because no path holds one lock while waiting for another of
// the same rank):
//
//   - Loader.mu guards only the loaded map. It is a leaf taken for
//     map reads/writes and released before any lifecycle work,
//     substrate call, or loadedModule.mu acquisition.
//   - loadedModule.mu is the per-module lifecycle lock; Load, Unload,
//     and Reload hold it for their full critical section. A path that
//     ever needs the lifecycle locks of several modules must take them
//     in ascending module-name order (no current path takes two).
//   - loadedModule.instMu is a leaf below everything, guarding only
//     the inst pointer for readers that skip the lifecycle lock.
//   - BootContext.mu (substrate init) and the core/caps locks nest
//     strictly below a single lifecycle lock.
type Loader struct {
	BC *BootContext

	mu     sync.Mutex // leaf: guards the loaded map only
	loaded map[string]*loadedModule
}

type loadedModule struct {
	name string
	desc *Descriptor
	opt  any

	// mu serialises lifecycle operations (load/unload/reload) on this
	// module. Holders may call substrates and quiesce crossings; they
	// must not hold Loader.mu while doing so.
	mu sync.Mutex

	// instMu guards inst for readers that skip the lifecycle lock
	// (Instance, the supervisor's owner lookup). Mid-reload they
	// observe the outgoing generation, whose gates already park and
	// redirect, so a non-blocking read is always safe.
	instMu sync.Mutex
	inst   Instance
}

func (lm *loadedModule) instance() Instance {
	lm.instMu.Lock()
	defer lm.instMu.Unlock()
	return lm.inst
}

func (lm *loadedModule) setInstance(inst Instance) {
	lm.instMu.Lock()
	lm.inst = inst
	lm.instMu.Unlock()
}

// DefaultQuiesceTimeout bounds how long Reload waits for in-flight
// crossings to drain before aborting the reload: generous against
// scheduler noise, small against a hung crossing.
const DefaultQuiesceTimeout = 5 * time.Second

// NewLoader builds a loader with an empty boot context over k;
// substrates come up on demand as modules require them.
func NewLoader(k *kernel.Kernel) *Loader {
	return NewLoaderWith(&BootContext{K: k})
}

// NewLoaderWith builds a loader over a caller-shaped boot context
// (pre-plugged PCI devices, attached disks, ...).
func NewLoaderWith(bc *BootContext) *Loader {
	return &Loader{
		BC:     bc,
		loaded: make(map[string]*loadedModule),
	}
}

// lookup returns the published entry for name (nil if none).
func (l *Loader) lookup(name string) *loadedModule {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loaded[name]
}

// isCurrent re-checks, after taking a module's lifecycle lock, that the
// entry is still the published one: the module may have been unloaded
// (and even re-loaded as a distinct entry) while we waited.
func (l *Loader) isCurrent(name string, lm *loadedModule) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loaded[name] == lm
}

// Load boots the named module with default options.
func (l *Loader) Load(t *core.Thread, name string) (Instance, error) {
	return l.LoadWith(t, name, nil)
}

// LoadWith boots the named module, passing opt to its descriptor (nil
// selects the module's defaults).
func (l *Loader) LoadWith(t *core.Thread, name string, opt any) (Instance, error) {
	d, err := mustLookup(name)
	if err != nil {
		return nil, err
	}
	lm := &loadedModule{name: name, desc: d, opt: opt}
	// Publish the entry with its lifecycle lock already held
	// (uncontended — nobody else can see lm yet), so a concurrent
	// Unload/Reload of the same name waits for the load to finish
	// instead of operating on a half-booted module.
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l.mu.Lock()
	if _, dup := l.loaded[name]; dup {
		l.mu.Unlock()
		return nil, fmt.Errorf("modules: %s is already loaded", name)
	}
	l.loaded[name] = lm
	l.mu.Unlock()
	inst, err := l.load(t, d, opt)
	if err != nil {
		l.mu.Lock()
		delete(l.loaded, name)
		l.mu.Unlock()
		return nil, err
	}
	lm.setInstance(inst)
	return inst, nil
}

// load resolves the descriptor's substrates and boots one generation.
func (l *Loader) load(t *core.Thread, d *Descriptor, opt any) (Instance, error) {
	// Fault site: an injected error is a generation that failed to boot
	// (Reload's rollback path exercises it).
	if err := failpoint.InjectArg("loader.load", d.Name); err != nil {
		return nil, err
	}
	for _, req := range d.Requires {
		if err := l.BC.ensure(req); err != nil {
			return nil, err
		}
	}
	return d.Load(t, l.BC, opt)
}

// Instance returns the loaded instance for name, if any.
func (l *Loader) Instance(name string) (Instance, bool) {
	lm := l.lookup(name)
	if lm == nil {
		return nil, false
	}
	inst := lm.instance()
	if inst == nil {
		return nil, false // still booting
	}
	return inst, true
}

// Module returns the live core.Module for a loaded name.
func (l *Loader) Module(name string) (*core.Module, bool) {
	inst, ok := l.Instance(name)
	if !ok {
		return nil, false
	}
	return inst.Module(), true
}

// Loaded returns the names of currently loaded modules.
func (l *Loader) Loaded() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.loaded))
	for n := range l.loaded {
		out = append(out, n)
	}
	return out
}

// ownerOf maps a live core.Module name back to the loader entry name
// owning it (they normally coincide; the lookup tolerates descriptors
// whose instance module is named differently). The supervisor uses it
// to decide whether a violation concerns a module it manages.
func (l *Loader) ownerOf(moduleName string) (string, bool) {
	l.mu.Lock()
	entries := make([]*loadedModule, 0, len(l.loaded))
	for _, lm := range l.loaded {
		entries = append(entries, lm)
	}
	l.mu.Unlock()
	for _, lm := range entries {
		if inst := lm.instance(); inst != nil && inst.Module().Name == moduleName {
			return lm.name, true
		}
	}
	return "", false
}

// unloadHook runs the descriptor's Unload hook (plus the loader.unload
// fault site) for inst.
func (l *Loader) unloadHook(t *core.Thread, lm *loadedModule, inst Instance) error {
	if err := failpoint.InjectArg("loader.unload", lm.name); err != nil {
		return err
	}
	if lm.desc.Unload == nil {
		return nil
	}
	return lm.desc.Unload(t, l.BC, inst)
}

// Unload unhooks the named module from its substrates and unloads it
// from the system, revoking its capabilities.
func (l *Loader) Unload(t *core.Thread, name string) error {
	lm := l.lookup(name)
	if lm == nil {
		return fmt.Errorf("modules: %s is not loaded", name)
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if !l.isCurrent(name, lm) {
		return fmt.Errorf("modules: %s is not loaded", name)
	}
	if err := l.unloadHook(t, lm, lm.instance()); err != nil {
		return err
	}
	l.BC.K.Sys.UnloadModule(lm.instance().Module().Name)
	l.mu.Lock()
	delete(l.loaded, name)
	l.mu.Unlock()
	return nil
}

// ReloadStats reports what one hot reload did and what it cost.
type ReloadStats struct {
	Module    string `json:"module"`
	QuiesceNs int64  `json:"quiesce_ns"` // drain: new crossings parked, in-flight finished
	SwapNs    int64  `json:"swap_ns"`    // unhook, retire, fresh generation load
	MigrateNs int64  `json:"migrate_ns"` // capability snapshot replay into the successor
	TotalNs   int64  `json:"total_ns"`
	Instances int    `json:"instances"` // instance principals snapshotted
	Migrated  int    `json:"migrated"`  // capabilities re-granted in the successor
	Dropped   int    `json:"dropped"`   // capabilities cleanly revoked by the section filter
}

// Reload hot-swaps the named module for a freshly loaded generation:
//
//  1. Quiesce: new crossings park at the module's gates; in-flight
//     crossings drain (core.System.BeginReload).
//  2. Snapshot the instance principals' capabilities, run the
//     descriptor's Unload hook, and retire the old generation — its
//     name is freed and its capabilities revoked with an epoch bump,
//     but stale function-pointer slots still resolve.
//  3. Boot the fresh generation through the descriptor (same options),
//     migrate the snapshot into it — dropping capabilities that named
//     the old generation's sections or code — and publish it as the
//     successor. Parked crossings wake and re-bind; in-flight holders
//     of old gates or capabilities get violations under enforcement.
//
// If the fresh generation fails to load after the old one was retired,
// the loader rolls back: it boots another generation from the same
// descriptor (the retired code), migrates the capability snapshot into
// it, and publishes it — parked crossings resume against the rollback
// generation instead of failing with ErrModuleDead. Only when the
// rollback load fails too is the module dead and its name removed from
// the loader. An Unload-hook failure aborts the reload with the old
// generation intact.
//
// Only the reloading module's own lifecycle lock is held: reloads of
// distinct modules proceed concurrently (one can sit in quiesce while
// another swaps).
func (l *Loader) Reload(t *core.Thread, name string) (*ReloadStats, error) {
	lm := l.lookup(name)
	if lm == nil {
		return nil, fmt.Errorf("modules: %s is not loaded", name)
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if !l.isCurrent(name, lm) {
		return nil, fmt.Errorf("modules: %s is not loaded", name)
	}
	sys := l.BC.K.Sys
	oldM := lm.instance().Module()

	start := time.Now()
	if err := sys.BeginReload(oldM, DefaultQuiesceTimeout); err != nil {
		return nil, err
	}
	quiesced := time.Now()

	snap := oldM.Set.Snapshot()
	if err := l.unloadHook(t, lm, lm.instance()); err != nil {
		sys.AbortReload(oldM)
		return nil, fmt.Errorf("modules: %s unload hook: %w", name, err)
	}
	sys.RetireModule(oldM)

	inst, err := l.load(t, lm.desc, lm.opt)
	if err == nil {
		// Fault site: the fresh generation booted but its capability
		// migration is made to fail. Unhook and unload the unpublished
		// successor, then take the rollback path as if the load itself
		// had failed.
		if ferr := failpoint.InjectArg("loader.migrate", name); ferr != nil {
			_ = l.unloadHook(t, lm, inst)
			sys.UnloadModule(inst.Module().Name)
			inst, err = nil, ferr
		}
	}
	if err != nil {
		// Roll back: the old generation is already retired, but its
		// descriptor can still boot — load it again and migrate the
		// snapshot into the rollback generation so parked crossings
		// resume instead of dying with ErrModuleDead.
		rbInst, rbErr := l.load(t, lm.desc, lm.opt)
		if rbErr != nil {
			sys.FailReload(oldM)
			l.mu.Lock()
			delete(l.loaded, name)
			l.mu.Unlock()
			return nil, fmt.Errorf("modules: reload of %s failed (%v); rollback failed too, module is dead: %w", name, err, rbErr)
		}
		rbM := rbInst.Module()
		sys.Caps.MigrateSnapshot(rbM.Set, snap, sectionFilter(oldM))
		sys.CompleteReload(oldM, rbM)
		lm.setInstance(rbInst)
		return nil, fmt.Errorf("modules: reload of %s failed, rolled back to a fresh generation of the previous code: %w", name, err)
	}
	swapped := time.Now()

	newM := inst.Module()
	migrated, dropped := sys.Caps.MigrateSnapshot(newM.Set, snap, sectionFilter(oldM))
	sys.CompleteReload(oldM, newM)
	lm.setInstance(inst)
	end := time.Now()

	return &ReloadStats{
		Module:    name,
		QuiesceNs: quiesced.Sub(start).Nanoseconds(),
		SwapNs:    swapped.Sub(quiesced).Nanoseconds(),
		MigrateNs: end.Sub(swapped).Nanoseconds(),
		TotalNs:   end.Sub(start).Nanoseconds(),
		Instances: len(snap.Instances),
		Migrated:  migrated,
		Dropped:   dropped,
	}, nil
}

// sectionFilter builds the migration filter for a retiring generation:
// WRITE capabilities into its data sections, REF capabilities naming
// objects inside them, and CALL capabilities targeting its functions
// die with it — the successor has its own sections and exports.
// Everything else (kernel-heap WRITEs, device REFs, kernel-export
// CALLs) migrates.
func sectionFilter(old *core.Module) caps.CapFilter {
	type region struct {
		base mem.Addr
		size uint64
	}
	var regs []region
	if old.DataSize > 0 {
		regs = append(regs, region{old.Data, old.DataSize})
	}
	if old.RODataSize > 0 {
		regs = append(regs, region{old.ROData, old.RODataSize})
	}
	code := make(map[mem.Addr]bool, len(old.Funcs))
	for _, fn := range old.Funcs {
		code[fn.Addr] = true
	}
	return func(c caps.Cap) bool {
		switch c.Kind {
		case caps.Call:
			return !code[c.Addr]
		case caps.Write:
			for _, r := range regs {
				if c.Addr < r.base+mem.Addr(r.size) && r.base < c.Addr+mem.Addr(c.Size) {
					return false
				}
			}
		case caps.Ref:
			for _, r := range regs {
				if c.Addr >= r.base && c.Addr < r.base+mem.Addr(r.size) {
					return false
				}
			}
		}
		return true
	}
}
