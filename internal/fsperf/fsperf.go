// Package fsperf measures filesystem overhead under LXFI the way
// netperf measures the network paths: real per-operation CPU costs of
// the full VFS paths (dentry-cache walk, checked indirect calls into the
// filesystem module, page-cache WRITE/REF capability transfers,
// instrumented module writes) on the stock build and under enforcement.
//
// Two rigs are available: the ramfs-style tmpfssim and the block-backed
// minixsim (whose data path additionally crosses the blockdev
// substrate). The workload mix is the classic metadata+data blend:
// create, write+sync, cold read, warm read, stat, unlink.
package fsperf

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lxfi/internal/benchio"
	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	_ "lxfi/internal/modules/all"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// Kind selects the filesystem under test.
type Kind string

// The two benchmark filesystems.
const (
	Tmpfs Kind = "tmpfs"
	Minix Kind = "minix"
)

// DefaultFileSize keeps files at two pages — big enough to exercise the
// multi-page paths, small enough to stay under minixsim's extent cap.
const DefaultFileSize = 2 * mem.PageSize

// Rig is a bootable filesystem test bench.
type Rig struct {
	K      *kernel.Kernel
	B      *blockdev.Layer
	V      *vfs.VFS
	Ld     *modules.Loader
	Th     *core.Thread
	SB     mem.Addr
	Kind   Kind
	Module string // loaded module name (for reloads)
	FsID   uint64 // registered filesystem id (for remounting)
	Dev    uint64 // backing device id
}

// Close shuts the rig's kernel down (stopping the background writeback
// flusher daemon the VFS spawned at boot).
func (r *Rig) Close() { r.K.Shutdown() }

// NewRig boots a kernel + blockdev + vfs with the chosen filesystem
// module loaded (through the descriptor registry) and mounted under the
// given mode.
func NewRig(mode core.Mode, kind Kind) (*Rig, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("fsperf")
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl, FS: v})
	r := &Rig{K: k, B: bl, V: v, Ld: ld, Th: th, Kind: kind}
	switch kind {
	case Tmpfs:
		r.Module, r.FsID, r.Dev = "tmpfssim", tmpfssim.FsID, 0
	case Minix:
		bl.AddDisk(1, minixsim.DiskSectors)
		r.Module, r.FsID, r.Dev = "minixsim", minixsim.FsID, 1
	default:
		return nil, fmt.Errorf("fsperf: unknown filesystem kind %q", kind)
	}
	if _, err := ld.Load(th, r.Module); err != nil {
		return nil, err
	}
	var err error
	r.SB, err = v.Mount(th, r.FsID, r.Dev)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// OpCycle runs one full file lifetime — create, write, sync, read, stat,
// unlink — with a sequence-unique name. It is the benchmark unit of
// BenchmarkFsperf*.
func (r *Rig) OpCycle(seq int, payload []byte) error {
	path := fmt.Sprintf("/cyc%07d", seq)
	if _, err := r.V.Create(r.Th, r.SB, path); err != nil {
		return err
	}
	if _, err := r.V.Write(r.Th, r.SB, path, 0, payload); err != nil {
		return err
	}
	if err := r.V.Sync(r.Th, r.SB); err != nil {
		return err
	}
	if _, err := r.V.Read(r.Th, r.SB, path, 0, uint64(len(payload))); err != nil {
		return err
	}
	if _, _, err := r.V.Stat(r.Th, r.SB, path); err != nil {
		return err
	}
	return r.V.Unlink(r.Th, r.SB, path)
}

// measureRounds mirrors netperf: the minimum of several rounds
// suppresses scheduler noise.
const measureRounds = 3

// Ops is the measured operation list, in report order. "read cold" and
// "remount" only apply to disk-backed filesystems; memory-only mounts
// omit those rows rather than mislabel a warm path.
var Ops = []string{"create", "write+sync", "read cold", "read warm", "stat",
	"readdir", "rename", "cache pressure", "remount", "unlink"}

// Costs holds measured per-operation CPU costs (ns/op) for one
// filesystem under both builds, plus the mount's writeback counters
// (pages flushed through writepage, dirty victims the LRU policy had to
// write back in the foreground) observed over the run.
type Costs struct {
	Kind Kind
	Op   map[string]map[core.Mode]float64
	WB   map[core.Mode]vfs.WritebackStats
	// Metrics is the enforced rig's monitor-metrics snapshot, taken
	// after the measurement (guard counters, violation map, latency
	// histogram). Diagnostic output only — never part of BENCH reports.
	Metrics *core.MetricsSnapshot
}

// timed runs body over n items and returns ns per item.
func timed(n int, body func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := body(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// best runs the measurement several rounds and keeps the minimum.
func best(rounds, n int, setup func() error, body func(i int) error) (float64, error) {
	out := 0.0
	for r := 0; r < rounds; r++ {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		ns, err := timed(n, body)
		if err != nil {
			return 0, err
		}
		if out == 0 || ns < out {
			out = ns
		}
	}
	return out, nil
}

// measureMode fills costs for one mode on a fresh rig.
func measureMode(kind Kind, mode core.Mode, files int, fileSize uint64, c *Costs) error {
	rig, err := NewRig(mode, kind)
	if err != nil {
		return err
	}
	defer rig.Close()
	v, th, sb := rig.V, rig.Th, rig.SB
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	path := func(i int) string { return fmt.Sprintf("/f%05d", i) }
	// Writeback counters live on the mount, so the remount phase resets
	// them; accumulate across every mount generation.
	var wbAcc vfs.WritebackStats
	accWB := func() {
		if st, ok := v.WritebackStats(sb); ok {
			wbAcc.PagesFlushed += st.PagesFlushed
			wbAcc.ForcedForeground += st.ForcedForeground
		}
	}
	set := func(op string, ns float64) {
		if c.Op[op] == nil {
			c.Op[op] = make(map[core.Mode]float64)
		}
		c.Op[op][mode] = ns
	}

	// create: fresh names each round, unlinked untimed afterwards so the
	// module's directory list stays the same size across rounds.
	round := 0
	ns, err := best(measureRounds, files, func() error { round++; return nil }, func(i int) error {
		_, err := v.Create(th, sb, fmt.Sprintf("/c%d_%05d", round, i))
		return err
	})
	if err != nil {
		return err
	}
	for r := 1; r <= round; r++ {
		for i := 0; i < files; i++ {
			_ = v.Unlink(th, sb, fmt.Sprintf("/c%d_%05d", r, i))
		}
	}
	set("create", ns)

	// Standing file set for the data and metadata ops.
	for i := 0; i < files; i++ {
		if _, err := v.Create(th, sb, path(i)); err != nil {
			return err
		}
	}

	// write+sync: every round dirties all files, then one sync writes
	// them back (the writepage REF crossings).
	ns, err = best(measureRounds, files, nil, func(i int) error {
		if _, err := v.Write(th, sb, path(i), 0, payload); err != nil {
			return err
		}
		if i == files-1 {
			return v.Sync(th, sb)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("write+sync", ns)

	// read cold: drop the page cache so every page refills through the
	// module's readpage (the WRITE transfer crossings). Memory-only
	// mounts have no cold path — DropCaches cannot evict their only
	// copy — so the row is omitted rather than reported as a warm read
	// under a cold label.
	if flags, _ := rig.K.Sys.AS.ReadU64(v.SBField(sb, "flags")); flags&vfs.SBMemOnly == 0 {
		ns, err = best(measureRounds, files, func() error {
			if err := v.Sync(th, sb); err != nil {
				return err
			}
			v.DropCaches(sb)
			return nil
		}, func(i int) error {
			_, err := v.Read(th, sb, path(i), 0, fileSize)
			return err
		})
		if err != nil {
			return err
		}
		set("read cold", ns)
	}

	// read warm: pure dentry-cache + page-cache hits, no module crossing.
	ns, err = best(measureRounds, files, nil, func(i int) error {
		_, err := v.Read(th, sb, path(i), 0, fileSize)
		return err
	})
	if err != nil {
		return err
	}
	set("read warm", ns)

	ns, err = best(measureRounds, files, nil, func(i int) error {
		_, _, err := v.Stat(th, sb, path(i))
		return err
	})
	if err != nil {
		return err
	}
	set("stat", ns)

	// readdir: one full enumeration of the root per op — one checked
	// module crossing per entry, with the name-buffer WRITE transfer
	// out and back on each.
	ns, err = best(measureRounds, files, nil, func(i int) error {
		ents, err := v.Readdir(th, sb, "/")
		if err != nil {
			return err
		}
		if len(ents) < files {
			return fmt.Errorf("fsperf: readdir saw %d entries, want >= %d", len(ents), files)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("readdir", ns)

	// rename: timed moves to fresh names, untimed moves back between
	// rounds (and afterwards, so later phases see the standing names).
	alt := func(i int) string { return fmt.Sprintf("/r%05d", i) }
	renameBack := func() error {
		for i := 0; i < files; i++ {
			if _, err := v.Lookup(th, sb, alt(i)); err == nil {
				if err := v.Rename(th, sb, alt(i), sb, path(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ns, err = best(measureRounds, files, renameBack, func(i int) error {
		return v.Rename(th, sb, path(i), sb, alt(i))
	})
	if err != nil {
		return err
	}
	if err := renameBack(); err != nil {
		return err
	}
	set("rename", ns)

	// cache pressure: dirtying writes under a page budget smaller than
	// the working set, so every insert runs the LRU policy and dirty
	// victims are forced through the module's writepage (memory-only
	// mounts cannot evict, so their row isolates the policy's bookkeeping
	// cost).
	chunk := fileSize
	if chunk > mem.PageSize {
		chunk = mem.PageSize
	}
	budget := files / 2
	if budget < 1 {
		budget = 1
	}
	v.SetPageBudget(budget)
	ns, err = best(measureRounds, files, func() error {
		v.ShrinkToBudget(th)
		return nil
	}, func(i int) error {
		_, err := v.Write(th, sb, path(i), 0, payload[:chunk])
		return err
	})
	v.SetPageBudget(0)
	if err != nil {
		return err
	}
	if err := v.Sync(th, sb); err != nil {
		return err
	}
	set("cache pressure", ns)

	// remount: the durability round-trip — sync, unmount, mount, and one
	// recovered-namespace stat. Only meaningful when a disk holds the
	// namespace.
	if flags, _ := rig.K.Sys.AS.ReadU64(v.SBField(sb, "flags")); flags&vfs.SBMemOnly == 0 {
		const remounts = 4
		ns, err = best(measureRounds, remounts, nil, func(i int) error {
			if err := v.Sync(th, sb); err != nil {
				return err
			}
			accWB()
			if err := v.Unmount(th, sb); err != nil {
				return err
			}
			nsb, err := v.Mount(th, rig.FsID, rig.Dev)
			if err != nil {
				return err
			}
			sb = nsb
			if _, _, err := v.Stat(th, sb, path(0)); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return err
		}
		set("remount", ns)
	}

	// unlink: timed removal, untimed recreation between rounds.
	ns, err = best(measureRounds, files, func() error {
		for i := 0; i < files; i++ {
			if _, err := v.Lookup(th, sb, path(i)); err != nil {
				if _, err := v.Create(th, sb, path(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}, func(i int) error {
		return v.Unlink(th, sb, path(i))
	})
	if err != nil {
		return err
	}
	set("unlink", ns)

	// Per-mount writeback stats over the whole run: Sync and the cache
	// pressure phase drove pages through writepage; forced-foreground
	// counts are the dirty victims eviction could not leave to a flusher.
	accWB()
	c.WB[mode] = wbAcc
	if mode == core.Enforce {
		m := rig.K.Sys.Metrics()
		c.Metrics = &m
	}
	return nil
}

// MeasureCosts measures all operations for one filesystem on fresh rigs
// under both builds.
func MeasureCosts(kind Kind, files int, fileSize uint64) (*Costs, error) {
	c := &Costs{
		Kind: kind,
		Op:   make(map[string]map[core.Mode]float64),
		WB:   make(map[core.Mode]vfs.WritebackStats),
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if err := measureMode(kind, mode, files, fileSize, c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Row is one line of the fsperf table.
type Row struct {
	Op       string
	StockNs  float64
	LxfiNs   float64
	Overhead float64 // percent
}

// BuildTable derives report rows from measured costs.
func BuildTable(c *Costs) []Row {
	rows := make([]Row, 0, len(Ops))
	for _, op := range Ops {
		m, ok := c.Op[op]
		if !ok {
			continue
		}
		r := Row{Op: op, StockNs: m[core.Off], LxfiNs: m[core.Enforce]}
		if r.StockNs > 0 {
			r.Overhead = 100 * (r.LxfiNs - r.StockNs) / r.StockNs
		}
		rows = append(rows, r)
	}
	return rows
}

// Format renders the table for one filesystem.
func Format(c *Costs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %14s %10s\n", c.Kind, "Stock ns/op", "LXFI ns/op", "overhead")
	for _, r := range BuildTable(c) {
		fmt.Fprintf(&b, "%-14s %14.0f %14.0f %9.0f%%\n", r.Op, r.StockNs, r.LxfiNs, r.Overhead)
	}
	return b.String()
}

// --- multi-mount concurrency phase ---

// ConcurrencyCosts holds the multi-mount phase: one worker thread per
// mount (tmpfssim and minixsim mounted simultaneously on one kernel),
// all workers running their op mix at the same time, with the
// background writeback flusher enabled — the workload the goroutine-
// backed thread scheduler exists for.
type ConcurrencyCosts struct {
	Workers int
	Mounts  []string
	Ns      map[core.Mode]float64 // ns per op-cycle, aggregated over all workers
	// Overlapped records that the workers' busy intervals genuinely
	// intersected (max start < min end) — the proof the phase was
	// produced by threads running simultaneously, not a serialized run.
	Overlapped bool
}

// concurrentRig boots one kernel with both filesystem modules mounted.
type concurrentRig struct {
	k   *kernel.Kernel
	v   *vfs.VFS
	sbs []mem.Addr
}

func newConcurrentRig(mode core.Mode) (*concurrentRig, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	bl.AddDisk(1, minixsim.DiskSectors)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("boot")
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl, FS: v})
	if _, err := ld.Load(th, "tmpfssim"); err != nil {
		return nil, err
	}
	if _, err := ld.Load(th, "minixsim"); err != nil {
		return nil, err
	}
	r := &concurrentRig{k: k, v: v}
	for _, m := range []struct{ fsid, dev uint64 }{{tmpfssim.FsID, 0}, {minixsim.FsID, 1}} {
		sb, err := v.Mount(th, m.fsid, m.dev)
		if err != nil {
			return nil, err
		}
		r.sbs = append(r.sbs, sb)
	}
	return r, nil
}

// runWorkers releases one worker thread per mount through a start
// barrier, waits for all of them, and returns the wall-clock span. Each
// worker runs cycles full create/write/sync/read/unlink lifetimes on
// its own mount.
func (r *concurrentRig) runWorkers(cycles int, payload []byte) (span time.Duration, overlapped bool, err error) {
	start := make(chan struct{})
	// gate is a rendezvous: every worker must arrive before any may
	// proceed, so all workers are provably alive at the same instant —
	// the phase cannot degenerate into a serialized run when one
	// worker's mix is much faster than another's.
	var gate sync.WaitGroup
	gate.Add(len(r.sbs))
	errs := make([]error, len(r.sbs))
	starts := make([]time.Time, len(r.sbs))
	ends := make([]time.Time, len(r.sbs))
	handles := make([]*core.ThreadHandle, len(r.sbs))
	for i, sb := range r.sbs {
		i, sb := i, sb
		handles[i] = r.k.Sys.Spawn(fmt.Sprintf("fsperf-w%d", i), func(t *core.Thread) {
			<-start
			// The busy interval opens at the rendezvous arrival: the gate
			// releases only once every worker has arrived, so the release
			// instant lies inside every worker's interval — all workers
			// are provably live at once.
			starts[i] = time.Now()
			defer func() { ends[i] = time.Now() }()
			gate.Done()
			gate.Wait()
			for n := 0; n < cycles; n++ {
				path := fmt.Sprintf("/w%d_%05d", i, n)
				if _, err := r.v.Create(t, sb, path); err != nil {
					errs[i] = err
					return
				}
				if _, err := r.v.Write(t, sb, path, 0, payload); err != nil {
					errs[i] = err
					return
				}
				if err := r.v.Sync(t, sb); err != nil {
					errs[i] = err
					return
				}
				if _, err := r.v.Read(t, sb, path, 0, uint64(len(payload))); err != nil {
					errs[i] = err
					return
				}
				if err := r.v.Unlink(t, sb, path); err != nil {
					errs[i] = err
					return
				}
			}
		})
	}
	begin := time.Now()
	close(start)
	for _, h := range handles {
		h.Join()
	}
	span = time.Since(begin)
	for _, werr := range errs {
		if werr != nil {
			return 0, false, werr
		}
	}
	latestStart, earliestEnd := starts[0], ends[0]
	for i := 1; i < len(starts); i++ {
		if starts[i].After(latestStart) {
			latestStart = starts[i]
		}
		if ends[i].Before(earliestEnd) {
			earliestEnd = ends[i]
		}
	}
	return span, !earliestEnd.Before(latestStart), nil
}

// MeasureConcurrency measures the multi-mount phase under both builds.
func MeasureConcurrency(files int, fileSize uint64) (*ConcurrencyCosts, error) {
	out := &ConcurrencyCosts{
		Workers: 2,
		Mounts:  []string{string(Tmpfs), string(Minix)},
		Ns:      make(map[core.Mode]float64),
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		best := 0.0
		for round := 0; round < measureRounds; round++ {
			rig, err := newConcurrentRig(mode)
			if err != nil {
				return nil, err
			}
			// Background writeback runs during the phase: aged dirty
			// pages leave through the flusher thread while the workers
			// hammer their mounts, speeding up whenever more than a
			// quarter of the cache is dirty.
			rig.v.EnableWriteback(time.Millisecond, 0.25)
			span, overlapped, err := rig.runWorkers(files, payload)
			rig.k.Shutdown()
			if err != nil {
				return nil, err
			}
			out.Overlapped = out.Overlapped || overlapped
			if n := len(rig.k.Sys.Mon.Violations()); n != 0 {
				return nil, fmt.Errorf("fsperf: concurrency phase (%s): %d violations: %v",
					mode, n, rig.k.Sys.Mon.LastViolation())
			}
			ns := float64(span.Nanoseconds()) / float64(out.Workers*files)
			if best == 0 || ns < best {
				best = ns
			}
		}
		out.Ns[mode] = best
	}
	return out, nil
}

// --- hot-reload-under-traffic phase ---

// ReloadCosts holds the hot-reload phase for one filesystem: the module
// is hot-reloaded several times while a worker thread runs live
// create/write/sync/read/stat/unlink cycles against a standing mount.
// The reload must be invisible to the worker — new crossings park during
// the quiesce, in-flight ones drain, and the instance capabilities for
// the mount migrate to the fresh generation — so the phase asserts zero
// violations and zero worker errors, and reports how long the service
// interruption (quiesce + swap + migrate) lasted.
type ReloadCosts struct {
	FS      string
	Reloads int                   // reloads performed per mode
	Cycles  map[core.Mode]int     // worker op-cycles completed during the phase
	Quiesce map[core.Mode]float64 // mean ns waiting for in-flight crossings
	Total   map[core.Mode]float64 // mean ns for the whole reload
	// Migrated is the per-instance capability count replayed into the
	// fresh generation on the last enforced reload (stock runs migrate
	// nothing: no capabilities are tracked with enforcement off).
	Migrated int
}

// reloadRounds is how many back-to-back reloads each mode performs.
const reloadRounds = 4

// measureReloadMode runs the phase on a fresh rig for one mode.
func measureReloadMode(kind Kind, mode core.Mode, fileSize uint64, out *ReloadCosts) error {
	rig, err := NewRig(mode, kind)
	if err != nil {
		return err
	}
	defer rig.Close()
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	stop := make(chan struct{})
	var cycles atomic.Int64
	var workerErr error
	h := rig.K.Sys.Spawn("fsperf-reload-w", func(t *core.Thread) {
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			path := fmt.Sprintf("/rel%07d", n)
			if _, err := rig.V.Create(t, rig.SB, path); err != nil {
				workerErr = fmt.Errorf("create %s: %w", path, err)
				return
			}
			if _, err := rig.V.Write(t, rig.SB, path, 0, payload); err != nil {
				workerErr = fmt.Errorf("write %s: %w", path, err)
				return
			}
			if err := rig.V.Sync(t, rig.SB); err != nil {
				workerErr = fmt.Errorf("sync: %w", err)
				return
			}
			if _, err := rig.V.Read(t, rig.SB, path, 0, uint64(len(payload))); err != nil {
				workerErr = fmt.Errorf("read %s: %w", path, err)
				return
			}
			if err := rig.V.Unlink(t, rig.SB, path); err != nil {
				workerErr = fmt.Errorf("unlink %s: %w", path, err)
				return
			}
			cycles.Add(1)
		}
	})

	// Let the worker prove it is live before the first swap, so every
	// reload happens under genuine traffic.
	for cycles.Load() == 0 && workerErr == nil {
		time.Sleep(100 * time.Microsecond)
	}

	var quiesce, total float64
	for i := 0; i < reloadRounds; i++ {
		st, err := rig.Ld.Reload(rig.Th, rig.Module)
		if err != nil {
			close(stop)
			h.Join()
			return fmt.Errorf("fsperf: reload %d (%s): %w", i, mode, err)
		}
		quiesce += float64(st.QuiesceNs)
		total += float64(st.TotalNs)
		if mode == core.Enforce {
			out.Migrated = st.Migrated
		}
	}
	close(stop)
	h.Join()
	if workerErr != nil {
		return fmt.Errorf("fsperf: reload phase (%s) worker: %w", mode, workerErr)
	}
	if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
		return fmt.Errorf("fsperf: reload phase (%s): %d violations: %v",
			mode, n, rig.K.Sys.Mon.LastViolation())
	}
	out.Cycles[mode] = int(cycles.Load())
	out.Quiesce[mode] = quiesce / reloadRounds
	out.Total[mode] = total / reloadRounds
	return nil
}

// MeasureReload measures the hot-reload-under-live-traffic phase for one
// filesystem under both builds.
func MeasureReload(kind Kind, fileSize uint64) (*ReloadCosts, error) {
	out := &ReloadCosts{
		FS:      string(kind),
		Reloads: reloadRounds,
		Cycles:  make(map[core.Mode]int),
		Quiesce: make(map[core.Mode]float64),
		Total:   make(map[core.Mode]float64),
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if err := measureReloadMode(kind, mode, fileSize, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatReload renders the hot-reload phase line for one filesystem.
func FormatReload(r *ReloadCosts) string {
	stock, lxfi := r.Total[core.Off], r.Total[core.Enforce]
	overhead := 0.0
	if stock > 0 {
		overhead = 100 * (lxfi - stock) / stock
	}
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%d reloads under traffic, %d caps migrated)\n",
		"hot reload", stock, lxfi, overhead, r.Reloads, r.Migrated)
}

// --- journal phase ---

// JournalCosts holds the journal phase on the block-backed filesystem:
// the per-op cost of the journaled multi-record metadata ops — rename
// and RENAME_EXCHANGE, each a write-ahead transaction (intent records,
// one commit sector, applies, checkpoint) — under both builds, plus
// the sector writes one journaled rename performs, i.e. the write
// amplification the crash-consistency guarantee costs.
type JournalCosts struct {
	FS          string
	RenameNs    map[core.Mode]float64
	ExchangeNs  map[core.Mode]float64
	WritesPerOp float64 // sector writes per journaled rename (build-independent)
}

// measureJournalMode runs the journal phase for one mode on a fresh rig.
func measureJournalMode(mode core.Mode, files int, out *JournalCosts) error {
	rig, err := NewRig(mode, Minix)
	if err != nil {
		return err
	}
	defer rig.Close()
	v, th, sb := rig.V, rig.Th, rig.SB
	path := func(i int) string { return fmt.Sprintf("/j%05d", i) }
	alt := func(i int) string { return fmt.Sprintf("/ja%05d", i) }
	partner := func(i int) string { return fmt.Sprintf("/jx%05d", i) }
	for i := 0; i < files; i++ {
		if _, err := v.Create(th, sb, path(i)); err != nil {
			return err
		}
		if _, err := v.Create(th, sb, partner(i)); err != nil {
			return err
		}
	}
	if err := v.Sync(th, sb); err != nil {
		return err
	}

	// Journaled rename: timed moves to fresh names, untimed moves back.
	renameBack := func() error {
		for i := 0; i < files; i++ {
			if _, err := v.Lookup(th, sb, alt(i)); err == nil {
				if err := v.Rename(th, sb, alt(i), sb, path(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ns, err := best(measureRounds, files, renameBack, func(i int) error {
		return v.Rename(th, sb, path(i), sb, alt(i))
	})
	if err != nil {
		return err
	}
	if err := renameBack(); err != nil {
		return err
	}
	out.RenameNs[mode] = ns

	// RENAME_EXCHANGE: a two-record transaction; the swap is its own
	// inverse, so no per-round restore is needed.
	ns, err = best(measureRounds, files, nil, func(i int) error {
		return v.RenameFlags(th, sb, path(i), sb, partner(i), vfs.RenameExchange)
	})
	if err != nil {
		return err
	}
	out.ExchangeNs[mode] = ns

	// Write amplification, counted outside the timed loops so untimed
	// restores do not pollute it. One measurement suffices: the journal
	// protocol writes the same sectors under either build.
	if mode == core.Off {
		probes := files
		if probes > 8 {
			probes = 8
		}
		_, w0 := rig.B.SectorIO()
		for i := 0; i < probes; i++ {
			if err := v.Rename(th, sb, path(i), sb, alt(i)); err != nil {
				return err
			}
			if err := v.Rename(th, sb, alt(i), sb, path(i)); err != nil {
				return err
			}
		}
		_, w1 := rig.B.SectorIO()
		out.WritesPerOp = float64(w1-w0) / float64(2*probes)
	}

	if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
		return fmt.Errorf("fsperf: journal phase (%s): %d violations: %v",
			mode, n, rig.K.Sys.Mon.LastViolation())
	}
	return nil
}

// MeasureJournal measures the journaled-metadata phase (block-backed
// filesystem only) under both builds.
func MeasureJournal(files int) (*JournalCosts, error) {
	out := &JournalCosts{
		FS:         string(Minix),
		RenameNs:   make(map[core.Mode]float64),
		ExchangeNs: make(map[core.Mode]float64),
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if err := measureJournalMode(mode, files, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatJournal renders the journal phase line.
func FormatJournal(j *JournalCosts) string {
	stock, lxfi := j.RenameNs[core.Off], j.RenameNs[core.Enforce]
	overhead := 0.0
	if stock > 0 {
		overhead = 100 * (lxfi - stock) / stock
	}
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%.1f sector writes/op)\n",
		"journal rename", stock, lxfi, overhead, j.WritesPerOp)
}

// JSON serializes measured costs as the BENCH_fsperf.json report, each
// number with its gate. conc may be nil when the concurrency phase was
// not measured; rls and jrns entries are matched to results by
// filesystem name.
func JSON(cs []*Costs, conc *ConcurrencyCosts, rls []*ReloadCosts, jrns []*JournalCosts, files int, fileSize uint64) ([]byte, error) {
	r := benchio.NewReport("fsperf", map[string]any{"files": files, "file_size": fileSize})
	for _, c := range cs {
		fs := string(c.Kind)
		for _, row := range BuildTable(c) {
			r.Pair(fs+"/"+row.Op, row.StockNs, row.LxfiNs, benchio.Timing)
		}
		for mode, wb := range c.WB {
			p := fs + "/writeback/" + mode.String()
			r.Record(p+"/pages_flushed", float64(wb.PagesFlushed), benchio.Gate{})
			r.Record(p+"/forced_foreground_writes", float64(wb.ForcedForeground), benchio.Gate{})
		}
		for _, rl := range rls {
			if rl == nil || rl.FS != fs {
				continue
			}
			p := fs + "/reload"
			r.Record(p+"/reloads", float64(rl.Reloads), benchio.AtLeast(1))
			r.Pair(p+"/total", rl.Total[core.Off], rl.Total[core.Enforce], benchio.Reload)
			r.Pair(p+"/quiesce", rl.Quiesce[core.Off], rl.Quiesce[core.Enforce], benchio.Rel)
			// The worker kept the mount busy while the reloads ran.
			for _, mode := range []core.Mode{core.Off, core.Enforce} {
				r.Record(p+"/"+mode.String()+"_worker_cycles", float64(rl.Cycles[mode]), benchio.AtLeast(1))
			}
			r.Record(p+"/migrated_caps", float64(rl.Migrated), benchio.AtLeast(1))
		}
		for _, j := range jrns {
			if j == nil || j.FS != fs {
				continue
			}
			p := fs + "/journal"
			r.Pair(p+"/rename", j.RenameNs[core.Off], j.RenameNs[core.Enforce], benchio.Timing)
			r.Pair(p+"/exchange", j.ExchangeNs[core.Off], j.ExchangeNs[core.Enforce], benchio.Timing)
			// One journaled rename is intent + commit + apply (+
			// checkpoint): more than one sector write, and the
			// crash-consistency protocol may not silently grow its I/O.
			r.Record(p+"/writes_per_op", j.WritesPerOp, benchio.Between(2, 8))
		}
	}
	if conc != nil {
		r.Params["mounts"] = conc.Mounts
		r.Record("concurrency/workers", float64(conc.Workers), benchio.AtLeast(2))
		r.Pair("concurrency", conc.Ns[core.Off], conc.Ns[core.Enforce], benchio.Timing)
	}
	return r.JSON()
}

// FormatConcurrency renders the multi-mount phase line.
func FormatConcurrency(c *ConcurrencyCosts) string {
	stock, lxfi := c.Ns[core.Off], c.Ns[core.Enforce]
	overhead := 0.0
	if stock > 0 {
		overhead = 100 * (lxfi - stock) / stock
	}
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%d worker threads: %s)\n",
		"multi-mount", stock, lxfi, overhead, c.Workers, strings.Join(c.Mounts, "+"))
}
