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

// side is one build's rig in a phase that samples both builds.
type side struct {
	*Rig
	mode core.Mode
	// wb accumulates writeback counters over every mount generation:
	// they live on the mount, so the remount op resets them.
	wb vfs.WritebackStats
	// creates numbers the create op's samples; the names of the last
	// one are still in the root.
	creates int
}

// bootSides boots a stock and an enforced rig of kind side by side.
func bootSides(kind Kind) ([]*side, error) {
	var sides []*side
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		rig, err := NewRig(mode, kind)
		if err != nil {
			closeSides(sides)
			return nil, err
		}
		sides = append(sides, &side{Rig: rig, mode: mode})
	}
	return sides, nil
}

func closeSides(sides []*side) {
	for _, s := range sides {
		s.Close()
	}
}

// each runs f untimed on every side, stopping at the first error.
func each(sides []*side, f func(*side) error) error {
	for _, s := range sides {
		if err := f(s); err != nil {
			return err
		}
	}
	return nil
}

// sample times one op on every side with benchio.Interleave and returns
// ns/op by mode. Each sample runs setup, if any, untimed, then body
// over n items.
func sample(sides []*side, n int, setup func(*side) error, body func(s *side, i int) error) (map[core.Mode]float64, error) {
	runs := make([]func() (float64, error), len(sides))
	for k, s := range sides {
		runs[k] = func() (float64, error) {
			if setup != nil {
				if err := setup(s); err != nil {
					return 0, err
				}
			}
			return benchio.PerOp(n, func(i int) error { return body(s, i) })
		}
	}
	ns, err := benchio.Interleave(runs...)
	if err != nil {
		return nil, err
	}
	out := make(map[core.Mode]float64, len(sides))
	for k, s := range sides {
		out[s.mode] = ns[k]
	}
	return out, nil
}

func (s *side) accWB() {
	if st, ok := s.V.WritebackStats(s.SB); ok {
		s.wb.PagesFlushed += st.PagesFlushed
		s.wb.ForcedForeground += st.ForcedForeground
	}
}

// memOnly reports a mount with no disk behind it.
func (s *side) memOnly() bool {
	flags, _ := s.K.Sys.AS.ReadU64(s.V.SBField(s.SB, "flags"))
	return flags&vfs.SBMemOnly != 0
}

// createName is the i'th name create sample k makes.
func createName(k, i int) string { return fmt.Sprintf("/c%d_%05d", k, i) }

// unlinkCreated removes the names the last create sample made.
func (s *side) unlinkCreated(files int) error {
	if s.creates == 0 {
		return nil
	}
	for i := 0; i < files; i++ {
		if err := s.V.Unlink(s.Th, s.SB, createName(s.creates, i)); err != nil {
			return err
		}
	}
	return nil
}

// createOp is the create op: every sample creates files fresh names.
// Its untimed setup first unlinks the previous sample's names, so every
// sample creates into a root of the same size.
func createOp(files int) (setup func(*side) error, body func(*side, int) error) {
	setup = func(s *side) error {
		err := s.unlinkCreated(files)
		s.creates++
		return err
	}
	body = func(s *side, i int) error {
		_, err := s.V.Create(s.Th, s.SB, createName(s.creates, i))
		return err
	}
	return setup, body
}

// renameBack moves every name alt(i) left by a timed rename back to
// path(i).
func (s *side) renameBack(n int, path, alt func(int) string) error {
	for i := 0; i < n; i++ {
		if _, err := s.V.Lookup(s.Th, s.SB, alt(i)); err == nil {
			if err := s.V.Rename(s.Th, s.SB, alt(i), s.SB, path(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// MeasureCosts measures every operation for one filesystem. The stock
// and enforced rigs boot side by side, and benchio.Interleave samples
// each op on both.
func MeasureCosts(kind Kind, files int, fileSize uint64) (*Costs, error) {
	sides, err := bootSides(kind)
	if err != nil {
		return nil, err
	}
	defer closeSides(sides)
	c := &Costs{
		Kind: kind,
		Op:   make(map[string]map[core.Mode]float64),
		WB:   make(map[core.Mode]vfs.WritebackStats),
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	path := func(i int) string { return fmt.Sprintf("/f%05d", i) }
	op := func(name string, n int, setup func(*side) error, body func(s *side, i int) error) error {
		ns, err := sample(sides, n, setup, body)
		c.Op[name] = ns
		return err
	}

	setup, body := createOp(files)
	if err := op("create", files, setup, body); err != nil {
		return nil, err
	}
	if err := each(sides, func(s *side) error { return s.unlinkCreated(files) }); err != nil {
		return nil, err
	}

	// Standing file set for the data and metadata ops.
	if err := each(sides, func(s *side) error {
		for i := 0; i < files; i++ {
			if _, err := s.V.Create(s.Th, s.SB, path(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// write+sync: every sample dirties all files, then one sync writes
	// them back (the writepage REF crossings).
	if err := op("write+sync", files, nil, func(s *side, i int) error {
		if _, err := s.V.Write(s.Th, s.SB, path(i), 0, payload); err != nil {
			return err
		}
		if i == files-1 {
			return s.V.Sync(s.Th, s.SB)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	read := func(s *side, i int) error {
		_, err := s.V.Read(s.Th, s.SB, path(i), 0, fileSize)
		return err
	}
	// read cold: drop the page cache so every page refills through the
	// module's readpage (the WRITE transfer crossings). Memory-only
	// mounts have no cold path — DropCaches cannot evict their only
	// copy — so the row is omitted rather than reported as a warm read
	// under a cold label.
	if !sides[0].memOnly() {
		if err := op("read cold", files, func(s *side) error {
			if err := s.V.Sync(s.Th, s.SB); err != nil {
				return err
			}
			s.V.DropCaches(s.SB)
			return nil
		}, read); err != nil {
			return nil, err
		}
	}

	// read warm: pure dentry-cache + page-cache hits, no module crossing.
	if err := op("read warm", files, nil, read); err != nil {
		return nil, err
	}

	if err := op("stat", files, nil, func(s *side, i int) error {
		_, _, err := s.V.Stat(s.Th, s.SB, path(i))
		return err
	}); err != nil {
		return nil, err
	}

	// readdir: one full enumeration of the root per op — one checked
	// module crossing per entry, with the name-buffer WRITE transfer
	// out and back on each.
	if err := op("readdir", files, nil, func(s *side, i int) error {
		ents, err := s.V.Readdir(s.Th, s.SB, "/")
		if err != nil {
			return err
		}
		if len(ents) < files {
			return fmt.Errorf("fsperf: readdir saw %d entries, want >= %d", len(ents), files)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// rename: timed moves to fresh names, untimed moves back before
	// every sample (and afterwards, so later ops see the standing names).
	alt := func(i int) string { return fmt.Sprintf("/r%05d", i) }
	renameBack := func(s *side) error { return s.renameBack(files, path, alt) }
	if err := op("rename", files, renameBack, func(s *side, i int) error {
		return s.V.Rename(s.Th, s.SB, path(i), s.SB, alt(i))
	}); err != nil {
		return nil, err
	}
	if err := each(sides, renameBack); err != nil {
		return nil, err
	}

	// cache pressure: dirtying writes under a page budget smaller than
	// the working set, so every insert runs the LRU policy and dirty
	// victims are forced through the module's writepage (memory-only
	// mounts cannot evict, so their row isolates the policy's bookkeeping
	// cost).
	chunk := min(fileSize, mem.PageSize)
	for _, s := range sides {
		s.V.SetPageBudget(max(files/2, 1))
	}
	err = op("cache pressure", files, func(s *side) error {
		s.V.ShrinkToBudget(s.Th)
		return nil
	}, func(s *side, i int) error {
		_, err := s.V.Write(s.Th, s.SB, path(i), 0, payload[:chunk])
		return err
	})
	for _, s := range sides {
		s.V.SetPageBudget(0)
	}
	if err != nil {
		return nil, err
	}
	if err := each(sides, func(s *side) error { return s.V.Sync(s.Th, s.SB) }); err != nil {
		return nil, err
	}

	// remount: the durability round-trip — sync, unmount, mount, and one
	// recovered-namespace stat. Only meaningful when a disk holds the
	// namespace.
	if !sides[0].memOnly() {
		const remounts = 4
		if err := op("remount", remounts, nil, func(s *side, i int) error {
			if err := s.V.Sync(s.Th, s.SB); err != nil {
				return err
			}
			s.accWB()
			if err := s.V.Unmount(s.Th, s.SB); err != nil {
				return err
			}
			sb, err := s.V.Mount(s.Th, s.FsID, s.Dev)
			if err != nil {
				return err
			}
			s.SB = sb
			_, _, err = s.V.Stat(s.Th, s.SB, path(0))
			return err
		}); err != nil {
			return nil, err
		}
	}

	// unlink: timed removal, untimed recreation before every sample.
	if err := op("unlink", files, func(s *side) error {
		for i := 0; i < files; i++ {
			if _, err := s.V.Lookup(s.Th, s.SB, path(i)); err != nil {
				if _, err := s.V.Create(s.Th, s.SB, path(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}, func(s *side, i int) error {
		return s.V.Unlink(s.Th, s.SB, path(i))
	}); err != nil {
		return nil, err
	}

	// Per-mount writeback stats over the whole run: Sync and the cache
	// pressure op drove pages through writepage; forced-foreground
	// counts are the dirty victims eviction could not leave to a flusher.
	for _, s := range sides {
		s.accWB()
		c.WB[s.mode] = s.wb
	}
	m := sides[1].K.Sys.Metrics()
	c.Metrics = &m
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
		rows = append(rows, Row{Op: op, StockNs: m[core.Off], LxfiNs: m[core.Enforce],
			Overhead: benchio.Overhead(m[core.Off], m[core.Enforce])})
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

// MeasureConcurrency measures the multi-mount phase under both builds,
// sampled with benchio.Interleave on a fresh rig per sample.
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
	run := func(mode core.Mode) func() (float64, error) {
		return func() (float64, error) {
			rig, err := newConcurrentRig(mode)
			if err != nil {
				return 0, err
			}
			// Background writeback runs during the phase: aged dirty
			// pages leave through the flusher thread while the workers
			// hammer their mounts, speeding up whenever more than a
			// quarter of the cache is dirty.
			rig.v.EnableWriteback(time.Millisecond, 0.25)
			span, overlapped, err := rig.runWorkers(files, payload)
			rig.k.Shutdown()
			if err != nil {
				return 0, err
			}
			out.Overlapped = out.Overlapped || overlapped
			if n := len(rig.k.Sys.Mon.Violations()); n != 0 {
				return 0, fmt.Errorf("fsperf: concurrency phase (%s): %d violations: %v",
					mode, n, rig.k.Sys.Mon.LastViolation())
			}
			return float64(span.Nanoseconds()) / float64(out.Workers*files), nil
		}
	}
	ns, err := benchio.Interleave(run(core.Off), run(core.Enforce))
	if err != nil {
		return nil, err
	}
	out.Ns[core.Off], out.Ns[core.Enforce] = ns[0], ns[1]
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
	Quiesce map[core.Mode]float64 // median ns waiting for in-flight crossings
	Total   map[core.Mode]float64 // median ns for the whole reload
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

	var quiesce, total []float64
	for i := 0; i < reloadRounds; i++ {
		st, err := rig.Ld.Reload(rig.Th, rig.Module)
		if err != nil {
			close(stop)
			h.Join()
			return fmt.Errorf("fsperf: reload %d (%s): %w", i, mode, err)
		}
		quiesce = append(quiesce, float64(st.QuiesceNs))
		total = append(total, float64(st.TotalNs))
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
	out.Quiesce[mode] = benchio.Median(quiesce)
	out.Total[mode] = benchio.Median(total)
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
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%d reloads under traffic, %d caps migrated)\n",
		"hot reload", stock, lxfi, benchio.Overhead(stock, lxfi), r.Reloads, r.Migrated)
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

// MeasureJournal measures the journaled-metadata phase (block-backed
// filesystem only). The stock and enforced rigs boot side by side, and
// benchio.Interleave samples each op on both.
func MeasureJournal(files int) (*JournalCosts, error) {
	sides, err := bootSides(Minix)
	if err != nil {
		return nil, err
	}
	defer closeSides(sides)
	path := func(i int) string { return fmt.Sprintf("/j%05d", i) }
	alt := func(i int) string { return fmt.Sprintf("/ja%05d", i) }
	partner := func(i int) string { return fmt.Sprintf("/jx%05d", i) }
	if err := each(sides, func(s *side) error {
		for i := 0; i < files; i++ {
			if _, err := s.V.Create(s.Th, s.SB, path(i)); err != nil {
				return err
			}
			if _, err := s.V.Create(s.Th, s.SB, partner(i)); err != nil {
				return err
			}
		}
		return s.V.Sync(s.Th, s.SB)
	}); err != nil {
		return nil, err
	}
	out := &JournalCosts{FS: string(Minix)}

	// Journaled rename: timed moves to fresh names, untimed moves back.
	renameBack := func(s *side) error { return s.renameBack(files, path, alt) }
	if out.RenameNs, err = sample(sides, files, renameBack, func(s *side, i int) error {
		return s.V.Rename(s.Th, s.SB, path(i), s.SB, alt(i))
	}); err != nil {
		return nil, err
	}
	if err := each(sides, renameBack); err != nil {
		return nil, err
	}

	// RENAME_EXCHANGE: a two-record transaction; the swap is its own
	// inverse, so no per-sample restore is needed.
	if out.ExchangeNs, err = sample(sides, files, nil, func(s *side, i int) error {
		return s.V.RenameFlags(s.Th, s.SB, path(i), s.SB, partner(i), vfs.RenameExchange)
	}); err != nil {
		return nil, err
	}

	// Write amplification, counted on the stock rig outside the timed
	// loops so untimed restores do not pollute it. One measurement
	// suffices: the journal protocol writes the same sectors under
	// either build.
	s := sides[0]
	probes := min(files, 8)
	_, w0 := s.B.SectorIO()
	for i := 0; i < probes; i++ {
		if err := s.V.Rename(s.Th, s.SB, path(i), s.SB, alt(i)); err != nil {
			return nil, err
		}
		if err := s.V.Rename(s.Th, s.SB, alt(i), s.SB, path(i)); err != nil {
			return nil, err
		}
	}
	_, w1 := s.B.SectorIO()
	out.WritesPerOp = float64(w1-w0) / float64(2*probes)

	for _, s := range sides {
		if n := len(s.K.Sys.Mon.Violations()); n != 0 {
			return nil, fmt.Errorf("fsperf: journal phase (%s): %d violations: %v",
				s.mode, n, s.K.Sys.Mon.LastViolation())
		}
	}
	return out, nil
}

// FormatJournal renders the journal phase line.
func FormatJournal(j *JournalCosts) string {
	stock, lxfi := j.RenameNs[core.Off], j.RenameNs[core.Enforce]
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%.1f sector writes/op)\n",
		"journal rename", stock, lxfi, benchio.Overhead(stock, lxfi), j.WritesPerOp)
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
	return fmt.Sprintf("%-14s %14.0f %14.0f %9.0f%%  (%d worker threads: %s)\n",
		"multi-mount", stock, lxfi, benchio.Overhead(stock, lxfi), c.Workers, strings.Join(c.Mounts, "+"))
}
