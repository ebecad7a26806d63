// Package coredump serializes a live core.System into an analyzable,
// versioned dump: every module's principals and their sharded
// capability tables (including the interval index's prefix-maximum
// column, so the index invariants can be re-checked offline), the
// writer-set tracker, the VFS page cache, the violation log, each
// dumped thread's shadow stack and flight-recorder tail, and the
// metrics registry.
//
// A dump is taken section by section through the runtime's existing
// locked accessors — no lock is ever held across sections, so the
// snapshot is sequential, not atomic. The layered validator
// (validate.go) therefore checks monotone cross-section relations
// (event epochs never exceed the metrics epoch recorded last) rather
// than exact equalities, and the differ (diff.go) answers the forensic
// question two dumps pose: exactly which capabilities appeared or
// disappeared in between.
//
// Thread state (shadow stack, trace ring) is per-CPU context with no
// locks; callers may only pass threads they own, have joined, or are
// running on — Monitor.OnViolationThread delivers exactly that for the
// dump-at-violation hook.
package coredump

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/vfs"
)

// FormatVersion is the dump format version; Decode rejects dumps from
// a newer format than it understands. Version 2 added the sparse disk
// section (Disks), making a dump taken at a violation sufficient to
// remount and inspect the filesystem state the crash left behind.
const FormatVersion = 2

// CapRange is one WRITE capability region.
type CapRange struct {
	Addr uint64 `json:"addr"`
	Size uint64 `json:"size"`
}

// RefDump is one REF capability.
type RefDump struct {
	Type string `json:"type"`
	Addr uint64 `json:"addr"`
}

// ShardDump is one shard's slice of a principal's WRITE interval index,
// verbatim: the sorted entries and the prefix-maximum column the O(log
// n) membership probe relies on. A range spanning several buckets
// appears in every shard it touches.
type ShardDump struct {
	Shard  int        `json:"shard"`
	Writes []CapRange `json:"writes"`
	MaxEnd []uint64   `json:"max_end"`
}

// PrincipalDump is one principal's identity and capability tables.
type PrincipalDump struct {
	Name string `json:"name"` // rendered form, e.g. "econet[shared]"
	Kind string `json:"kind"` // instance | shared | global
	Addr uint64 `json:"addr"` // instance name (0 for shared/global)

	WriteShards []ShardDump `json:"write_shards,omitempty"`
	Calls       []uint64    `json:"calls,omitempty"`
	Refs        []RefDump   `json:"refs,omitempty"`
}

// ModuleDump is one loaded module with its principals.
type ModuleDump struct {
	Name       string `json:"name"`
	Dead       bool   `json:"dead,omitempty"`
	KillReason string `json:"kill_reason,omitempty"`
	Data       uint64 `json:"data,omitempty"`
	DataSize   uint64 `json:"data_size,omitempty"`

	Principals []PrincipalDump `json:"principals"`
}

// WSTPage is one writer-set tracker page: which 64-byte segments of the
// page have a possibly non-empty writer set.
type WSTPage struct {
	Page uint64 `json:"page"`
	Bits uint64 `json:"bits"`
}

// PageDump is one page-cache entry.
type PageDump struct {
	Ino   uint64 `json:"ino"`
	Idx   uint64 `json:"idx"`
	Page  uint64 `json:"page"`
	Dirty bool   `json:"dirty,omitempty"`
}

// PageCacheDump is the VFS page-cache section.
type PageCacheDump struct {
	Pages      []PageDump `json:"pages"`
	DirtyCount int        `json:"dirty_count"`
}

// FrameDump is one shadow-stack frame.
type FrameDump struct {
	Func      string `json:"func,omitempty"`
	SavedPrin string `json:"saved_prin"`
	SavedMod  string `json:"saved_mod"`
	RetToken  uint64 `json:"ret_token"`
}

// EventDump is one flight-recorder event, principal rendered.
type EventDump struct {
	Seq       uint64 `json:"seq"`
	Kind      string `json:"kind"`
	Denied    bool   `json:"denied,omitempty"`
	Checks    uint16 `json:"checks"`
	Misses    uint16 `json:"misses"`
	Name      string `json:"name"`
	Module    string `json:"module"`
	Principal string `json:"principal,omitempty"` // "" = trusted kernel
	Addr      uint64 `json:"addr"`
	Epoch     uint64 `json:"epoch"`
	LatencyNs int64  `json:"latency_ns"`
	Detail    string `json:"detail,omitempty"`
}

// ThreadDump is one thread's per-CPU context: current principal,
// shadow stack, and the tail of its flight-recorder ring.
type ThreadDump struct {
	Name        string      `json:"name"`
	Principal   string      `json:"principal"` // "<kernel>" when trusted
	Module      string      `json:"module"`
	ShadowDepth int         `json:"shadow_depth"`
	Shadow      []FrameDump `json:"shadow,omitempty"`
	TraceSeq    uint64      `json:"trace_seq"`
	Events      []EventDump `json:"events,omitempty"`
}

// DiskExtent is one run of consecutive sectors with non-zero content;
// JSON renders Data as base64.
type DiskExtent struct {
	Sector uint64 `json:"sector"`
	Data   []byte `json:"data"`
}

// DiskDump is one simulated disk, stored sparsely: all-zero sectors
// (the vast majority of a mostly-empty image) are elided and implied
// by Sectors.
type DiskDump struct {
	Dev     uint64       `json:"dev"`
	Sectors uint64       `json:"sectors"`
	Extents []DiskExtent `json:"extents,omitempty"`
}

// Bytes reconstructs the full disk image from the sparse extents — the
// forensic path hands this to a fresh system's blockdev to remount the
// dumped filesystem.
func (dd *DiskDump) Bytes() []byte {
	img := make([]byte, dd.Sectors*blockdev.SectorSize)
	for _, e := range dd.Extents {
		copy(img[e.Sector*blockdev.SectorSize:], e.Data)
	}
	return img
}

// ViolationDump is one violation-log entry.
type ViolationDump struct {
	Module    string `json:"module"`
	Principal string `json:"principal"`
	Op        string `json:"op"`
	Addr      uint64 `json:"addr"`
	Detail    string `json:"detail"`
}

// Dump is the complete document. Epoch is read before any table and
// the metrics registry after every section, so Epoch <= the metrics'
// capability epoch bounds the whole snapshot from both sides.
type Dump struct {
	Version int    `json:"version"`
	Reason  string `json:"reason,omitempty"`
	Mode    string `json:"mode"`
	Epoch   uint64 `json:"capability_epoch"`
	Shards  int    `json:"shards"`

	Modules    []ModuleDump    `json:"modules"`
	WriterSet  []WSTPage       `json:"writer_set,omitempty"`
	PageCache  *PageCacheDump  `json:"page_cache,omitempty"`
	Disks      []DiskDump      `json:"disks,omitempty"`
	Threads    []ThreadDump    `json:"threads,omitempty"`
	Violations []ViolationDump `json:"violations,omitempty"`

	Metrics core.MetricsSnapshot `json:"metrics"`
}

// Options selects the optional dump sections.
type Options struct {
	// Reason labels the dump ("violation: ...", "manual", ...).
	Reason string
	// Threads to include. The caller must own, have joined, or be
	// running on each one — their shadow stacks and rings are read
	// without synchronization.
	Threads []*core.Thread
	// VFS adds the page-cache section when non-nil.
	VFS *vfs.VFS
	// Block adds the sparse disk section when non-nil: the raw content
	// of every attached disk, all-zero sectors elided. With it a dump
	// taken mid-crash carries enough to remount the filesystem offline.
	Block *blockdev.Layer
}

// Snapshot captures the system. Sections are read one at a time under
// the runtime's own locks, never nested, so it is safe to call from
// any goroutine (including a violation hook mid-crossing, where the
// only lock held is a mount lock — above every lock Snapshot takes).
func Snapshot(sys *core.System, opts Options) *Dump {
	d := &Dump{
		Version: FormatVersion,
		Reason:  opts.Reason,
		Mode:    sys.Mon.Mode().String(),
		Epoch:   sys.Caps.Epoch(),
		Shards:  sys.Caps.ShardCount(),
	}

	mods := sys.Modules()
	names := make([]string, 0, len(mods))
	for name := range mods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Modules = append(d.Modules, dumpModule(mods[name]))
	}

	for page, bits := range sys.WST.Pages() {
		d.WriterSet = append(d.WriterSet, WSTPage{Page: uint64(page), Bits: bits})
	}
	sort.Slice(d.WriterSet, func(i, j int) bool { return d.WriterSet[i].Page < d.WriterSet[j].Page })

	if opts.VFS != nil {
		pages, dirty := opts.VFS.DumpPages()
		pc := &PageCacheDump{DirtyCount: dirty}
		for _, p := range pages {
			pc.Pages = append(pc.Pages, PageDump{
				Ino: uint64(p.Ino), Idx: p.Idx, Page: uint64(p.Page), Dirty: p.Dirty,
			})
		}
		d.PageCache = pc
	}

	if opts.Block != nil {
		devs := opts.Block.Disks()
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		for _, dev := range devs {
			d.Disks = append(d.Disks, dumpDisk(dev, opts.Block.DiskBytes(dev)))
		}
	}

	for _, t := range opts.Threads {
		d.Threads = append(d.Threads, dumpThread(t))
	}

	for _, v := range sys.Mon.Violations() {
		d.Violations = append(d.Violations, ViolationDump{
			Module: v.Module, Principal: v.Principal, Op: v.Op,
			Addr: uint64(v.Addr), Detail: v.Detail,
		})
	}

	// Metrics last: its capability epoch is the snapshot's upper bound.
	d.Metrics = sys.Metrics()
	return d
}

func dumpModule(m *core.Module) ModuleDump {
	md := ModuleDump{
		Name: m.Name, Dead: m.Dead(),
		Data: uint64(m.Data), DataSize: m.DataSize,
	}
	if v := m.KillReason(); v != nil {
		md.KillReason = v.Error()
	}
	for _, p := range m.Set.Principals() {
		if p == nil || p.IsTrusted() {
			continue
		}
		pd := PrincipalDump{Name: p.String(), Kind: p.Kind.String(), Addr: uint64(p.Name)}
		for shard, sw := range p.DumpShardWrites() {
			if len(sw.Writes) == 0 {
				continue
			}
			sd := ShardDump{Shard: shard}
			for _, c := range sw.Writes {
				sd.Writes = append(sd.Writes, CapRange{Addr: uint64(c.Addr), Size: c.Size})
			}
			for _, e := range sw.MaxEnd {
				sd.MaxEnd = append(sd.MaxEnd, uint64(e))
			}
			pd.WriteShards = append(pd.WriteShards, sd)
		}
		for _, a := range p.CallTargets() {
			pd.Calls = append(pd.Calls, uint64(a))
		}
		for _, c := range p.RefCaps() {
			pd.Refs = append(pd.Refs, RefDump{Type: c.RefType, Addr: uint64(c.Addr)})
		}
		md.Principals = append(md.Principals, pd)
	}
	return md
}

// dumpDisk coalesces a disk image into runs of non-zero sectors.
func dumpDisk(dev uint64, disk []byte) DiskDump {
	dd := DiskDump{Dev: dev, Sectors: uint64(len(disk)) / blockdev.SectorSize}
	zero := make([]byte, blockdev.SectorSize)
	var run []byte
	var runStart uint64
	for s := uint64(0); s < dd.Sectors; s++ {
		sec := disk[s*blockdev.SectorSize : (s+1)*blockdev.SectorSize]
		if bytes.Equal(sec, zero) {
			if run != nil {
				dd.Extents = append(dd.Extents, DiskExtent{Sector: runStart, Data: run})
				run = nil
			}
			continue
		}
		if run == nil {
			runStart = s
		}
		run = append(run, sec...)
	}
	if run != nil {
		dd.Extents = append(dd.Extents, DiskExtent{Sector: runStart, Data: run})
	}
	return dd
}

func dumpThread(t *core.Thread) ThreadDump {
	td := ThreadDump{
		Name:        t.Name,
		Principal:   t.CurrentPrincipal().String(),
		Module:      "kernel",
		ShadowDepth: t.ShadowDepth(),
	}
	if m := t.CurrentModule(); m != nil {
		td.Module = m.Name
	}
	for _, f := range t.ShadowFrames() {
		td.Shadow = append(td.Shadow, FrameDump{
			Func: f.Func, SavedPrin: f.SavedPrin, SavedMod: f.SavedMod, RetToken: f.RetToken,
		})
	}
	if r := t.TraceRing(); r != nil {
		td.TraceSeq = r.Seq()
		for _, e := range r.Tail() {
			ed := EventDump{
				Seq: e.Seq, Kind: e.Kind.String(), Denied: e.Denied,
				Checks: e.Checks, Misses: e.Misses,
				Name: e.Name, Module: e.Module,
				Addr: e.Addr, Epoch: e.Epoch, LatencyNs: e.LatencyNs, Detail: e.Detail,
			}
			if e.Prin != nil {
				ed.Principal = e.Prin.String()
			}
			td.Events = append(td.Events, ed)
		}
	}
	return td
}

// Encode renders the dump as indented JSON.
func (d *Dump) Encode() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// Decode parses an encoded dump, rejecting unknown future versions.
func Decode(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("coredump: %w", err)
	}
	if d.Version < 1 || d.Version > FormatVersion {
		return nil, fmt.Errorf("coredump: unsupported format version %d (tool supports <= %d)",
			d.Version, FormatVersion)
	}
	return &d, nil
}

// rangeEnd is a WRITE range's exclusive end, shared with the validator.
// It saturates at the top of the address space, as the live interval
// index stores the end of a range that reaches 2^64.
func rangeEnd(c CapRange) uint64 {
	if e := c.Addr + c.Size; e >= c.Addr {
		return e
	}
	return ^uint64(0)
}
