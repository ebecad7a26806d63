// Package microbench reproduces Figure 11: the MiSFIT/SFI
// microbenchmarks (hotlist, lld, MD5) run as LXFI-isolated kernel
// modules, comparing stock and enforced builds.
//
//   - hotlist searches a linked list: almost entirely loads, which LXFI
//     does not instrument, so the expected slowdown is ~0.
//   - lld is a small logical disk driver: store- and call-heavy, the
//     worst case of the three.
//   - MD5 computes digests in module-local (Go) state — the analogue of
//     the stack buffer the paper's compiler proves safe and leaves
//     unguarded — and commits only the 16-byte digest through a guarded
//     store.
//
// Code-size deltas are computed by the static analysis in static.go:
// the Go source of each workload is parsed and the guard sites the
// rewriter would instrument are counted against total statements.
package microbench

import (
	"fmt"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// Workload is one microbenchmark instance bound to a mode.
type Workload struct {
	Name string
	Mode core.Mode
	K    *kernel.Kernel
	M    *core.Module
	Op   func() error
}

// hotlistNodes is the linked-list length (the MiSFIT hotlist is a
// pointer-chasing search).
const hotlistNodes = 512

// NewHotlist builds the hotlist workload: a module-owned linked list
// searched on every operation.
func NewHotlist(mode core.Mode) (*Workload, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	th := k.Sys.NewThread("hotlist")

	var head uint64
	var gKmalloc *core.Gate // bound after load
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "hotlist",
		Imports:  []string{"kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "build", Params: []core.Param{core.P("n", "u64")},
				Impl: func(t *core.Thread, args []uint64) uint64 {
					// Nodes are {key u64, next u64}, kmalloc'd.
					var prev uint64
					for i := uint64(0); i < args[0]; i++ {
						node, err := gKmalloc.Call(t, 16)
						if err != nil || node == 0 {
							return 1
						}
						if err := t.WriteU64(mem.Addr(node), i); err != nil {
							return 1
						}
						if err := t.WriteU64(mem.Addr(node)+8, prev); err != nil {
							return 1
						}
						prev = node
					}
					head = prev
					return 0
				},
			},
			{
				Name: "search", Params: []core.Param{core.P("key", "u64")},
				Impl: func(t *core.Thread, args []uint64) uint64 {
					// Pure loads: traverse the list looking for key.
					cur := head
					for cur != 0 {
						k, _ := t.ReadU64(mem.Addr(cur))
						if k == args[0] {
							return cur
						}
						cur, _ = t.ReadU64(mem.Addr(cur) + 8)
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		return nil, err
	}
	gKmalloc = m.Gate("kmalloc")
	if ret, err := th.CallModule(m, "build", hotlistNodes); err != nil || ret != 0 {
		return nil, fmt.Errorf("microbench: hotlist build failed: %v", err)
	}
	i := uint64(0)
	return &Workload{Name: "hotlist", Mode: mode, K: k, M: m, Op: func() error {
		i++
		ret, err := th.CallModule(m, "search", i%hotlistNodes)
		if err != nil || ret == 0 {
			return fmt.Errorf("search failed: %v", err)
		}
		return nil
	}}, nil
}

// lldBlockSize is the logical disk's block size.
const lldBlockSize = 512

// NewLld builds the lld workload: a logical disk driver whose request
// path writes a whole block plus metadata — heavy on guarded stores and
// wrapper crossings.
func NewLld(mode core.Mode) (*Workload, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	th := k.Sys.NewThread("lld")

	var disk, meta, lock uint64
	var gKmalloc, gSpinLockInit, gSpinLock, gSpinUnlock *core.Gate // bound after load
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "lld",
		Imports:  []string{"kmalloc", "spin_lock", "spin_unlock", "spin_lock_init"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "attach",
				Impl: func(t *core.Thread, args []uint64) uint64 {
					var err1 error
					disk, err1 = gKmalloc.Call(t, 8*lldBlockSize)
					if err1 != nil || disk == 0 {
						return 1
					}
					meta, err1 = gKmalloc.Call(t, 256)
					if err1 != nil || meta == 0 {
						return 1
					}
					lock, err1 = gKmalloc.Call(t, 8)
					if err1 != nil || lock == 0 {
						return 1
					}
					if _, err := gSpinLockInit.Call(t, lock); err != nil {
						return 1
					}
					return 0
				},
			},
			{
				Name: "request", Params: []core.Param{core.P("block", "u64"), core.P("val", "u64")},
				Impl: func(t *core.Thread, args []uint64) uint64 {
					if _, err := gSpinLock.Call(t, lock); err != nil {
						return 1
					}
					base := mem.Addr(disk) + mem.Addr((args[0]%8)*lldBlockSize)
					for off := uint64(0); off < lldBlockSize; off += 8 {
						if err := t.WriteU64(base+mem.Addr(off), args[1]+off); err != nil {
							return 1
						}
					}
					// Update request metadata.
					if err := t.WriteU64(mem.Addr(meta), args[0]); err != nil {
						return 1
					}
					if err := t.WriteU64(mem.Addr(meta)+8, args[1]); err != nil {
						return 1
					}
					if _, err := gSpinUnlock.Call(t, lock); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		return nil, err
	}
	gKmalloc = m.Gate("kmalloc")
	gSpinLockInit = m.Gate("spin_lock_init")
	gSpinLock = m.Gate("spin_lock")
	gSpinUnlock = m.Gate("spin_unlock")
	if ret, err := th.CallModule(m, "attach"); err != nil || ret != 0 {
		return nil, fmt.Errorf("microbench: lld attach failed: %v", err)
	}
	i := uint64(0)
	return &Workload{Name: "lld", Mode: mode, K: k, M: m, Op: func() error {
		i++
		ret, err := th.CallModule(m, "request", i, i*3)
		if err != nil || ret != 0 {
			return fmt.Errorf("request failed: %v", err)
		}
		return nil
	}}, nil
}

// md5InputSize is the digest input size per operation.
const md5InputSize = 4096

// NewMD5 builds the MD5 workload: digest a module-readable buffer into
// module-local state, committing only the digest through a guarded
// store.
func NewMD5(mode core.Mode) (*Workload, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	th := k.Sys.NewThread("md5")

	input := k.Sys.Statics.Alloc(md5InputSize, 8)
	buf := make([]byte, md5InputSize)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	if err := k.Sys.AS.Write(input, buf); err != nil {
		return nil, err
	}

	var out uint64
	var gKmalloc *core.Gate // bound after load
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "md5",
		Imports:  []string{"kmalloc"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "setup",
				Impl: func(t *core.Thread, args []uint64) uint64 {
					var err1 error
					out, err1 = gKmalloc.Call(t, 16)
					if err1 != nil || out == 0 {
						return 1
					}
					return 0
				},
			},
			{
				Name: "digest", Params: []core.Param{core.P("src", "u64"), core.P("n", "u64")},
				Impl: func(t *core.Thread, args []uint64) uint64 {
					// Load the input (unguarded loads), hash in local
					// state (the "provably safe" stack buffer), and
					// commit the digest with one guarded store.
					data, err := t.ReadBytes(mem.Addr(args[0]), args[1])
					if err != nil {
						return 1
					}
					sum := md5Sum(data)
					if err := t.Write(mem.Addr(out), sum[:]); err != nil {
						return 1
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		return nil, err
	}
	gKmalloc = m.Gate("kmalloc")
	if ret, err := th.CallModule(m, "setup"); err != nil || ret != 0 {
		return nil, fmt.Errorf("microbench: md5 setup failed: %v", err)
	}
	return &Workload{Name: "MD5", Mode: mode, K: k, M: m, Op: func() error {
		ret, err := th.CallModule(m, "digest", uint64(input), md5InputSize)
		if err != nil || ret != 0 {
			return fmt.Errorf("digest failed: %v", err)
		}
		return nil
	}}, nil
}

// Result is one row of the Fig. 11 table.
type Result struct {
	Name     string
	StockNs  float64 // ns per operation, stock
	LxfiNs   float64 // ns per operation, enforced
	Slowdown float64 // (LxfiNs-StockNs)/StockNs
	CodeSize float64 // static Δ code size multiplier (see static.go)
}

// Measure times a workload's stock and enforced builds, booted side by
// side and sampled with benchio.Interleave over iters operations per
// sample.
func Measure(name string, build func(core.Mode) (*Workload, error), iters int) (Result, error) {
	r := Result{Name: name, CodeSize: CodeSizeDelta(name)}
	var runs []func() (float64, error)
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		w, err := build(mode)
		if err != nil {
			return r, err
		}
		runs = append(runs, func() (float64, error) {
			ns, err := benchio.PerOp(iters, func(int) error { return w.Op() })
			if err != nil {
				return 0, fmt.Errorf("%s[%v]: %w", name, mode, err)
			}
			return ns, nil
		})
	}
	ns, err := benchio.Interleave(runs...)
	if err != nil {
		return r, err
	}
	r.StockNs, r.LxfiNs = ns[0], ns[1]
	r.Slowdown = benchio.Overhead(r.StockNs, r.LxfiNs) / 100
	return r, nil
}

// RunAll measures the three workloads.
func RunAll(iters int) ([]Result, error) {
	var out []Result
	for _, w := range []struct {
		name  string
		build func(core.Mode) (*Workload, error)
	}{
		{"hotlist", NewHotlist},
		{"lld", NewLld},
		{"MD5", NewMD5},
	} {
		r, err := Measure(w.name, w.build, iters)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Format renders the Fig. 11 table.
func Format(rs []Result) string {
	s := fmt.Sprintf("%-10s %12s %12s %10s %12s\n", "benchmark", "stock ns/op", "lxfi ns/op", "slowdown", "Δ code size")
	for _, r := range rs {
		s += fmt.Sprintf("%-10s %12.0f %12.0f %9.0f%% %11.2fx\n",
			r.Name, r.StockNs, r.LxfiNs, r.Slowdown*100, r.CodeSize)
	}
	return s
}
