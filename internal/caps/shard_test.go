package caps

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"lxfi/internal/mem"
)

// TestDifferentialShardCounts drives systems sharded 1/2/8/64 ways with
// one random operation stream and requires identical answers — shard
// assignment and the per-shard interval index must be invisible to
// semantics. (The host picks its own shard count from GOMAXPROCS, so
// without this test a single-core machine would never exercise the
// multi-shard paths.)
func TestDifferentialShardCounts(t *testing.T) {
	type op struct {
		Kind  uint8 // 0 grant, 1 revokeAll, 2 revoke, 3..: check
		Off   uint16
		Size  uint16
		Probe uint16
	}
	shardCounts := []int{1, 2, 8, 64}
	f := func(ops []op) bool {
		systems := make([]*System, len(shardCounts))
		prins := make([]*Principal, len(shardCounts))
		for i, n := range shardCounts {
			systems[i] = NewSystemWithShards(n)
			prins[i] = systems[i].LoadModule("m").Instance(0x1)
		}
		base := mem.Addr(0xffff880000000000)
		for _, o := range ops {
			addr := base + mem.Addr(o.Off)*64
			size := uint64(o.Size%20000) + 1 // up to ~5 buckets, crosses shards
			switch o.Kind % 4 {
			case 0:
				for i := range systems {
					systems[i].Grant(prins[i], WriteCap(addr, size))
				}
			case 1:
				var want int
				for i := range systems {
					n := systems[i].RevokeAll(WriteCap(addr, size))
					if i == 0 {
						want = n
					} else if n != want {
						return false
					}
				}
			case 2:
				for i := range systems {
					systems[i].Revoke(prins[i], WriteCap(addr, size))
				}
			default:
				probe := base + mem.Addr(o.Probe)*64
				psize := uint64(o.Probe%256) + 1
				var want bool
				for i := range systems {
					got := systems[i].Check(prins[i], WriteCap(probe, psize))
					if i == 0 {
						want = got
					} else if got != want {
						return false
					}
				}
			}
		}
		// Full sweep comparison at the end, including multi-bucket probes.
		for off := 0; off < 1<<15; off += 512 {
			a := base + mem.Addr(off)
			for _, sz := range []uint64{1, 8, 4096, 9000} {
				want := systems[0].Check(prins[0], WriteCap(a, sz))
				for i := 1; i < len(systems); i++ {
					if systems[i].Check(prins[i], WriteCap(a, sz)) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochAdvancesOnMutation pins the invalidation contract the
// per-thread check caches rely on: every mutating operation must move
// the epoch, and read paths must not.
func TestEpochAdvancesOnMutation(t *testing.T) {
	s := NewSystemWithShards(8)
	ms := s.LoadModule("m")
	p := ms.Instance(0x10)
	c := WriteCap(0xffff880000000000, 64)

	step := func(name string, mutates bool, fn func()) {
		before := s.Epoch()
		fn()
		after := s.Epoch()
		if mutates && after == before {
			t.Fatalf("%s did not bump the epoch", name)
		}
		if !mutates && after != before {
			t.Fatalf("%s bumped the epoch (read path)", name)
		}
	}
	step("Grant", true, func() { s.Grant(p, c) })
	step("Check", false, func() { s.Check(p, c) })
	step("OwnsDirectly", false, func() { s.OwnsDirectly(p, c) })
	step("WriteGrantees", false, func() { s.WriteGrantees(nil, c.Addr) })
	step("Revoke", true, func() { s.Revoke(p, c) })
	step("Grant2", true, func() { s.Grant(p, c) })
	step("RevokeAll", true, func() { s.RevokeAll(c) })
	step("DropInstance", true, func() { ms.DropInstance(0x10) })
	step("UnloadModule", true, func() { s.UnloadModule(ms) })
}

// TestConcurrentShardedGrantRevoke hammers the sharded tables from many
// goroutines, each owning a disjoint address range: after its own
// revoke completes, a goroutine must never see the capability again,
// regardless of the churn its siblings generate on other shards. Run
// under -race in CI's concurrency battery.
func TestConcurrentShardedGrantRevoke(t *testing.T) {
	s := NewSystemWithShards(8)
	ms := s.LoadModule("m")
	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := ms.Instance(mem.Addr(0x100 + w))
			base := mem.Addr(0xffff880000000000) + mem.Addr(w)*mem.Addr(1<<20)
			for i := 0; i < rounds; i++ {
				c := WriteCap(base+mem.Addr(i%7)*8192, uint64(i%3)*4096+64)
				s.Grant(p, c)
				if !s.Check(p, c) {
					errs <- fmt.Errorf("worker %d round %d: granted cap not visible", w, i)
					return
				}
				s.RevokeAll(c)
				if s.Check(p, c) {
					errs <- fmt.Errorf("worker %d round %d: revoked cap still passes", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// linearModel is the reference for TestScopedRevocationMatchesLinear:
// one LinearWriteSet per principal, with transfer and RevokeAll spelled
// out over all of them.
type linearModel []LinearWriteSet

func (m linearModel) revokeAll(addr mem.Addr, size uint64) int {
	n := 0
	for i := range m {
		if m[i].RevokeOverlap(addr, size) {
			n++
		}
	}
	return n
}

// randWriteCap draws a WRITE range for the scoped-revocation tests: in a
// low region, spanning up to 80 buckets (so a victim reaches past any
// shard count's ring and forces the re-lock step), or in the top 64 KiB
// of the address space, where ranges reach 2^64 exactly or wrap past it;
// one draw in sixteen is empty.
func randWriteCap(rng *rand.Rand) Cap {
	var size uint64
	switch rng.Intn(16) {
	case 0:
		size = 0
	case 1, 2, 3:
		size = uint64(1+rng.Intn(80)) * 4096
	default:
		size = uint64(1 + rng.Intn(3*4096))
	}
	if rng.Intn(4) == 0 {
		top := mem.Addr(0xffffffffffff0000) + mem.Addr(rng.Intn(16))*4096
		if rng.Intn(2) == 0 {
			return WriteCap(top, uint64(-top)) // ends exactly at 2^64
		}
		return WriteCap(top+mem.Addr(rng.Intn(4096)), size)
	}
	return WriteCap(mem.Addr(0xffff880000000000)+mem.Addr(rng.Intn(96*4096)), size)
}

// sortCaps orders WRITE capabilities by address, then size.
func sortCaps(cs []Cap) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Addr != cs[j].Addr {
			return cs[i].Addr < cs[j].Addr
		}
		return cs[i].Size < cs[j].Size
	})
}

// TestScopedRevocationMatchesLinear drives seeded sequences of grant,
// transfer, Revoke, RevokeAll and Check through systems sharded 1, 2, 8
// and 64 ways and through a linear model, and requires the same answers
// and, at the end, the same WRITE entries per principal. Revocations
// lock only their range's shards and re-lock when a victim reaches
// further; transfers revoke and grant in one operation. The ranges
// include victims spanning 2 to 80 buckets, ranges at the top of the
// address space and empty ranges.
func TestScopedRevocationMatchesLinear(t *testing.T) {
	const nprins = 3
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := make(linearModel, nprins)
		type rig struct {
			s     *System
			prins []*Principal
		}
		var rigs []rig
		for _, n := range []int{1, 2, 8, 64} {
			s := NewSystemWithShards(n)
			ms := s.LoadModule("m")
			r := rig{s: s}
			for i := 0; i < nprins; i++ {
				r.prins = append(r.prins, ms.Instance(mem.Addr(0x100+i)))
			}
			rigs = append(rigs, r)
		}
		for step := 0; step < 300; step++ {
			c := randWriteCap(rng)
			pi := rng.Intn(nprins)
			what := ""
			switch op := rng.Intn(8); op {
			case 0, 1:
				what = "Grant"
				model[pi].Grant(c.Addr, c.Size)
				for _, r := range rigs {
					r.s.Grant(r.prins[pi], c)
				}
			case 2, 3:
				what = "Transfer"
				want := model.revokeAll(c.Addr, c.Size)
				model[pi].Grant(c.Addr, c.Size)
				for _, r := range rigs {
					if got := r.s.Transfer(c, r.prins[pi]); got != want {
						t.Fatalf("seed %d step %d: %d shards: Transfer(%s) stripped %d principals, model %d",
							seed, step, r.s.ShardCount(), c, got, want)
					}
				}
			case 4:
				what = "Revoke"
				model[pi].RevokeOverlap(c.Addr, c.Size)
				for _, r := range rigs {
					r.s.Revoke(r.prins[pi], c)
				}
			case 5:
				what = "RevokeAll"
				want := model.revokeAll(c.Addr, c.Size)
				for _, r := range rigs {
					if got := r.s.RevokeAll(c); got != want {
						t.Fatalf("seed %d step %d: %d shards: RevokeAll(%s) stripped %d principals, model %d",
							seed, step, r.s.ShardCount(), c, got, want)
					}
				}
			default:
				what = "Check"
			}
			// Probe after every step: a random range, plus the bytes
			// around the step's own range.
			probes := []Cap{randWriteCap(rng), WriteCap(c.Addr, 1), WriteCap(lastByte(c.Addr, c.Size|1), 1)}
			for _, pr := range probes {
				for qi := 0; qi < nprins; qi++ {
					want := model[qi].Check(pr.Addr, pr.Size)
					for _, r := range rigs {
						if got := r.s.Check(r.prins[qi], pr); got != want {
							t.Fatalf("seed %d step %d (after %s %s): %d shards: Check(p%d, %s) = %v, model %v",
								seed, step, what, c, r.s.ShardCount(), qi, pr, got, want)
						}
					}
				}
			}
		}
		for qi := 0; qi < nprins; qi++ {
			var want []Cap
			for _, e := range model[qi].entries {
				want = append(want, WriteCap(e.addr, e.size))
			}
			sortCaps(want)
			for _, r := range rigs {
				got := r.prins[qi].WriteRegions()
				sortCaps(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: %d shards: p%d holds %v, model %v", seed, r.s.ShardCount(), qi, got, want)
				}
			}
		}
	}
}

// TestConcurrentTransferNeverUnheld runs transfers and checks on
// several goroutines at once, at 2 and 8 shards. Each worker ping-pongs
// a three-bucket range and a small range inside its second bucket
// between two principals of one module. Handing over the small range
// strips the big one, a victim that reaches past the small range's
// shard, so it takes the re-lock path. Neighboring workers' ranges
// share shards. After each transfer the worker asserts who holds what.
// Concurrent checkers assert through the module's global principal that
// every worker's small range stays held by someone at every instant: a
// transfer revokes and grants in one operation. Run under -race in CI's
// concurrency battery.
func TestConcurrentTransferNeverUnheld(t *testing.T) {
	for _, n := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			const workers, checkers, rounds = 4, 2, 300
			s := NewSystemWithShards(n)
			ms := s.LoadModule("m")
			type pair struct{ a, b *Principal }
			pairs := make([]pair, workers)
			bigs := make([]Cap, workers)
			smalls := make([]Cap, workers)
			for w := range pairs {
				pairs[w] = pair{ms.Instance(mem.Addr(0x100 + 2*w)), ms.Instance(mem.Addr(0x101 + 2*w))}
				base := mem.Addr(0xffff880000000000) + mem.Addr(w)*5*4096 + 0x800
				bigs[w] = WriteCap(base, 3*4096)
				smalls[w] = WriteCap(base+4096, 64)
				s.Transfer(bigs[w], pairs[w].a)
			}
			g := ms.Global()
			var wg sync.WaitGroup
			done := make(chan struct{})
			errs := make(chan error, workers+checkers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a, b, big, small := pairs[w].a, pairs[w].b, bigs[w], smalls[w]
					for i := 0; i < rounds; i++ {
						from, to := a, b
						if i%2 == 1 {
							from, to = b, a
						}
						s.Transfer(small, to)
						if !s.Check(to, small) || s.Check(from, small) || s.Check(from, big) {
							errs <- fmt.Errorf("worker %d round %d: small range not handed to %s alone", w, i, to)
							return
						}
						s.Transfer(big, from)
						if !s.Check(from, big) || s.Check(to, small) {
							errs <- fmt.Errorf("worker %d round %d: big range not handed back to %s alone", w, i, from)
							return
						}
					}
				}(w)
			}
			var cw sync.WaitGroup
			for c := 0; c < checkers; c++ {
				cw.Add(1)
				go func(c int) {
					defer cw.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						w := (c + i) % workers
						if !s.Check(g, smalls[w]) {
							errs <- fmt.Errorf("checker %d: worker %d's small range held by no principal", c, w)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(done)
			cw.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
