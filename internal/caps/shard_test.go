package caps

import (
	"fmt"
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
	step("UnloadModule", true, func() { s.UnloadModule("m") })
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
