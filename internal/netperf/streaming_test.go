package netperf

import (
	"encoding/binary"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// TestStreamingTransfer runs a small windowed transfer on both builds
// and both data paths; runStream itself asserts complete, in-order
// delivery.
func TestStreamingTransfer(t *testing.T) {
	const segments = 64
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		rig, err := NewRig(mode)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		peer := attachPeer(rig)
		for _, batch := range []bool{false, true} {
			if _, err := runStream(rig, peer, segments, batch); err != nil {
				t.Fatalf("[%v] batch=%v: %v", mode, batch, err)
			}
		}
		if mode == core.Enforce {
			if v := rig.K.Sys.Mon.LastViolation(); v != nil {
				t.Fatalf("violation: %v", v)
			}
		}
		rig.K.Shutdown()
	}
}

// TestStreamingCrossingsReduction pins the tentpole's economics: at
// batch budget 8 the batched path must cross the module boundary at
// least 4x less often per byte than the per-packet path.
func TestStreamingCrossingsReduction(t *testing.T) {
	const segments = 128
	rig, err := NewRig(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.K.Shutdown()
	peer := attachPeer(rig)

	measure := func(batch bool) float64 {
		before := rig.K.Sys.Mon.Stats.Snapshot()
		if _, err := runStream(rig, peer, segments, batch); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		d := rig.K.Sys.Mon.Stats.Snapshot().Sub(before)
		return float64(d.FuncEntries)
	}
	perPkt := measure(false)
	batched := measure(true)
	if batched == 0 {
		t.Fatal("batched run crossed the boundary zero times")
	}
	if reduction := perPkt / batched; reduction < 4 {
		t.Fatalf("crossings reduction = %.2fx (perpkt %.0f, batch %.0f), want >= 4x",
			reduction, perPkt, batched)
	}
}

// TestStreamingAcrossReload hot-reloads the driver during a batched
// transfer; the stream must come through complete and in order under
// both builds.
func TestStreamingAcrossReload(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		dropped, reordered, err := streamAcrossReload(mode, 256)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		if dropped != 0 || reordered != 0 {
			t.Fatalf("[%v] dropped=%d reordered=%d across reload", mode, dropped, reordered)
		}
	}
}

// TestBatchRevocationMidBatch is the revocation-soundness pin for the
// batched TX crossing: a principal's skb capabilities are revoked
// between batch enqueue and batch drain — with the per-thread check
// cache deliberately warmed on every element first — and the drain must
// deny exactly the revoked skbs. A stale cached verdict surviving the
// revocation epoch bump would let a dead capability reach the module.
func TestBatchRevocationMidBatch(t *testing.T) {
	const batch = 8
	rig, err := NewRig(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.K.Shutdown()
	st, sys := rig.Stack, rig.K.Sys
	owner := rig.Drv.M.Set.Instance(rig.Drv.Dev)

	var skbs [batch]mem.Addr
	var wire []uint64
	rig.Drv.Nic.OnTx = func(frame []byte) {
		wire = append(wire, binary.LittleEndian.Uint64(frame[:8]))
	}
	for i := 0; i < batch; i++ {
		skb, err := st.AllocSkb(64)
		if err != nil {
			t.Fatal(err)
		}
		skbs[i] = skb
		data, _ := sys.AS.ReadU64(st.SkbField(skb, "head"))
		if err := sys.AS.WriteU64(mem.Addr(data), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := sys.AS.WriteU64(st.SkbField(skb, "len"), 64); err != nil {
			t.Fatal(err)
		}
		sys.Caps.Grant(owner, caps.WriteCap(skb, st.SkbSize()))
		if err := st.EnqueueTx(rig.Th, rig.Drv.Dev, skb, owner); err != nil {
			t.Fatal(err)
		}
		// Warm the per-thread cache with an allow verdict for every
		// element — the stale state a revocation must invalidate.
		if !rig.Th.CheckCached(owner, caps.WriteCap(skb, st.SkbSize())) {
			t.Fatalf("skb %d: owner check failed before revocation", i)
		}
	}

	// Revoke two elements' capabilities between enqueue and drain.
	revoked := map[uint64]bool{2: true, 5: true}
	for seq := range revoked {
		sys.Caps.Revoke(owner, caps.WriteCap(skbs[seq], st.SkbSize()))
	}

	consumed, denied, err := st.DrainTx(rig.Th, rig.Drv.Dev, batch)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != batch-len(revoked) || denied != len(revoked) {
		t.Fatalf("consumed=%d denied=%d, want %d/%d", consumed, denied, batch-len(revoked), len(revoked))
	}
	if st.TxDenied() != uint64(len(revoked)) {
		t.Fatalf("TxDenied = %d", st.TxDenied())
	}
	if len(wire) != batch-len(revoked) {
		t.Fatalf("wire got %d frames, want %d", len(wire), batch-len(revoked))
	}
	for _, seq := range wire {
		if revoked[seq] {
			t.Fatalf("revoked skb %d reached the wire", seq)
		}
	}
	if st.QueuedTx(rig.Drv.Dev) != 0 {
		t.Fatalf("qdisc not drained: %d left", st.QueuedTx(rig.Drv.Dev))
	}
}

// TestBatchCompletionFreesAllocatedPayload: an EnqueueTx owner holds
// WRITE over the skb struct, so it can point head and truesize at a
// buffer another principal owns. Neither completing the consumed skb
// nor dropping a denied one may then revoke or free that buffer: both
// release exactly the payload AllocSkb allocated.
func TestBatchCompletionFreesAllocatedPayload(t *testing.T) {
	for _, path := range []string{"consumed", "denied"} {
		t.Run(path, func(t *testing.T) {
			rig, err := NewRig(core.Enforce)
			if err != nil {
				t.Fatal(err)
			}
			defer rig.K.Shutdown()
			st, sys := rig.Stack, rig.K.Sys
			hostile, err := sys.LoadModule(core.ModuleSpec{
				Name: "skbretarget",
				Funcs: []core.FuncSpec{{
					Name:   "retarget",
					Params: []core.Param{core.P("skb", "u64"), core.P("buf", "u64")},
					Impl: func(th *core.Thread, a []uint64) uint64 {
						skb := mem.Addr(a[0])
						if th.WriteU64(st.SkbField(skb, "head"), a[1]) != nil ||
							th.WriteU64(st.SkbField(skb, "truesize"), 64) != nil {
							return 1
						}
						return 0
					},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			owner := hostile.Set.Shared()
			victim := rig.Drv.M.Set.Instance(rig.Drv.Dev)
			buf, err := sys.Slab.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			sys.Caps.Grant(victim, caps.WriteCap(buf, 64))

			skb, err := st.AllocSkb(64)
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := sys.AS.ReadU64(st.SkbField(skb, "head"))
			if err := sys.AS.WriteU64(st.SkbField(skb, "len"), 64); err != nil {
				t.Fatal(err)
			}
			sys.Caps.Grant(owner, caps.WriteCap(skb, st.SkbSize()))
			if ret, err := rig.Th.CallModule(hostile, "retarget", uint64(skb), uint64(buf)); err != nil || ret != 0 {
				t.Fatalf("checked retarget of the owned skb failed: ret=%d err=%v", ret, err)
			}
			if err := st.EnqueueTx(rig.Th, rig.Drv.Dev, skb, owner); err != nil {
				t.Fatal(err)
			}
			if path == "denied" {
				sys.Caps.Revoke(owner, caps.WriteCap(skb, st.SkbSize()))
			}

			consumed, denied, err := st.DrainTx(rig.Th, rig.Drv.Dev, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantDenied := 0
			if path == "denied" {
				wantDenied = 1
			}
			if consumed != 1-wantDenied || denied != wantDenied {
				t.Fatalf("consumed=%d denied=%d, want %d/%d", consumed, denied, 1-wantDenied, wantDenied)
			}
			if !sys.Caps.Check(victim, caps.WriteCap(buf, 64)) {
				t.Fatal("victim lost WRITE over its own buffer")
			}
			if !sys.Slab.Owns(buf) {
				t.Fatal("victim's buffer was freed")
			}
			if sys.Slab.Owns(mem.Addr(payload)) || sys.Slab.Owns(skb) {
				t.Fatal("the skb or its allocated payload leaked")
			}
		})
	}
}
