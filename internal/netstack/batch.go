package netstack

// Batched data path — the line-rate half of the paper's Fig. 11–13
// story. The per-packet ndo_start_xmit crossing is what makes the UDP
// rows CPU-bound under enforcement; TCP survives because large segments
// amortize it. This file amortizes it structurally:
//
//   - TX: dev_queue_xmit still enqueues per-skb on the qdisc
//     (EnqueueTx), but the dequeue side (DrainTx) drains up to a budget
//     of skbs and hands them to the driver through ONE
//     ndo_start_xmit_batch crossing. The annotation program checks the
//     skb array once per batch, with per-element WRITE verdicts riding
//     the per-thread check cache; revoked elements are denied at drain
//     time by an explicit epoch-validated owner re-check, so a
//     capability revoked between enqueue and drain can never reach the
//     module.
//   - RX: the module's NAPI poll delivers a whole budget through two
//     crossings (alloc_skb_batch + netif_rx_batch) instead of two
//     crossings per packet, with receive-side capability transfers
//     granted per-batch.
//
// Consumed TX skbs are completed kernel-side after the crossing
// returns: their capabilities are revoked from every principal and the
// buffers freed, the batch analogue of kfree_skb's transfer annotation
// — without the per-skb kernel crossing the per-packet path pays.

import (
	"fmt"
	"sync/atomic"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/mem"
)

// NdoStartXmitBatch is the batched transmit interface: the kernel hands
// the driver an array of skb pointers and the driver returns how many
// it consumed.
const NdoStartXmitBatch = "net_device_ops.ndo_start_xmit_batch"

// TxBatchMax bounds one batch crossing (the per-device batch array's
// capacity, and the sanity cap the iterators enforce on annotation
// walks).
const TxBatchMax = 64

// DefaultTxBudget is the drain budget streaming workloads use — the
// "B" of the crossings-per-byte acceptance target.
const DefaultTxBudget = 8

// emitSkbArray emits the capability pair (struct WRITE + payload WRITE)
// for every non-nil skb pointer in arr[0:n] — skb_caps lifted over a
// batch.
func (s *Stack) emitSkbArray(arr mem.Addr, n int64, emit func(caps.Cap) error) error {
	if arr == 0 || n <= 0 {
		return nil
	}
	if n > TxBatchMax {
		n = TxBatchMax
	}
	sys := s.K.Sys
	for i := int64(0); i < n; i++ {
		w, err := sys.AS.ReadU64(arr + mem.Addr(i*8))
		if err != nil || w == 0 {
			continue
		}
		skb := mem.Addr(w)
		if err := s.emitSkb(skb, caps.WriteCap(skb, s.skb.Size), emit); err != nil {
			return err
		}
	}
	return nil
}

// registerBatchIterators registers the batch capability iterators.
// Runs before registerFPtrTypes so the batch annotation programs
// compile with the iterators resolved at bind time.
func (s *Stack) registerBatchIterators() {
	sys := s.K.Sys
	// skb_array_caps(arr, n): the capabilities of every skb named by an
	// n-element pointer array.
	sys.RegisterIterator("skb_array_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		return s.emitSkbArray(mem.Addr(uint64(args[0])), args[1], emit)
	})
}

// registerBatchExports registers the receive-side batch kernel exports.
func (s *Stack) registerBatchExports() {
	sys := s.K.Sys

	// alloc_skb_batch: the kernel fills a module-owned pointer array
	// with up to n fresh skbs of the given payload size and transfers
	// every allocated skb's capabilities in one post action. The pre
	// check pins API integrity: the module must own the array it asks
	// the kernel to write.
	sys.RegisterKernelFunc("alloc_skb_batch",
		[]core.Param{core.P("arr", "u64 *"), core.P("n", "u64"), core.P("size", "size_t")},
		"pre(check(write, arr, n * 8)) post(transfer(skb_array_caps(arr, return)))",
		func(t *core.Thread, args []uint64) uint64 {
			arr, n, size := mem.Addr(args[0]), args[1], args[2]
			if n > TxBatchMax {
				n = TxBatchMax
			}
			var done uint64
			for ; done < n; done++ {
				skb, err := s.AllocSkb(size)
				if err != nil {
					break
				}
				if sys.AS.WriteU64(arr+mem.Addr(done*8), uint64(skb)) != nil {
					s.FreeSkb(skb)
					break
				}
			}
			return done
		})

	// netif_rx_batch: netif_rx lifted over a batch — one crossing
	// appends n packets to the protocol backlog, and the transfer
	// annotation revokes the driver's write access to all of them so
	// none can be modified after the kernel accepted the batch (§3.3).
	sys.RegisterKernelFunc("netif_rx_batch",
		[]core.Param{core.P("arr", "u64 *"), core.P("n", "u64")},
		"pre(transfer(skb_array_caps(arr, n)))",
		func(t *core.Thread, args []uint64) uint64 {
			arr, n := mem.Addr(args[0]), args[1]
			if n > TxBatchMax {
				n = TxBatchMax
			}
			var accepted uint64
			s.backlogMu.Lock()
			for i := uint64(0); i < n; i++ {
				w, err := sys.AS.ReadU64(arr + mem.Addr(i*8))
				if err != nil || w == 0 {
					continue
				}
				s.backlog = append(s.backlog, mem.Addr(w))
				s.RxDelivered++
				accepted++
			}
			s.backlogMu.Unlock()
			return accepted
		})
}

// txBatchArr returns the kernel-owned batch array for a device,
// allocating it on first use. Kernel statics: the module only ever
// reads it, so the crossing needs no array capability transfer.
func (s *Stack) txBatchArr(dev mem.Addr) mem.Addr {
	s.qmu.Lock()
	arr, ok := s.txBatch[dev]
	if !ok {
		arr = s.K.Sys.Statics.Alloc(TxBatchMax*8, 8)
		s.txBatch[dev] = arr
	}
	s.qmu.Unlock()
	return arr
}

// EnqueueTx is the enqueue half of batched dev_queue_xmit: the skb goes
// onto the device's qdisc and, if owner is non-nil, the principal whose
// WRITE capability over the skb must still be live when the batch
// drains is recorded. DrainTx performs the actual crossing.
func (s *Stack) EnqueueTx(t *core.Thread, dev, skb mem.Addr, owner *caps.Principal) error {
	// Same fault seam as the per-packet path: an injected error drops
	// the packet before it reaches the qdisc.
	if err := failpoint.Inject("netstack.xmit"); err != nil {
		return err
	}
	qd, err := s.devQdisc(dev)
	if err != nil {
		return err
	}
	if _, err := s.gQdiscEnq.Call(t, qd+mem.Addr(s.qdisc.Off("enqueue")), uint64(qd), uint64(skb)); err != nil {
		return err
	}
	if owner != nil {
		s.qmu.Lock()
		s.txOwner[uint64(skb)] = owner
		s.qmu.Unlock()
	}
	return nil
}

// DrainTx dequeues up to budget skbs from the device's qdisc,
// re-validates each recorded owner through the per-thread
// epoch-validated check cache, and hands the survivors to the driver in
// one ndo_start_xmit_batch crossing. Returns (consumed, denied):
// consumed skbs are completed kernel-side (capabilities revoked,
// buffers freed); denied skbs — those whose owner's WRITE capability
// was revoked between enqueue and drain — are dropped without ever
// reaching the module. A busy tail (driver consumed fewer than handed)
// is requeued at the head of the qdisc with its owner records restored.
func (s *Stack) DrainTx(t *core.Thread, dev mem.Addr, budget int) (consumed, denied int, err error) {
	// Fault site: cut power mid-batch — the drain fails after packets
	// were enqueued but before the batch crossing runs.
	if err := failpoint.Inject("netstack.xmit_batch"); err != nil {
		return 0, 0, err
	}
	if budget <= 0 || budget > TxBatchMax {
		budget = TxBatchMax
	}
	sys := s.K.Sys
	qd, err := s.devQdisc(dev)
	if err != nil {
		return 0, 0, err
	}
	arr := s.txBatchArr(dev)

	var owners [TxBatchMax]*caps.Principal
	n := 0
	for n < budget {
		out, err := s.gQdiscDeq.Call(t, qd+mem.Addr(s.qdisc.Off("dequeue")), uint64(qd))
		if err != nil {
			return 0, denied, err
		}
		if out == 0 {
			break
		}
		owner := s.takeTxOwner(out)
		// Per-element revocation soundness: the verdict rides the
		// epoch-validated check cache, so a revoke between enqueue and
		// drain invalidates any cached allow and the authoritative
		// tables deny the element here.
		if owner != nil && !t.CheckCached(owner, caps.WriteCap(mem.Addr(out), s.skb.Size)) {
			denied++
			atomic.AddUint64(&s.txDenied, 1)
			s.FreeSkb(mem.Addr(out))
			continue
		}
		if err := sys.AS.WriteU64(arr+mem.Addr(n*8), out); err != nil {
			s.FreeSkb(mem.Addr(out))
			return 0, denied, err
		}
		owners[n] = owner
		n++
	}
	if n == 0 {
		return 0, denied, nil
	}

	ops, err := sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("ops")))
	if err != nil || ops == 0 {
		return 0, denied, fmt.Errorf("netstack: device %#x has no ops", uint64(dev))
	}
	slot := mem.Addr(ops) + mem.Addr(s.nops.Off("ndo_start_xmit_batch"))
	ret, err := s.gStartXmitBatch.Call(t, slot, uint64(arr), uint64(n), uint64(dev))
	if err != nil {
		return 0, denied, err
	}
	consumed = int(ret)
	if consumed > n {
		consumed = n
	}

	// Kernel-side TX completion for the consumed prefix: the crossing
	// transferred nothing, so the kernel still owns kernel-originated
	// skbs and frees them outright — the batch analogue of kfree_skb
	// without its per-skb crossing or capability churn. Elements a
	// module principal still owns are revoked everywhere first so no
	// capability dangles over freed memory. The payload comes from the
	// kernel's allocation record, not from head and truesize, which the
	// owner could have pointed at another principal's buffer.
	for i := 0; i < consumed; i++ {
		w, _ := sys.AS.ReadU64(arr + mem.Addr(i*8))
		if w == 0 {
			continue
		}
		skb := mem.Addr(w)
		if owners[i] != nil {
			data, size := s.skbPayload(skb)
			sys.Caps.RevokeAll(caps.WriteCap(skb, s.skb.Size))
			sys.Caps.RevokeAll(caps.WriteCap(data, size))
		}
		s.FreeSkb(skb)
	}

	// Busy tail: requeue the unconsumed skbs at the head so the retry
	// preserves wire order, and restore their owner records.
	if consumed < n {
		tail := make([]uint64, 0, n-consumed)
		for i := consumed; i < n; i++ {
			w, _ := sys.AS.ReadU64(arr + mem.Addr(i*8))
			if w == 0 {
				continue
			}
			tail = append(tail, w)
		}
		s.qmu.Lock()
		s.queues[qd] = append(tail, s.queues[qd]...)
		for i := consumed; i < n; i++ {
			if owners[i] != nil {
				w, _ := sys.AS.ReadU64(arr + mem.Addr(i*8))
				s.txOwner[w] = owners[i]
			}
		}
		s.qmu.Unlock()
	}
	return consumed, denied, nil
}

// takeTxOwner removes and returns the owner recorded for an enqueued
// skb (nil for kernel-originated packets).
func (s *Stack) takeTxOwner(skb uint64) *caps.Principal {
	s.qmu.Lock()
	owner := s.txOwner[skb]
	if owner != nil {
		delete(s.txOwner, skb)
	}
	s.qmu.Unlock()
	return owner
}

// SkbSize returns the size of the sk_buff struct — the extent of the
// WRITE capability DrainTx revalidates per element (tests grant and
// revoke exactly this capability).
func (s *Stack) SkbSize() uint64 { return s.skb.Size }

// QueuedTx returns how many skbs sit on the device's qdisc.
func (s *Stack) QueuedTx(dev mem.Addr) int {
	qd, err := s.devQdisc(dev)
	if err != nil {
		return 0
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queues[qd])
}

// TxDenied returns how many enqueued skbs DrainTx refused because their
// owner's capability had been revoked mid-batch.
func (s *Stack) TxDenied() uint64 { return atomic.LoadUint64(&s.txDenied) }

// devQdisc loads a device's qdisc pointer.
func (s *Stack) devQdisc(dev mem.Addr) (mem.Addr, error) {
	q, err := s.K.Sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("qdisc")))
	if err != nil || q == 0 {
		return 0, fmt.Errorf("netstack: device %#x has no qdisc", uint64(dev))
	}
	return mem.Addr(q), nil
}
