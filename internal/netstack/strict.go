package netstack

// Guideline 4 of §6: "When dealing with large data structures, where
// the module only needs write access to a small number of the
// structure's members, modify the kernel API to provide stronger API
// integrity. ... It would be safer to have the kernel provide functions
// to change the necessary fields in an sk_buff. Then LXFI could grant
// the module a REF capability, perhaps with a special type of
// `sk_buff fields`."
//
// This file implements that redesigned interface: field-accessor
// exports guarded by the special REF type, a capability iterator that
// hands a driver REF(sk_buff fields) + payload WRITE instead of WRITE
// over the whole sk_buff, and a strict variant of ndo_start_xmit using
// it. The ablation benchmarks compare the two designs; the security
// tests show the strict driver cannot corrupt the sk_buff header (e.g.
// redirect its data pointer) even if compromised.

import (
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// SkbFieldsRefType is the special REF type of Guideline 4.
const SkbFieldsRefType = "sk_buff fields"

// NdoStartXmitStrict is the redesigned transmit interface: the driver
// receives REF(sk_buff fields) for the header plus WRITE for the
// payload only.
const NdoStartXmitStrict = "net_device_ops.ndo_start_xmit_strict"

// StrictInit registers the Guideline-4 interface; call once after Init
// when a strict driver is in use.
func (s *Stack) StrictInit() {
	sys := s.K.Sys
	if ft, ok := sys.FPtrType(NdoStartXmitStrict); ok {
		s.gStartXmitStrict = ft
		return
	}

	// skb_strict_caps: REF for the header, WRITE for the payload only.
	sys.RegisterIterator("skb_strict_caps", func(t *core.Thread, args []int64, emit func(caps.Cap) error) error {
		skb := mem.Addr(uint64(args[0]))
		if skb == 0 {
			return nil
		}
		return s.emitSkb(skb, caps.RefCap(SkbFieldsRefType, skb), emit)
	})

	s.gStartXmitStrict = sys.RegisterFPtrType(NdoStartXmitStrict,
		[]core.Param{core.P("skb", "struct sk_buff *"), core.P("dev", "struct net_device *")},
		"principal(dev) pre(transfer(skb_strict_caps(skb))) "+
			"post(if (return == NETDEV_TX_BUSY) transfer(skb_strict_caps(skb)))")

	// kfree_skb_strict: the free path matching the strict capability
	// split — ownership is proven with REF(sk_buff fields) + payload
	// WRITE rather than whole-struct WRITE.
	sys.RegisterKernelFunc("kfree_skb_strict",
		[]core.Param{core.P("skb", "struct sk_buff *")},
		"pre(transfer(skb_strict_caps(skb)))",
		func(t *core.Thread, args []uint64) uint64 {
			s.FreeSkb(mem.Addr(args[0]))
			return 0
		})

	// Field accessors: the kernel performs the header store after
	// checking the REF capability. Only the fields drivers legitimately
	// touch get accessors (the paper counts 5 of 51 for e1000).
	for _, field := range []string{"len", "dev", "protocol"} {
		field := field
		sys.RegisterKernelFunc("skb_set_"+field,
			[]core.Param{core.P("skb", "struct sk_buff *"), core.P("v", "u64")},
			"pre(check(ref(sk_buff fields), skb))",
			func(t *core.Thread, args []uint64) uint64 {
				if err := sys.AS.WriteU64(mem.Addr(args[0])+mem.Addr(s.skb.Off(field)), args[1]); err != nil {
					return kernel.Err(kernel.EFAULT)
				}
				return 0
			})
	}
}

// StrictImports are the extra kernel exports a Guideline-4 driver needs.
var StrictImports = []string{"skb_set_len", "skb_set_dev", "skb_set_protocol", "kfree_skb_strict"}

// XmitSkbStrict is dev_queue_xmit for a device whose driver implements
// the strict interface.
func (s *Stack) XmitSkbStrict(t *core.Thread, dev, skb mem.Addr) (uint64, error) {
	if s.gStartXmitStrict == nil {
		panic("netstack: XmitSkbStrict before StrictInit (strict interface not registered)")
	}
	sys := s.K.Sys
	q, err := sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("qdisc")))
	if err != nil || q == 0 {
		return 0, errNoQdisc(dev)
	}
	qd := mem.Addr(q)
	if _, err := s.gQdiscEnq.Call(t, qd+mem.Addr(s.qdisc.Off("enqueue")), uint64(qd), uint64(skb)); err != nil {
		return 0, err
	}
	out, err := s.gQdiscDeq.Call(t, qd+mem.Addr(s.qdisc.Off("dequeue")), uint64(qd))
	if err != nil || out == 0 {
		return 0, err
	}
	ops, err := sys.AS.ReadU64(dev + mem.Addr(s.ndev.Off("ops")))
	if err != nil || ops == 0 {
		return 0, errNoQdisc(dev)
	}
	slot := mem.Addr(ops) + mem.Addr(s.nops.Off("ndo_start_xmit"))
	return s.gStartXmitStrict.Call(t, slot, out, uint64(dev))
}

type errNoQdisc mem.Addr

func (e errNoQdisc) Error() string { return "netstack: device has no qdisc/ops" }
