package caps

import (
	"testing"
	"testing/quick"

	"lxfi/internal/mem"
)

func sys(t *testing.T) (*System, *ModuleSet) {
	t.Helper()
	s := NewSystem()
	return s, s.LoadModule("econet")
}

func TestGrantCheckWrite(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1000)
	s.Grant(p, WriteCap(0xffff880000000100, 64))

	cases := []struct {
		addr mem.Addr
		size uint64
		want bool
	}{
		{0xffff880000000100, 64, true},
		{0xffff880000000100, 1, true},
		{0xffff880000000120, 32, true},
		{0xffff88000000013f, 1, true},
		{0xffff880000000140, 1, false}, // one past end
		{0xffff8800000000ff, 2, false}, // starts before
		{0xffff880000000100, 65, false},
	}
	for _, c := range cases {
		if got := s.Check(p, WriteCap(c.addr, c.size)); got != c.want {
			t.Errorf("Check WRITE(%#x,%d) = %v, want %v", uint64(c.addr), c.size, got, c.want)
		}
	}
}

func TestWriteCapSpanningBuckets(t *testing.T) {
	// A WRITE capability spanning multiple 4 KiB buckets must be found
	// from any address inside it (the paper inserts into every covered
	// bucket).
	s, ms := sys(t)
	p := ms.Instance(0x1000)
	base := mem.Addr(0xffff880000003f00)
	s.Grant(p, WriteCap(base, 3*4096))
	for off := uint64(0); off < 3*4096; off += 512 {
		if !s.Check(p, WriteCap(base+mem.Addr(off), 8)) {
			t.Fatalf("offset %d not covered", off)
		}
	}
	if s.Check(p, WriteCap(base+3*4096, 1)) {
		t.Fatal("past-end covered")
	}
}

func TestRefAndCallCaps(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x2000)
	s.Grant(p, RefCap("struct pci_dev", 0xabc))
	s.Grant(p, CallCap(0xffffffff81001000))

	if !s.Check(p, RefCap("struct pci_dev", 0xabc)) {
		t.Fatal("REF missing")
	}
	if s.Check(p, RefCap("struct net_device", 0xabc)) {
		t.Fatal("REF type confusion allowed")
	}
	if s.Check(p, RefCap("struct pci_dev", 0xdef)) {
		t.Fatal("REF wrong address allowed")
	}
	if !s.Check(p, CallCap(0xffffffff81001000)) {
		t.Fatal("CALL missing")
	}
	if s.Check(p, CallCap(0xffffffff81001008)) {
		t.Fatal("CALL wrong target allowed")
	}
}

func TestSharedPrincipalFallback(t *testing.T) {
	s, ms := sys(t)
	s.Grant(ms.Shared(), CallCap(0x100))
	inst := ms.Instance(0x5000)
	if !s.Check(inst, CallCap(0x100)) {
		t.Fatal("instance should see shared capability")
	}
	// The reverse does not hold: instance caps are private.
	s.Grant(inst, CallCap(0x200))
	other := ms.Instance(0x6000)
	if s.Check(other, CallCap(0x200)) {
		t.Fatal("sibling instance must not see instance capability")
	}
	if s.Check(ms.Shared(), CallCap(0x200)) {
		t.Fatal("shared must not see instance capability")
	}
}

func TestGlobalPrincipalSeesAll(t *testing.T) {
	s, ms := sys(t)
	s.Grant(ms.Instance(0x1), WriteCap(0xffff880000001000, 8))
	s.Grant(ms.Shared(), CallCap(0x42))
	g := ms.Global()
	if !s.Check(g, WriteCap(0xffff880000001000, 8)) {
		t.Fatal("global should see instance capability")
	}
	if !s.Check(g, CallCap(0x42)) {
		t.Fatal("global should see shared capability")
	}
	if s.Check(g, CallCap(0x43)) {
		t.Fatal("global invented a capability")
	}
}

func TestTrustedKernel(t *testing.T) {
	s := NewSystem()
	if !s.Check(s.Trusted, WriteCap(0xdead, 1<<30)) {
		t.Fatal("kernel must pass all checks")
	}
	if !s.Check(nil, CallCap(1)) {
		t.Fatal("nil principal means kernel context")
	}
	s.Grant(s.Trusted, CallCap(7)) // no-op, must not panic
}

func TestRevokeAllTransferSemantics(t *testing.T) {
	s := NewSystem()
	a := s.LoadModule("rds")
	b := s.LoadModule("e1000")
	c := WriteCap(0xffff880000002000, 128)
	s.Grant(a.Shared(), c)
	s.Grant(a.Instance(0x9), c)
	s.Grant(b.Shared(), c)
	n := s.RevokeAll(c)
	if n != 3 {
		t.Fatalf("revoked from %d principals, want 3", n)
	}
	for _, p := range []*Principal{a.Shared(), a.Instance(0x9), b.Shared()} {
		if s.Check(p, c) {
			t.Fatalf("%s still holds revoked capability", p)
		}
	}
}

func TestRevokeOverlapIsConservative(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1)
	s.Grant(p, WriteCap(0xffff880000000000, 256))
	// Revoking a sub-range strips the whole overlapping entry.
	s.RevokeAll(WriteCap(0xffff880000000080, 8))
	if s.Check(p, WriteCap(0xffff880000000000, 8)) {
		t.Fatal("overlapping revoke must remove the covering entry")
	}
}

func TestRevokeSpanningEntryFromSideBucket(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1)
	base := mem.Addr(0xffff880000000000)
	s.Grant(p, WriteCap(base, 3*4096))
	// Revoke using a range in the middle bucket only.
	s.RevokeAll(WriteCap(base+4096+8, 8))
	for off := uint64(0); off < 3*4096; off += 4096 {
		if s.Check(p, WriteCap(base+mem.Addr(off), 8)) {
			t.Fatalf("entry fragment survived at offset %d", off)
		}
	}
}

func TestAlias(t *testing.T) {
	s, ms := sys(t)
	pci := mem.Addr(0x111)
	ndev := mem.Addr(0x222)
	p := ms.Instance(pci)
	s.Grant(p, RefCap("struct pci_dev", pci))
	if err := ms.Alias(pci, ndev); err != nil {
		t.Fatal(err)
	}
	q := ms.Instance(ndev)
	if q != p {
		t.Fatal("alias did not resolve to canonical principal")
	}
	if !s.Check(q, RefCap("struct pci_dev", pci)) {
		t.Fatal("capability not visible through alias")
	}
	// Rebinding an alias to a different principal must fail.
	other := mem.Addr(0x333)
	ms.Instance(other)
	if err := ms.Alias(other, ndev); err == nil {
		t.Fatal("rebinding alias should fail")
	}
	// Aliasing to the same principal again is idempotent.
	if err := ms.Alias(pci, ndev); err != nil {
		t.Fatalf("idempotent alias failed: %v", err)
	}
	if err := ms.Alias(pci, 0); err == nil {
		t.Fatal("NULL alias should fail")
	}
}

func TestDropInstance(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x10)
	if err := ms.Alias(0x10, 0x20); err != nil {
		t.Fatal(err)
	}
	s.Grant(p, CallCap(1))
	ms.DropInstance(0x20) // dropping via an alias removes all names
	if _, ok := ms.Lookup(0x10); ok {
		t.Fatal("canonical name survived drop")
	}
	if _, ok := ms.Lookup(0x20); ok {
		t.Fatal("alias survived drop")
	}
	// A fresh principal under the old name has no capabilities.
	if s.Check(ms.Instance(0x10), CallCap(1)) {
		t.Fatal("capabilities leaked across instance drop")
	}
}

func TestWriteGrantees(t *testing.T) {
	s := NewSystem()
	a := s.LoadModule("a")
	b := s.LoadModule("b")
	addr := mem.Addr(0xffff880000004000)
	s.Grant(a.Shared(), WriteCap(addr, 64))
	s.Grant(b.Instance(0x7), WriteCap(addr+32, 8))
	got := s.WriteGrantees(nil, addr+32)
	if len(got) != 2 {
		t.Fatalf("grantees = %v", got)
	}
	got = s.WriteGrantees(nil, addr+63)
	if len(got) != 1 || got[0] != a.Shared() {
		t.Fatalf("grantees at +63 = %v", got)
	}
	if len(s.WriteGrantees(nil, addr+64)) != 0 {
		t.Fatal("no grantee expected past end")
	}
}

// TestUnloadModule: unloading a set takes its principals out of the
// snapshot, so the grantee sweeps no longer report capabilities they
// held, while another set's grants stay visible.
func TestUnloadModule(t *testing.T) {
	s := NewSystem()
	ms := s.LoadModule("dm-zero")
	other := s.LoadModule("dm-zero")
	const addr = mem.Addr(0xffff880000001000)
	s.Grant(ms.Shared(), WriteCap(addr, 64))
	s.Grant(ms.Instance(0x10), RefCap("struct bio", addr))
	s.Grant(other.Shared(), WriteCap(addr, 8))
	if got := s.WriteGrantees(nil, addr); len(got) != 2 {
		t.Fatalf("before unload: write grantees = %v", got)
	}
	s.UnloadModule(ms)
	if got := s.WriteGrantees(nil, addr); len(got) != 1 || got[0] != other.Shared() {
		t.Fatalf("after unload: write grantees = %v, want only the other set's", got)
	}
	if got := s.RefGrantees("struct bio", addr); len(got) != 0 {
		t.Fatalf("after unload: ref grantees = %v", got)
	}
}

func TestModuleSetPrincipalsOrder(t *testing.T) {
	_, ms := sys(t)
	ms.Instance(0x30)
	ms.Instance(0x10)
	ms.Instance(0x20)
	ps := ms.Principals()
	if len(ps) != 5 {
		t.Fatalf("principals = %d, want 5", len(ps))
	}
	if ps[0].Kind != Shared || ps[1].Kind != Global {
		t.Fatal("shared/global must come first")
	}
	if !(ps[2].Name == 0x10 && ps[3].Name == 0x20 && ps[4].Name == 0x30) {
		t.Fatal("instances not sorted")
	}
}

func TestCapString(t *testing.T) {
	cases := map[string]Cap{
		"WRITE(0x10,8)":      WriteCap(0x10, 8),
		"REF(struct s,0x20)": RefCap("struct s", 0x20),
		"CALL(0x30)":         CallCap(0x30),
	}
	for want, c := range cases {
		if c.String() != want {
			t.Errorf("String = %q, want %q", c.String(), want)
		}
	}
}

// Property: after Grant, Check succeeds for every sub-range; after
// RevokeAll, Check fails for every sub-range.
func TestWriteCapProperty(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1)
	f := func(off uint16, size uint16, probeOff uint16) bool {
		sz := uint64(size%8192) + 1
		base := mem.Addr(0xffff880000000000) + mem.Addr(off)
		c := WriteCap(base, sz)
		s.Grant(p, c)
		po := uint64(probeOff) % sz
		probe := WriteCap(base+mem.Addr(po), 1)
		if !s.Check(p, probe) {
			return false
		}
		s.RevokeAll(c)
		return !s.Check(p, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: REF capabilities are exact on (type, addr).
func TestRefCapProperty(t *testing.T) {
	s, ms := sys(t)
	p := ms.Instance(0x1)
	f := func(addr uint32, flip bool) bool {
		a := mem.Addr(addr) | 1 // avoid 0
		s.Grant(p, RefCap("t", a))
		ok := s.Check(p, RefCap("t", a))
		wrong := s.Check(p, RefCap("u", a)) || s.Check(p, RefCap("t", a+1))
		s.RevokeAll(RefCap("t", a))
		gone := !s.Check(p, RefCap("t", a))
		return ok && !wrong && gone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWrappingWriteProbeNotCovered: a WRITE probe whose range wraps past
// the top of the address space is owned by nobody, whatever the shard
// count. Its wrapped end compares below any entry's end, so without the
// overflow check a principal holding an unrelated WRITE range in the
// probe's shard would own it, and which shard that is depends on
// GOMAXPROCS.
func TestWrappingWriteProbeNotCovered(t *testing.T) {
	probes := []Cap{
		WriteCap(0xffffffffffffffff, 1),
		WriteCap(0xffffffffffffffea, 48),
		WriteCap(0xffff880000000100, ^uint64(0)),
	}
	for _, n := range []int{1, 2, 8, 64} {
		s := NewSystemWithShards(n)
		p := s.LoadModule("m").Instance(0x1)
		s.Grant(p, WriteCap(0xffff880000000100, 64))
		s.Grant(p, WriteCap(0xfffffffffffff000, 0x800))
		for _, c := range probes {
			if s.Check(p, c) {
				t.Errorf("%d shards: wrapping probe %s reported owned", n, c)
			}
		}
	}
	var l LinearWriteSet
	l.Grant(0xffff880000000100, 64)
	l.Grant(0xfffffffffffff000, 0x800)
	for _, c := range probes {
		if l.Check(c.Addr, c.Size) {
			t.Errorf("linear set: wrapping probe %s reported owned", c)
		}
	}
}

// TestWrappingRevocationStrips: a WRITE revocation whose range wraps
// past the top of the address space strips every entry it reaches below
// the top, whatever the shard count. Computed with the wrapped end, the
// overlap test and the shard walk would see an empty or low range and
// strip nothing. A held entry that itself ends exactly at 2^64 must be
// checkable and revocable too: stored with its wrapped end (0), the
// prefix maximum never reached it.
func TestWrappingRevocationStrips(t *testing.T) {
	top := WriteCap(0xfffffffffffff000, 0x1000)
	inside := WriteCap(0xfffffffffffff800, 8)
	for _, n := range []int{1, 2, 8, 64} {
		s := NewSystemWithShards(n)
		p := s.LoadModule("m").Instance(0x1)
		s.Grant(p, top)
		if !s.Check(p, inside) {
			t.Errorf("%d shards: %s held, %s inside it not covered", n, top, inside)
		}
		if got := s.RevokeAll(top); got != 1 || s.Check(p, inside) || len(p.WriteRegions()) != 0 {
			t.Errorf("%d shards: RevokeAll(%s) stripped %d principals, left %v", n, top, got, p.WriteRegions())
		}
		s.Grant(p, top)
		s.Revoke(p, inside)
		if len(p.WriteRegions()) != 0 {
			t.Errorf("%d shards: Revoke(%s) left %v", n, inside, p.WriteRegions())
		}
	}
	var lt LinearWriteSet
	lt.Grant(top.Addr, top.Size)
	if !lt.Check(inside.Addr, inside.Size) {
		t.Errorf("linear set: %s held, %s inside it not covered", top, inside)
	}
	if !lt.RevokeOverlap(inside.Addr, inside.Size) || lt.Len() != 0 {
		t.Errorf("linear set: RevokeOverlap(%s) left %d entries", inside, lt.Len())
	}

	held := WriteCap(0xffffffffffff0000, 0x1000)
	revokes := []Cap{
		WriteCap(0xffffffffffff0000, 0x20000),
		WriteCap(0xfffffffffffe8000, 0x20000),
		WriteCap(0xffff880000000000, ^uint64(0)),
	}
	for _, n := range []int{1, 2, 8, 64} {
		for _, c := range revokes {
			s := NewSystemWithShards(n)
			p := s.LoadModule("m").Instance(0x1)
			s.Grant(p, held)
			s.Revoke(p, c)
			if s.Check(p, held) {
				t.Errorf("%d shards: Revoke(%s) left %s", n, c, held)
			}
			s.Grant(p, held)
			if got := s.RevokeAll(c); got != 1 || s.Check(p, held) {
				t.Errorf("%d shards: RevokeAll(%s) stripped %d principals, %s still held: %v",
					n, c, got, held, s.Check(p, held))
			}
		}
	}
	for _, c := range revokes {
		var l LinearWriteSet
		l.Grant(held.Addr, held.Size)
		if !l.RevokeOverlap(c.Addr, c.Size) || l.Check(held.Addr, held.Size) {
			t.Errorf("linear set: RevokeOverlap(%s) left %s", c, held)
		}
	}
}
