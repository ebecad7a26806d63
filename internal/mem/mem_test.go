package mem

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapAndRW(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 3*PageSize)
	data := []byte("hello, kernel")
	if err := as.Write(KernelHeap+100, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.Read(KernelHeap+100, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestCrossPageRW(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	addr := KernelHeap + PageSize - 150 // straddles the page boundary
	if err := as.Write(addr, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.Read(addr, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestUnmappedFault(t *testing.T) {
	as := NewAddressSpace()
	err := as.Write(KernelHeap, []byte{1})
	var ae *AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("want AccessError, got %v", err)
	}
	if ae.Op != "write" || ae.Addr != KernelHeap {
		t.Fatalf("bad fault info: %+v", ae)
	}
	if as.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", as.Faults())
	}
	// NULL pointer dereference is a fault too (page 0 unmapped).
	if err := as.Read(0, make([]byte, 8)); err == nil {
		t.Fatal("NULL read should fault")
	}
}

func TestPartialFaultMidWrite(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, PageSize) // only first page
	data := make([]byte, 100)
	addr := KernelHeap + PageSize - 50
	if err := as.Write(addr, data); err == nil {
		t.Fatal("write crossing into unmapped page should fault")
	}
}

// TestProbeMatchesReadFault: Probe reports and counts the fault a Read
// of the same range takes, at the same address, and passes a mapped
// range that crosses pages.
func TestProbeMatchesReadFault(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	if err := as.Probe(KernelHeap+100, 2*PageSize-100); err != nil {
		t.Fatalf("mapped range: %v", err)
	}
	addr := KernelHeap + 2*PageSize - 50
	rerr := as.Read(addr, make([]byte, 100))
	perr := as.Probe(addr, 100)
	var re, pe *AccessError
	if !errors.As(rerr, &re) || !errors.As(perr, &pe) {
		t.Fatalf("want two AccessErrors, got %v and %v", rerr, perr)
	}
	if *re != *pe {
		t.Fatalf("probe fault %+v, read fault %+v", pe, re)
	}
	if as.Faults() != 2 {
		t.Fatalf("faults = %d, want 2", as.Faults())
	}
	if err := as.Probe(0, 0); err != nil {
		t.Fatalf("empty range: %v", err)
	}
}

func TestScalarAccessors(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, PageSize)
	a := KernelHeap + 64
	if err := as.WriteU64(a, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	v64, err := as.ReadU64(a)
	if err != nil || v64 != 0xdeadbeefcafebabe {
		t.Fatalf("u64 = %#x, %v", v64, err)
	}
	// Little-endian overlap check.
	v32, _ := as.ReadU32(a)
	if v32 != 0xcafebabe {
		t.Fatalf("u32 low = %#x", v32)
	}
	if err := as.WriteU32(a+4, 0); err != nil {
		t.Fatal(err)
	}
	v64, _ = as.ReadU64(a)
	if v64 != 0x00000000cafebabe {
		t.Fatalf("after zeroing high half: %#x", v64)
	}
	if err := as.WriteU16(a, 0x1234); err != nil {
		t.Fatal(err)
	}
	v16, _ := as.ReadU16(a)
	if v16 != 0x1234 {
		t.Fatalf("u16 = %#x", v16)
	}
	if err := as.WriteU8(a, 0xff); err != nil {
		t.Fatal(err)
	}
	v8, _ := as.ReadU8(a)
	if v8 != 0xff {
		t.Fatalf("u8 = %#x", v8)
	}
}

func TestCString(t *testing.T) {
	as := NewAddressSpace()
	as.Map(UserHeap, PageSize)
	if err := as.WriteCString(UserHeap, "econet"); err != nil {
		t.Fatal(err)
	}
	s, err := as.ReadCString(UserHeap, 64)
	if err != nil || s != "econet" {
		t.Fatalf("cstring = %q, %v", s, err)
	}
}

func TestZero(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	data := bytes.Repeat([]byte{0xaa}, 2*PageSize)
	if err := as.Write(KernelHeap, data); err != nil {
		t.Fatal(err)
	}
	if err := as.Zero(KernelHeap+10, PageSize+100); err != nil {
		t.Fatal(err)
	}
	b, _ := as.ReadBytes(KernelHeap, 2*PageSize)
	for i, v := range b {
		want := byte(0xaa)
		if i >= 10 && i < 10+PageSize+100 {
			want = 0
		}
		if v != want {
			t.Fatalf("byte %d = %#x want %#x", i, v, want)
		}
	}
}

func TestUserKernelSplit(t *testing.T) {
	cases := []struct {
		a    Addr
		user bool
	}{
		{0, true},
		{UserText, true},
		{UserHeap, true},
		{UserTop - 1, true},
		{UserTop, false},
		{KernelHeap, false},
		{KernelText, false},
		{ModuleText, false},
	}
	for _, c := range cases {
		if IsUser(c.a) != c.user {
			t.Errorf("IsUser(%#x) = %v, want %v", uint64(c.a), !c.user, c.user)
		}
		if IsKernel(c.a) == c.user {
			t.Errorf("IsKernel(%#x) inconsistent", uint64(c.a))
		}
	}
}

func TestSizeClassFor(t *testing.T) {
	cases := map[uint64]uint64{
		1: 8, 8: 8, 9: 16, 16: 16, 17: 32,
		65: 96, 97: 128, 200: 256, 4096: 4096,
		4097: 8192, 10000: 12288,
	}
	for in, want := range cases {
		if got := SizeClassFor(in); got != want {
			t.Errorf("SizeClassFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func newSlab() (*AddressSpace, *Slab) {
	as := NewAddressSpace()
	return as, NewSlab(as, KernelHeap)
}

func TestSlabAllocFree(t *testing.T) {
	_, s := newSlab()
	a, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if sz, ok := s.ObjectSize(a); !ok || sz != 128 {
		t.Fatalf("ObjectSize = %d, %v", sz, ok)
	}
	if rq, ok := s.RequestedSize(a); !ok || rq != 100 {
		t.Fatalf("RequestedSize = %d, %v", rq, ok)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.Owns(a) {
		t.Fatal("freed object still owned")
	}
	if err := s.Free(a); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

// TestPayloadRecordIsAllocatorMetadata: the payload record lives in
// the object's allocator entry, so no store through the object's
// addresses can reach it, an address that is not an object base has
// none, and FreeWithPayload releases exactly the recorded payload.
func TestPayloadRecordIsAllocatorMetadata(t *testing.T) {
	as, s := newSlab()
	obj, data, err := s.AllocWithPayload(48, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := s.ObjectSize(obj); sz != 64 {
		t.Fatalf("48-byte struct in the %d-byte class, want 64", sz)
	}
	if err := as.Write(obj, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	if got, size := s.Payload(obj); got != data || size != 100 {
		t.Fatalf("Payload = %#x, %d after overwriting the object; want %#x, 100", uint64(got), size, uint64(data))
	}
	if got, size := s.Payload(obj + 8); got != 0 || size != 0 {
		t.Fatalf("interior pointer has a record: %#x, %d", uint64(got), size)
	}
	s.FreeWithPayload(obj)
	if s.Owns(obj) || s.Owns(data) {
		t.Fatal("FreeWithPayload left the object or its payload live")
	}
	if got, _ := s.Payload(obj); got != 0 {
		t.Fatal("freed object still has a record")
	}
}

func TestSlabAdjacency(t *testing.T) {
	// Two back-to-back allocations of the same class land adjacent in the
	// same page — the property CVE-2010-2959 exploits.
	_, s := newSlab()
	a, _ := s.Alloc(16)
	b, _ := s.Alloc(16)
	if b != a+16 {
		t.Fatalf("allocations not adjacent: %#x then %#x", uint64(a), uint64(b))
	}
	next, ok := s.NextObject(a)
	if !ok || next != b {
		t.Fatalf("NextObject = %#x, %v", uint64(next), ok)
	}
}

func TestSlabZeroedAndPoisoned(t *testing.T) {
	as, s := newSlab()
	a, _ := s.Alloc(32)
	if err := as.Write(a, bytes.Repeat([]byte{0xff}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := as.ReadBytes(a, 32)
	for i, v := range b {
		if v != 0x6b {
			t.Fatalf("byte %d not poisoned: %#x", i, v)
		}
	}
	// Reallocation of the slot must be zeroed.
	a2, _ := s.Alloc(32)
	if a2 != a {
		t.Fatalf("free-list reuse expected: %#x vs %#x", uint64(a2), uint64(a))
	}
	b, _ = as.ReadBytes(a2, 32)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("realloc byte %d not zeroed: %#x", i, v)
		}
	}
}

func TestSlabLargeAlloc(t *testing.T) {
	_, s := newSlab()
	a, err := s.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if a&PageMask != 0 {
		t.Fatalf("large alloc not page aligned: %#x", uint64(a))
	}
	if sz, _ := s.ObjectSize(a); sz != 3*PageSize {
		t.Fatalf("large size = %d", sz)
	}
	if _, ok := s.NextObject(a); ok {
		t.Fatal("large allocations have no slab neighbour")
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestSlabZeroAlloc(t *testing.T) {
	_, s := newSlab()
	if _, err := s.Alloc(0); !errors.Is(err, ErrZeroAlloc) {
		t.Fatalf("zero alloc: %v", err)
	}
}

// Property: live slab objects never overlap, and all stay within mapped
// memory of the correct class size.
func TestSlabNoOverlapProperty(t *testing.T) {
	_, s := newSlab()
	f := func(sizes []uint16, freeMask []bool) bool {
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		var live []Addr
		for i, raw := range sizes {
			size := uint64(raw%2000) + 1
			a, err := s.Alloc(size)
			if err != nil {
				return false
			}
			live = append(live, a)
			if i < len(freeMask) && freeMask[i] && len(live) > 0 {
				victim := live[len(live)/2]
				if s.Owns(victim) {
					if err := s.Free(victim); err != nil {
						return false
					}
				}
			}
		}
		// Check pairwise disjointness of all currently live objects.
		objs := s.LiveObjects()
		for i := 1; i < len(objs); i++ {
			prevSize, _ := s.ObjectSize(objs[i-1])
			if objs[i-1]+Addr(prevSize) > objs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: scalar write/read round-trips at arbitrary in-page offsets.
func TestScalarRoundTripProperty(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 4*PageSize)
	f := func(off uint16, v uint64) bool {
		a := KernelHeap + Addr(off%(3*PageSize))
		if err := as.WriteU64(a, v); err != nil {
			return false
		}
		got, err := as.ReadU64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBumpAllocator(t *testing.T) {
	as := NewAddressSpace()
	b := NewBump(as, ModuleText+5) // unaligned base rounds up
	a1 := b.Alloc(100, 64)
	if uint64(a1)%64 != 0 {
		t.Fatalf("alignment violated: %#x", uint64(a1))
	}
	a2 := b.Alloc(8, 8)
	if a2 < a1+100 {
		t.Fatalf("bump overlap: %#x after %#x+100", uint64(a2), uint64(a1))
	}
	if err := as.WriteU64(a2, 1); err != nil {
		t.Fatalf("bump memory not mapped: %v", err)
	}
}

func TestSlabStats(t *testing.T) {
	_, s := newSlab()
	a, _ := s.Alloc(8)
	_, _ = s.Alloc(8)
	_ = s.Free(a)
	allocs, frees := s.Stats()
	if allocs != 2 || frees != 1 {
		t.Fatalf("stats = %d/%d", allocs, frees)
	}
	if s.Live() != 1 {
		t.Fatalf("live = %d", s.Live())
	}
}

// TestSlabFreePoisonsWithoutAllocating: freed memory of every class
// reads back Poison, and a warm Alloc/Free pair allocates nothing on the
// Go heap (Free poisons from a static page rather than a fresh buffer).
func TestSlabFreePoisonsWithoutAllocating(t *testing.T) {
	as, s := newSlab()
	for _, size := range []uint64{8, 2048, 4096, 3 * PageSize} {
		a, err := s.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			t.Fatal(err)
		}
		b, _ := as.ReadBytes(a, SizeClassFor(size))
		if n := bytes.Count(b, []byte{Poison}); n != len(b) {
			t.Fatalf("size %d: %d of %d bytes poisoned", size, n, len(b))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a, err := s.Alloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Alloc+Free allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentMapAndAccess: readers walk the page table while a writer
// maps and stamps new pages (and new leaves) under them. Every page a
// reader was told about is mapped and keeps its data; a page nobody maps
// faults, and the fault is counted. Run under -race.
func TestConcurrentMapAndAccess(t *testing.T) {
	as := NewAddressSpace()
	const (
		readers = 3
		pages   = 4 * leafPages * 8
	)
	// published[i] is set once page i is mapped and stamped.
	var published [pages]atomic.Bool
	never := KernelHeap + Addr(2*pages)*PageSize
	var wg sync.WaitGroup
	var faults atomic.Uint64
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := (n*7 + r) % pages
				a := KernelHeap + Addr(i)*PageSize
				if published[i].Load() {
					v, err := as.ReadU64(a)
					if err != nil || v != uint64(i)+1 {
						t.Errorf("page %d: read %d, %v", i, v, err)
						return
					}
				}
				if n%64 == 0 {
					if _, err := as.ReadU64(never); err == nil {
						t.Error("read of a never-mapped page succeeded")
						return
					}
					faults.Add(1)
				}
			}
		}(r)
	}
	for i := 0; i < pages; i++ {
		a := KernelHeap + Addr(i)*PageSize
		as.Map(a, PageSize)
		if err := as.WriteU64(a, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		published[i].Store(true)
	}
	close(done)
	wg.Wait()
	if faults.Load() == 0 {
		t.Fatal("no reader probed the unmapped page")
	}
	if got := as.Faults(); got != faults.Load() {
		t.Fatalf("Faults() = %d, want the %d faulting reads", got, faults.Load())
	}
}

// TestPageTableSparse: mapping pages in far-apart regions costs one small
// leaf per region, not a table sized by the address range.
func TestPageTableSparse(t *testing.T) {
	as := NewAddressSpace()
	bases := []Addr{0, UserText, UserHeap, KernelHeap, KernelText, ModuleText, ^Addr(0) &^ PageMask}
	for i, b := range bases {
		as.Map(b, PageSize)
		if err := as.WriteU64(b+8, uint64(i)); err != nil {
			t.Fatalf("region %#x: %v", uint64(b), err)
		}
	}
	// A range that straddles two leaves.
	straddle := KernelHeap + (leafPages-1)*PageSize
	as.Map(straddle, 2*PageSize)
	if err := as.Write(straddle+PageSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	for i, b := range bases {
		if v, err := as.ReadU64(b + 8); err != nil || v != uint64(i) {
			t.Fatalf("region %#x: %d, %v", uint64(b), v, err)
		}
	}
	d := as.dir.Load()
	if d.n != len(bases)+1 {
		t.Fatalf("%d leaves for %d regions plus one straddled boundary", d.n, len(bases))
	}
	if len(d.slots) > 4*d.n {
		t.Fatalf("directory has %d slots for %d leaves", len(d.slots), d.n)
	}
	if _, err := as.ReadU64(KernelHeap + leafPages*PageSize*4); err == nil {
		t.Fatal("unmapped page inside the address range read back")
	}
}
