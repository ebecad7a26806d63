package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lxfi/internal/failpoint"
)

func init() {
	failpoint.Register("mem.page_alloc")
}

// Slab is a SLUB-like slab allocator over an AddressSpace.
//
// Objects of the same size class are packed back to back inside a page,
// so consecutive allocations of one class tend to be **adjacent in
// memory**. That property is load-bearing: the CAN BCM exploit
// (CVE-2010-2959) depends on an undersized buffer sitting directly next
// to a victim shmid_kernel object in the same slab.
type Slab struct {
	mu       sync.Mutex // guards all allocator state (lock order: Slab.mu before the AddressSpace's Map lock)
	as       *AddressSpace
	heapNext Addr // next fresh page to carve (bump allocated)

	classes map[uint64]*sizeClass
	objects map[Addr]objInfo // base address -> info, for Free/ObjectSize
	large   map[Addr]uint64  // page-multiple allocations

	allocs uint64
	frees  uint64
}

type objInfo struct {
	class uint64 // size class (usable size)
	req   uint64 // requested size

	// payload and paySize are the kernel-private payload record
	// (AllocWithPayload): allocator metadata, which no address covers.
	payload Addr
	paySize uint64
}

type sizeClass struct {
	size     uint64
	free     []Addr // LIFO free list
	pages    []Addr
	nextSlot Addr // next never-used slot in the current page, 0 if none
	slotsRem int  // unused slots remaining in current page
}

// Poison is the byte Free fills a released object with (SLUB's
// POISON_FREE), so a use-after-free reads recognizable garbage.
const Poison = 0x6b

// SizeClasses are the kmalloc size classes of the simulated kernel.
var SizeClasses = []uint64{8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096}

var (
	// ErrBadFree is returned when freeing an address that is not the
	// base of a live allocation.
	ErrBadFree = errors.New("mem: free of non-allocated address")
	// ErrZeroAlloc is returned for zero-sized allocations.
	ErrZeroAlloc = errors.New("mem: zero-size allocation")
)

// NewSlab returns a slab allocator carving pages from heapBase upward.
func NewSlab(as *AddressSpace, heapBase Addr) *Slab {
	s := &Slab{
		as:       as,
		heapNext: PageBase(heapBase),
		classes:  make(map[uint64]*sizeClass),
		objects:  make(map[Addr]objInfo),
		large:    make(map[Addr]uint64),
	}
	for _, c := range SizeClasses {
		s.classes[c] = &sizeClass{size: c}
	}
	return s
}

// SizeClassFor returns the usable size a request of size bytes receives.
// Requests larger than the biggest class are rounded up to whole pages.
func SizeClassFor(size uint64) uint64 {
	for _, c := range SizeClasses {
		if size <= c {
			return c
		}
	}
	return (size + PageMask) &^ uint64(PageMask)
}

// Alloc allocates size bytes and returns the (zeroed) object address.
// The usable size of the returned object is SizeClassFor(size).
func (s *Slab) Alloc(size uint64) (Addr, error) {
	if size == 0 {
		return 0, ErrZeroAlloc
	}
	// Fault site: an injected error is an allocation failure — kmalloc
	// returning NULL under memory pressure.
	if err := failpoint.Inject("mem.page_alloc"); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	class := SizeClassFor(size)
	s.allocs++
	if class > 4096 {
		addr := s.heapNext
		s.as.Map(addr, class)
		s.heapNext += Addr(class)
		s.large[addr] = class
		s.objects[addr] = objInfo{class: class, req: size}
		if err := s.as.Zero(addr, class); err != nil {
			return 0, err
		}
		return addr, nil
	}
	sc := s.classes[class]
	var addr Addr
	switch {
	case len(sc.free) > 0:
		addr = sc.free[len(sc.free)-1]
		sc.free = sc.free[:len(sc.free)-1]
	case sc.slotsRem > 0:
		addr = sc.nextSlot
		sc.nextSlot += Addr(class)
		sc.slotsRem--
	default:
		page := s.heapNext
		s.heapNext += PageSize
		s.as.Map(page, PageSize)
		sc.pages = append(sc.pages, page)
		addr = page
		sc.nextSlot = page + Addr(class)
		sc.slotsRem = PageSize/int(class) - 1
	}
	s.objects[addr] = objInfo{class: class, req: size}
	if err := s.as.Zero(addr, class); err != nil {
		return 0, err
	}
	return addr, nil
}

// Free releases the object at base address addr.
// The object's memory is poisoned with Poison so that use-after-free is
// observable in tests.
func (s *Slab) Free(addr Addr) error {
	_, err := s.free(addr)
	return err
}

// free is Free returning the released object's allocator entry.
func (s *Slab) free(addr Addr) (objInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.objects[addr]
	if !ok {
		return info, fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	delete(s.objects, addr)
	s.frees++
	if err := s.as.fill(addr, info.class, &poisonPage); err != nil {
		return info, err
	}
	if info.class > 4096 {
		delete(s.large, addr)
		// Large allocations keep their pages mapped (direct map).
		return info, nil
	}
	sc := s.classes[info.class]
	sc.free = append(sc.free, addr)
	return info, nil
}

// AllocWithPayload allocates an object of hdr bytes and a payload of
// size bytes (an sk_buff or a bio and its data buffer), and records the
// payload in the object's allocator entry. The capabilities over such
// an object span only its struct, so a module holding WRITE over the
// struct can retarget the struct's own payload fields but never the
// record. Every kernel decision about the payload — what a transfer
// covers, what a free releases, how far I/O may run — reads the record.
func (s *Slab) AllocWithPayload(hdr, size uint64) (obj, data Addr, err error) {
	if obj, err = s.Alloc(hdr); err != nil {
		return 0, 0, err
	}
	if data, err = s.Alloc(size); err != nil {
		_ = s.Free(obj)
		return 0, 0, err
	}
	s.mu.Lock()
	info := s.objects[obj]
	info.payload, info.paySize = data, size
	s.objects[obj] = info
	s.mu.Unlock()
	return obj, data, nil
}

// Payload returns the payload recorded for the live object based at
// obj (AllocWithPayload), or zeros when there is none: any other
// address has no record.
func (s *Slab) Payload(obj Addr) (Addr, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.objects[obj]
	return info.payload, info.paySize
}

// FreeWithPayload frees obj and then the payload recorded for it.
func (s *Slab) FreeWithPayload(obj Addr) {
	if info, err := s.free(obj); err == nil && info.payload != 0 {
		_ = s.Free(info.payload)
	}
}

// ObjectSize returns the usable size of the live object based at addr.
func (s *Slab) ObjectSize(addr Addr) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.objects[addr]
	if !ok {
		return 0, false
	}
	return info.class, true
}

// RequestedSize returns the originally requested size of the live object.
func (s *Slab) RequestedSize(addr Addr) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.objects[addr]
	if !ok {
		return 0, false
	}
	return info.req, true
}

// NextObject returns the address of the slab slot immediately following
// the object at addr within the same slab page, if any. Exploit code and
// tests use this to reason about slab adjacency.
func (s *Slab) NextObject(addr Addr) (Addr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.objects[addr]
	if !ok || info.class > 4096 {
		return 0, false
	}
	next := addr + Addr(info.class)
	if PageBase(next) != PageBase(addr) {
		return 0, false
	}
	return next, true
}

// Owns reports whether addr is the base of a live allocation.
func (s *Slab) Owns(addr Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[addr]
	return ok
}

// Live returns the number of live objects.
func (s *Slab) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Stats returns cumulative allocation and free counts.
func (s *Slab) Stats() (allocs, frees uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocs, s.frees
}

// LiveObjects returns the base addresses of all live objects in sorted
// order; used by introspection tooling and tests.
func (s *Slab) LiveObjects() []Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Addr, 0, len(s.objects))
	for a := range s.objects {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Bump is a trivial monotonic allocator for regions that are never freed
// (module data sections, static kernel objects, user mappings).
type Bump struct {
	mu   sync.Mutex
	as   *AddressSpace
	next Addr
}

// NewBump returns a bump allocator starting at base (page aligned up).
func NewBump(as *AddressSpace, base Addr) *Bump {
	return &Bump{as: as, next: (base + PageMask) &^ PageMask}
}

// Alloc reserves and maps size bytes with the given alignment (power of
// two; 0 or 1 means byte alignment, minimum 8).
func (b *Bump) Alloc(size, align uint64) Addr {
	if align < 8 {
		align = 8
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next = Addr((uint64(b.next) + align - 1) &^ (align - 1))
	addr := b.next
	b.as.Map(addr, size)
	b.next += Addr(size)
	return addr
}

// Next returns the next address the allocator would hand out (unaligned).
func (b *Bump) Next() Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}
