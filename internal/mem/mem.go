// Package mem implements the simulated kernel address space that the rest
// of the LXFI reproduction is built on.
//
// The original LXFI system interposes on raw x86-64 stores performed by
// kernel modules. In this reproduction, kernel objects live inside a
// simulated sparse 64-bit address space, and modules reach that space only
// through mediated accessors (see internal/core). The address space uses
// the familiar Linux x86-64 split: low addresses are user space, high
// canonical addresses are kernel space.
//
// Pages are mapped once and never unmapped. Loads and stores walk the page
// table without taking a lock; only Map, which adds pages, serializes.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Addr is a virtual address in the simulated address space.
type Addr uint64

// Fundamental constants of the simulated machine.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Region boundaries, mirroring the Linux x86-64 memory map.
const (
	// UserText is where the (attacker-controlled) user process maps its
	// executable code in several exploits.
	UserText Addr = 0x0000_0000_1000_0000
	// UserHeap is the default base for user data allocations.
	UserHeap Addr = 0x0000_0000_4000_0000
	// UserTop is the first non-user address (TASK_SIZE).
	UserTop Addr = 0x0000_7fff_ffff_f000
	// KernelHeap is the base of the direct-mapped kernel heap (slab pages).
	KernelHeap Addr = 0xffff_8800_0000_0000
	// KernelText is the base of core-kernel code addresses.
	KernelText Addr = 0xffff_ffff_8100_0000
	// ModuleText is the base of module code addresses.
	ModuleText Addr = 0xffff_ffff_a000_0000
)

// IsUser reports whether a is a user-space address (below TASK_SIZE).
// The NULL page is considered user space, as on Linux.
func IsUser(a Addr) bool { return a < UserTop }

// IsKernel reports whether a is a kernel-space address.
func IsKernel(a Addr) bool { return a >= UserTop }

// PageBase returns the base address of the page containing a.
func PageBase(a Addr) Addr { return a &^ PageMask }

// AccessError describes a fault in the simulated address space.
type AccessError struct {
	Op   string // "read", "write", "map"
	Addr Addr
	Size uint64
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x (size %d): page not mapped", e.Op, uint64(e.Addr), e.Size)
}

// AddressSpace is a sparse, page-granular simulated address space.
//
// The page table is insert-only: Map publishes pages and nothing ever
// removes them. Lookups take no lock, the way an MMU walks the page table
// without one, so loads and stores from concurrent simulated threads do
// not contend on shared state. Map is the only writer and serializes on
// mu. Because a published page stays published, a lookup is trivially
// linearizable: it sees every page whose Map completed before it began.
//
// Byte-level access to the *contents* of a page is deliberately not
// serialized — overlapping unsynchronized writes from two simulated
// threads are a data race in the simulated kernel exactly as they would
// be on real hardware, and the race detector will report them as such.
type AddressSpace struct {
	dir atomic.Pointer[pageDir]
	mu  sync.Mutex // serializes Map

	// faults counts page faults (accesses to unmapped pages); exploits
	// and tests use this to observe oopses.
	faults atomic.Uint64
}

type page = [PageSize]byte

// A leaf maps leafPages consecutive pages; each slot is set once, by Map.
// Leaves are small so a sparse region costs little beyond its pages.
const (
	leafShift = 5
	leafPages = 1 << leafShift
)

type leaf struct {
	num   uint64 // page number >> leafShift
	pages [leafPages]atomic.Pointer[page]
}

// pageDir is an immutable open-addressing hash table of leaves keyed by
// leaf number, at most half full. Map publishes a new copy whenever it
// adds leaves; existing leaves are shared between copies.
type pageDir struct {
	slots []*leaf // len is a power of two
	shift uint    // 64 - log2(len(slots))
	n     int     // leaves held
}

func newPageDir(size int) *pageDir {
	return &pageDir{slots: make([]*leaf, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home is the slot a leaf's probe starts at (Fibonacci hashing: the top
// bits of the leaf number times 2^64/φ).
func (d *pageDir) home(num uint64) uint64 { return (num * 0x9e3779b97f4a7c15) >> d.shift }

// find returns the leaf numbered num, or nil.
func (d *pageDir) find(num uint64) *leaf {
	mask := uint64(len(d.slots) - 1)
	for i := d.home(num); ; i = (i + 1) & mask {
		if l := d.slots[i]; l == nil || l.num == num {
			return l
		}
	}
}

func (d *pageDir) put(l *leaf) {
	mask := uint64(len(d.slots) - 1)
	i := d.home(l.num)
	for d.slots[i] != nil {
		i = (i + 1) & mask
	}
	d.slots[i] = l
	d.n++
}

// with returns a copy of d that also holds the fresh leaves.
func (d *pageDir) with(fresh []*leaf) *pageDir {
	size := len(d.slots)
	for size < 2*(d.n+len(fresh)) {
		size *= 2
	}
	nd := newPageDir(size)
	for _, l := range d.slots {
		if l != nil {
			nd.put(l)
		}
	}
	for _, l := range fresh {
		nd.put(l)
	}
	return nd
}

// lookup returns the page containing a, or nil if it is not mapped.
func (d *pageDir) lookup(a Addr) *page {
	pn := uint64(a) >> PageShift
	if l := d.find(pn >> leafShift); l != nil {
		return l.pages[pn&(leafPages-1)].Load()
	}
	return nil
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{}
	as.dir.Store(newPageDir(8))
	return as
}

// Map ensures that all pages covering [addr, addr+size) are present and
// zero-filled if new. Mapping an already-mapped page is a no-op.
func (as *AddressSpace) Map(addr Addr, size uint64) {
	if size == 0 {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	d := as.dir.Load()
	// Leaves new to this call fill up privately and are published with
	// one directory swap at the end.
	var fresh []*leaf
	first := uint64(addr) >> PageShift
	last := uint64(addr+Addr(size)-1) >> PageShift
	for pn := first; ; pn++ {
		num := pn >> leafShift
		l := d.find(num)
		if l == nil {
			// Page numbers ascend, so a fresh leaf for num is the last one.
			if n := len(fresh); n > 0 && fresh[n-1].num == num {
				l = fresh[n-1]
			} else {
				l = &leaf{num: num}
				fresh = append(fresh, l)
			}
		}
		if slot := &l.pages[pn&(leafPages-1)]; slot.Load() == nil {
			slot.Store(new(page))
		}
		if pn == last {
			break
		}
	}
	if len(fresh) > 0 {
		as.dir.Store(d.with(fresh))
	}
}

// Faults returns the number of page faults taken so far.
func (as *AddressSpace) Faults() uint64 { return as.faults.Load() }

// Read copies len(buf) bytes starting at addr into buf.
func (as *AddressSpace) Read(addr Addr, buf []byte) error {
	return as.access("read", addr, buf, false)
}

// Write copies data into the address space starting at addr.
func (as *AddressSpace) Write(addr Addr, data []byte) error {
	return as.access("write", addr, data, true)
}

// Probe returns the fault a Read of [addr, addr+size) would take, and
// counts it, without copying anything; nil means every page of the
// range is mapped. Pages are never unmapped, so a range that probes
// clean stays readable: a caller can probe first and then read straight
// into a destination it must not touch on a fault.
func (as *AddressSpace) Probe(addr Addr, size uint64) error {
	d := as.dir.Load()
	for off := uint64(0); off < size; {
		a := addr + Addr(off)
		if d.lookup(a) == nil {
			as.faults.Add(1)
			return &AccessError{Op: "read", Addr: a, Size: size}
		}
		off += PageSize - uint64(a&PageMask)
	}
	return nil
}

func (as *AddressSpace) access(op string, addr Addr, buf []byte, write bool) error {
	d := as.dir.Load()
	for off := 0; off < len(buf); {
		a := addr + Addr(off)
		p := d.lookup(a)
		if p == nil {
			as.faults.Add(1)
			return &AccessError{Op: op, Addr: a, Size: uint64(len(buf))}
		}
		if write {
			off += copy(p[a&PageMask:], buf[off:])
		} else {
			off += copy(buf[off:], p[a&PageMask:])
		}
	}
	return nil
}

// zeroPage and poisonPage are the static sources Zero and Slab.Free
// copy from; both are only ever read.
var (
	zeroPage   page
	poisonPage = func() (p page) {
		for i := range p {
			p[i] = Poison
		}
		return p
	}()
)

// Zero fills [addr, addr+size) with zero bytes.
func (as *AddressSpace) Zero(addr Addr, size uint64) error {
	return as.fill(addr, size, &zeroPage)
}

// fill writes [addr, addr+size) from src, a page at a time.
func (as *AddressSpace) fill(addr Addr, size uint64, src *page) error {
	for size > 0 {
		chunk := min(size, PageSize)
		if err := as.Write(addr, src[:chunk]); err != nil {
			return err
		}
		addr += Addr(chunk)
		size -= chunk
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit value at addr.
func (as *AddressSpace) ReadU64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit value at addr.
func (as *AddressSpace) WriteU64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit value at addr.
func (as *AddressSpace) ReadU32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian 32-bit value at addr.
func (as *AddressSpace) WriteU32(addr Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU16 reads a little-endian 16-bit value at addr.
func (as *AddressSpace) ReadU16(addr Addr) (uint16, error) {
	var b [2]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 writes a little-endian 16-bit value at addr.
func (as *AddressSpace) WriteU16(addr Addr, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU8 reads a byte at addr.
func (as *AddressSpace) ReadU8(addr Addr) (uint8, error) {
	var b [1]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 writes a byte at addr.
func (as *AddressSpace) WriteU8(addr Addr, v uint8) error {
	return as.Write(addr, []byte{v})
}

// ReadBytes is a convenience wrapper returning a fresh slice.
func (as *AddressSpace) ReadBytes(addr Addr, size uint64) ([]byte, error) {
	buf := make([]byte, size)
	if err := as.Read(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (as *AddressSpace) ReadCString(addr Addr, max int) (string, error) {
	out := make([]byte, 0, 16)
	for i := 0; i < max; i++ {
		b, err := as.ReadU8(addr + Addr(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}

// WriteCString writes s followed by a NUL byte.
func (as *AddressSpace) WriteCString(addr Addr, s string) error {
	buf := make([]byte, len(s)+1)
	copy(buf, s)
	return as.Write(addr, buf)
}
