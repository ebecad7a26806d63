package caps

import "lxfi/internal/mem"

// intervalSet is the per-(principal, shard) WRITE-capability index: a
// slice of entries sorted by start address paired with a prefix-maximum
// of the entries' end addresses. Membership ("does some entry cover
// [addr, addr+size)?") is answered in O(log n): binary-search the last
// entry starting at or before addr; the prefix maximum tells whether any
// entry up to that point reaches past addr+size. Since every entry in
// the prefix starts at or before addr, the entry attaining the maximum
// covers the probe iff the maximum does.
//
// Mutations rebuild the prefix maximum from the edit point — grants and
// revokes are orders of magnitude rarer than checks, so the index is
// tuned entirely for the read side.
type intervalSet struct {
	ents   []writeEntry
	maxEnd []mem.Addr // maxEnd[i] = max over ents[0..i] of entry end
}

func (w writeEntry) end() mem.Addr { return w.addr + mem.Addr(w.size) }

// searchAfter returns the first index whose entry starts strictly after
// addr. Hand-rolled so the hot check path stays closure- and
// allocation-free.
func (s *intervalSet) searchAfter(addr mem.Addr) int {
	lo, hi := 0, len(s.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ents[mid].addr <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// covers reports whether some entry covers [addr, addr+size) entirely.
// A probe that wraps past the top of the address space covers nothing:
// its wrapped end would otherwise compare below any entry's end.
func (s *intervalSet) covers(addr mem.Addr, size uint64) bool {
	end := addr + mem.Addr(size)
	i := s.searchAfter(addr) - 1
	if i < 0 || end < addr {
		return false
	}
	return s.maxEnd[i] >= end
}

// rebuildFrom recomputes the prefix maximum from index i on.
func (s *intervalSet) rebuildFrom(i int) {
	for ; i < len(s.ents); i++ {
		m := s.ents[i].end()
		if i > 0 && s.maxEnd[i-1] > m {
			m = s.maxEnd[i-1]
		}
		s.maxEnd[i] = m
	}
}

// insert adds e keeping the slice sorted; exact duplicates are dropped.
func (s *intervalSet) insert(e writeEntry) bool {
	i := s.searchAfter(e.addr)
	for j := i - 1; j >= 0 && s.ents[j].addr == e.addr; j-- {
		if s.ents[j] == e {
			return false
		}
	}
	s.ents = append(s.ents, writeEntry{})
	copy(s.ents[i+1:], s.ents[i:])
	s.ents[i] = e
	s.maxEnd = append(s.maxEnd, 0)
	s.rebuildFrom(i)
	return true
}

// remove deletes the exact entry e if present.
func (s *intervalSet) remove(e writeEntry) bool {
	i := s.searchAfter(e.addr)
	for j := i - 1; j >= 0 && s.ents[j].addr == e.addr; j-- {
		if s.ents[j] == e {
			s.ents = append(s.ents[:j], s.ents[j+1:]...)
			s.maxEnd = s.maxEnd[:len(s.ents)]
			s.rebuildFrom(j)
			return true
		}
	}
	return false
}

// appendOverlap appends every entry overlapping [addr, addr+size) to
// out. The candidate window is narrowed from both sides by binary
// search: entries starting past the probe's last byte (lastByte, so a
// probe that wraps reaches the top of the address space) cannot
// overlap, and the nondecreasing prefix maximum locates the first index
// whose prefix reaches past addr.
func (s *intervalSet) appendOverlap(addr mem.Addr, size uint64, out []writeEntry) []writeEntry {
	if size == 0 || len(s.ents) == 0 {
		return out
	}
	hi := s.searchAfter(lastByte(addr, size))
	lo, r := 0, hi
	for lo < r {
		mid := int(uint(lo+r) >> 1)
		if s.maxEnd[mid] > addr {
			r = mid
		} else {
			lo = mid + 1
		}
	}
	for j := lo; j < hi; j++ {
		if s.ents[j].overlaps(addr, size) {
			out = append(out, s.ents[j])
		}
	}
	return out
}

func (s *intervalSet) len() int { return len(s.ents) }
