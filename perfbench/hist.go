package main

import "math/bits"

// Hist is a fixed-size log-linear latency histogram: values below 2^subBits
// ns get one bucket each, and every power-of-two octave above that is split
// into 2^subBits linear sub-buckets (about 1.6% relative resolution). It is
// allocated once before the timed window, so recording never allocates and
// its size does not grow with throughput.
type Hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	subBits     = 6
	subBuckets  = 1 << subBits
	histOctaves = 40 // up to ~2^45 ns, far beyond any op
	histBuckets = subBuckets * (histOctaves + 1)
)

// bucketOf maps a non-negative duration in ns to its bucket index.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	v := uint64(ns)
	shift := bits.Len64(v) - subBits - 1
	if shift >= histOctaves {
		return histBuckets - 1
	}
	return subBuckets*(shift+1) + int(v>>uint(shift)) - subBuckets
}

// bucketRange returns the [lo, hi) value range of a bucket.
func bucketRange(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	shift := i/subBuckets - 1
	m := uint64(i%subBuckets + subBuckets)
	return float64(m << uint(shift)), float64((m + 1) << uint(shift))
}

// Record adds one observation in nanoseconds.
func (h *Hist) Record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds the target rank (0 with no observations).
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(histBuckets - 1)
	return lo
}
