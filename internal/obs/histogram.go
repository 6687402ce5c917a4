package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-boundary histogram: observations are counted
// into len(bounds)+1 buckets (the last catches everything above the
// highest bound) plus a running sum. There is no separate count: the
// number of observations is the bucket total, so an exposition that
// writes _count from the same read of the buckets it writes le="+Inf"
// from cannot make the two disagree.
//
// Observe is lock-free and allocation-free: a binary search over the
// boundary slice plus two atomic updates. Concurrent Observe and
// scrapes are safe; a scrape taken during writes is a consistent
// mixture (per-bucket counts are each atomically read, the sum may lag
// the buckets by in-flight observations — the usual Prometheus weak
// consistency).
//
// A nil *Histogram is a no-op, like every obs type.
type Histogram struct {
	bounds []float64 // sorted upper bounds, le semantics
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (each bucket counts v <= bound; the implicit +Inf bucket is added).
// Bounds must be strictly increasing and non-empty.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// ExpBounds returns n exponentially spaced bounds: start, start*factor,
// start*factor^2, ... — the log-bucket ladder latency histograms use.
func ExpBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBounds wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBounds is the default latency ladder in seconds: 50µs to
// ~105s in 21 ~2x steps, wide enough for both a sub-millisecond counter
// bump and a multi-second checkpoint write.
var DefLatencyBounds = ExpBounds(50e-6, 2, 21)

// Observe counts one value. 0-alloc; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; equal values land in the
	// bucket whose upper bound they match (le semantics).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations: the bucket total.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the current per-bucket counts (the last entry is
// the +Inf overflow bucket).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
