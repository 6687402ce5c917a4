package stats

import (
	"math"
	"sort"
)

// Histogram is a fixed-width bucket histogram over [lo, hi). Values outside
// the range are clamped into the first/last bucket so totals are preserved
// (the paper's figures are all bounded-domain: time of day, ports, counts).
type Histogram struct {
	lo, hi  float64
	width   float64
	buckets []uint64
	n       uint64
}

// NewHistogram returns a histogram of nbuckets equal-width buckets over
// [lo, hi). It panics on invalid bounds.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if !(hi > lo) || nbuckets <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{
		lo: lo, hi: hi,
		width:   (hi - lo) / float64(nbuckets),
		buckets: make([]uint64, nbuckets),
	}
}

// Add records one observation of v.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Histogram) AddN(v float64, n uint64) {
	h.buckets[h.bucketOf(v)] += n
	h.n += n
}

func (h *Histogram) bucketOf(v float64) int {
	if v < h.lo {
		return 0
	}
	i := int((v - h.lo) / h.width)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.n }

// Merge folds other (which must have identical geometry) into h.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.buckets) != len(other.buckets) || h.lo != other.lo || h.hi != other.hi {
		panic("stats: merging histograms with different geometry")
	}
	for i, b := range other.buckets {
		h.buckets[i] += b
	}
	h.n += other.n
}

// CDF is an empirical cumulative distribution function built from samples.
// The paper's Figures 4(b) and 10 are exactly this object.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (which it copies and sorts).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the empirical P(X <= x).
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns up to n (x, P(X<=x)) pairs evenly spaced by rank, for
// rendering. n <= 0 means all points.
func (c *CDF) Points(n int) [][2]float64 {
	total := len(c.sorted)
	if total == 0 {
		return nil
	}
	if n <= 0 || n > total {
		n = total
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		rank := (i + 1) * total / n
		if rank < 1 {
			rank = 1
		}
		out = append(out, [2]float64{c.sorted[rank-1], float64(rank) / float64(total)})
	}
	return out
}

// Welford tracks online mean and variance (Welford 1962). Mergeable via the
// parallel-variance (Chan et al.) formula so it composes with the pipeline.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 if n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge folds other into w.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.m2 += other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	w.mean += d * float64(other.n) / float64(n)
	w.n = n
}
