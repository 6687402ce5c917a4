package stats

import (
	"errors"
	"math"
	"sort"
)

// Zipf samples ranks 1..n with P(rank=k) ∝ 1/k^s. Fig. 2 of the paper shows
// the per-domain request counts follow a power law; the traffic generator
// uses this sampler for the long tail of domain popularity.
//
// Implementation: precomputed cumulative table + binary search. For the
// table sizes we use (<= a few hundred thousand domains) the table is cheap,
// exact, and much faster than rejection sampling.
type Zipf struct {
	cum []float64
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, errors.New("stats: Zipf needs n > 0")
	}
	if !(s > 0) {
		return nil, errors.New("stats: Zipf needs s > 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	return &Zipf{cum: cum}, nil
}

// Rank draws a rank in [0, n) (i.e. zero-based) from the distribution.
func (z *Zipf) Rank(r *Rand) int {
	x := r.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PowerLawFit holds the result of a discrete power-law MLE fit.
type PowerLawFit struct {
	Alpha float64 // scaling exponent
	XMin  float64 // lower cutoff used for the fit
	N     int     // number of samples >= XMin
}

// FitPowerLaw estimates the exponent alpha of P(x) ∝ x^-alpha for samples
// >= xmin using the continuous MLE of Clauset, Shalizi & Newman (2009):
//
//	alpha = 1 + n / Σ ln(xᵢ/xmin)
//
// It is used by the Fig. 2 analysis to report the fitted exponent of the
// requests-per-domain distribution. Returns an error if fewer than two
// samples clear the cutoff.
func FitPowerLaw(samples []float64, xmin float64) (PowerLawFit, error) {
	if xmin <= 0 {
		return PowerLawFit{}, errors.New("stats: FitPowerLaw needs xmin > 0")
	}
	n := 0
	sum := 0.0
	for _, x := range samples {
		if x >= xmin {
			n++
			sum += math.Log(x / xmin)
		}
	}
	if n < 2 || sum == 0 {
		return PowerLawFit{}, errors.New("stats: FitPowerLaw needs >= 2 samples above xmin")
	}
	return PowerLawFit{Alpha: 1 + float64(n)/sum, XMin: xmin, N: n}, nil
}

// FreqOfFreq turns raw counts into the (count, number of keys with that
// count) pairs plotted on Fig. 2's log-log axes, ascending by count.
func FreqOfFreq(counts []uint64) [][2]uint64 {
	m := make(map[uint64]uint64)
	for _, c := range counts {
		m[c]++
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][2]uint64, 0, len(keys))
	for _, k := range keys {
		out = append(out, [2]uint64{k, m[k]})
	}
	return out
}
