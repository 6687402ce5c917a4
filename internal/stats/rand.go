// Package stats provides the streaming statistics and sampling primitives
// used throughout the analysis toolkit: deterministic PRNG, exact
// frequency counters, CDFs, cosine similarity, Zipf sampling, power-law
// fitting and proportion confidence intervals.
//
// Everything here is allocation-conscious and safe to use from the scan
// pipeline's per-worker accumulators. Nothing reads the wall clock; all
// randomness flows from an explicit seed so experiments are reproducible.
package stats

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64). It is NOT
// cryptographically secure; it exists so that the traffic generator and the
// samplers produce identical corpora for identical seeds on every platform.
//
// The zero value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method over 64 bits.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := (-uint64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, one branch).
func (r *Rand) NormFloat64() float64 {
	// Marsaglia polar method without caching the spare value; simple and
	// deterministic, which matters more here than raw speed.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator whose stream does not overlap with
// the parent's for any practical sequence length. Used to hand sub-streams
// to concurrent workers deterministically.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64() ^ 0xd1342543de82ef95)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// WeightedChoice selects an index from cumulative weights cum (ascending,
// cum[len-1] is the total). Returns len(cum)-1 on boundary rounding.
func (r *Rand) WeightedChoice(cum []float64) int {
	if len(cum) == 0 {
		panic("stats: WeightedChoice with empty cumulative weights")
	}
	x := r.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Cumulate builds a cumulative weight table from weights, for use with
// WeightedChoice. Negative weights are treated as zero.
func Cumulate(weights []float64) []float64 {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	return cum
}
