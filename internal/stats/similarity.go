package stats

import "math"

// CosineCounts computes the cosine similarity of two sparse count maps
// (domain -> request count), aligning keys as the union of both maps —
// the metric the paper uses in §5.2 (Table 6) to compare censored-domain
// profiles across proxies:
//
//	cos(A, B) = Σ AᵢBᵢ / (√Σ Aᵢ² · √Σ Bᵢ²)
//
// A is a ⊕ ao and B is b ⊕ bo, counts added key by key; either overlay
// may be nil. The overlays are read once per key and the bases as a
// plain pair of maps is, so an overlay may be small over a large base
// without either being copied. The sums are of integer products, exact
// while they stay below 2⁵³, so the result does not depend on how a
// profile is split between its base and its overlay.
//
// Returns 0 when either profile is all-zero (no basis for similarity).
func CosineCounts(a, ao, b, bo map[string]uint64) float64 {
	na, nb := sumSquares(a, ao), sumSquares(b, bo)
	if na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for k, av := range a {
		if bv, ok := b[k]; ok {
			dot += float64(av) * float64(bv)
		}
	}
	for k, ov := range ao {
		dot += float64(ov) * float64(b[k]+bo[k])
	}
	for k, ov := range bo {
		dot += float64(a[k]) * float64(ov)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// sumSquares is Σ (base ⊕ own)ᵢ²: the base's squares, plus what each
// overlay count adds to the square of its key's.
func sumSquares(base, own map[string]uint64) float64 {
	var s float64
	for _, v := range base {
		f := float64(v)
		s += f * f
	}
	for k, v := range own {
		f, fb := float64(v), float64(base[k])
		s += f*f + 2*fb*f
	}
	return s
}

// SimilarityMatrix computes the full pairwise cosine matrix over n count
// maps (Table 6): profile i is base[i] ⊕ own[i], or base[i] alone when
// own is nil (see CosineCounts). The diagonal is 1 when the profile is
// non-empty.
func SimilarityMatrix(base, own []map[string]uint64) [][]float64 {
	n := len(base)
	if own == nil {
		own = make([]map[string]uint64, n)
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			if i == j {
				if len(base[i]) > 0 || len(own[i]) > 0 {
					s = 1
				}
			} else {
				s = CosineCounts(base[i], own[i], base[j], own[j])
			}
			m[i][j] = s
			m[j][i] = s
		}
	}
	return m
}
