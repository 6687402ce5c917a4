package stats

import "math"

// CosineCounts computes the cosine similarity of two sparse count
// profiles (domain -> request count), aligning keys as the union of both —
// the metric the paper uses in §5.2 (Table 6) to compare censored-domain
// profiles across proxies:
//
//	cos(A, B) = Σ AᵢBᵢ / (√Σ Aᵢ² · √Σ Bᵢ²)
//
// Either counter may be a view (see Over). The sums are of integer
// products, exact while they stay below 2⁵³, so the result depends on
// neither the order the keys are walked in nor how a profile is split
// between a view's layers.
//
// Returns 0 when either profile is all-zero (no basis for similarity).
func CosineCounts(a, b *Counter) float64 {
	var na, nb, dot float64
	a.Each(func(k string, v uint64) {
		f := float64(v)
		na += f * f
		dot += f * float64(b.Count(k))
	})
	b.Each(func(_ string, v uint64) { nb += float64(v) * float64(v) })
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// SimilarityMatrix computes the full pairwise cosine matrix over n count
// profiles (Table 6; see CosineCounts). The diagonal is 1 when the
// profile is non-empty.
func SimilarityMatrix(profiles []*Counter) [][]float64 {
	n := len(profiles)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			if i == j {
				if profiles[i].Len() > 0 {
					s = 1
				}
			} else {
				s = CosineCounts(profiles[i], profiles[j])
			}
			m[i][j] = s
			m[j][i] = s
		}
	}
	return m
}
