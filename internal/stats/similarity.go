package stats

import "math"

// CosineCounts computes the cosine similarity of two sparse count maps
// (domain -> request count), aligning keys as the union of both maps —
// the metric the paper uses in §5.2 (Table 6) to compare censored-domain
// profiles across proxies:
//
//	cos(A, B) = Σ AᵢBᵢ / (√Σ Aᵢ² · √Σ Bᵢ²)
//
// Returns 0 when either map is all-zero (no basis for similarity).
func CosineCounts(a, b map[string]uint64) float64 {
	var dot, na, nb float64
	for k, av := range a {
		fa := float64(av)
		na += fa * fa
		if bv, ok := b[k]; ok {
			dot += fa * float64(bv)
		}
	}
	for _, bv := range b {
		fb := float64(bv)
		nb += fb * fb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// SimilarityMatrix computes the full pairwise cosine matrix over n count
// maps (Table 6). The diagonal is 1 when the profile is non-empty.
func SimilarityMatrix(profiles []map[string]uint64) [][]float64 {
	n := len(profiles)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			if i == j {
				if len(profiles[i]) > 0 {
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
