package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRandDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(9)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRand(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(std-1) > 0.02 {
		t.Errorf("normal std = %v, want ~1", std)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(23)
	child := parent.Fork()
	a := make([]uint64, 64)
	for i := range a {
		a[i] = child.Uint64()
	}
	// Parent stream after the fork must not reproduce the child stream.
	for i := 0; i < 64; i++ {
		if parent.Uint64() == a[i] {
			t.Fatal("fork streams overlap")
		}
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := NewRand(29)
	cum := Cumulate([]float64{1, 0, 3})
	counts := make([]int, 3)
	for i := 0; i < 100000; i++ {
		counts[r.WeightedChoice(cum)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestCumulateHandlesNegatives(t *testing.T) {
	cum := Cumulate([]float64{2, -5, 1})
	if cum[0] != 2 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("Cumulate = %v", cum)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(31)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / trials
	if p < 0.24 || p > 0.26 {
		t.Errorf("Bool(0.25) hit rate %v", p)
	}
}
