package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.P(1) != 0 {
		t.Error("empty CDF P != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile not NaN")
	}
}

func TestCDFMonotone(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		c := NewCDF(samples)
		prev := -1.0
		for x := -5.0; x <= 5; x += 0.5 {
			p := c.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// countsOf is a counter holding m's counts.
func countsOf(m map[string]uint64) *Counter {
	c := NewCounter()
	for k, n := range m {
		c.AddN(k, n)
	}
	return c
}

func TestCosineCountsMatchesDense(t *testing.T) {
	a := countsOf(map[string]uint64{"x": 3, "y": 4})
	b := countsOf(map[string]uint64{"y": 4, "z": 3})
	got := CosineCounts(a, b)
	want := 16.0 / 25 // the dense vectors (3, 4, 0) and (0, 4, 3): dot 16, both norms 5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("sparse %v != dense %v", got, want)
	}
}

func TestCosineCountsSymmetric(t *testing.T) {
	if err := quick.Check(func(ka, kb []uint8) bool {
		a, b := NewCounter(), NewCounter()
		for _, k := range ka {
			a.Add(string(rune('a' + k%16)))
		}
		for _, k := range kb {
			b.Add(string(rune('a' + k%16)))
		}
		x, y := CosineCounts(a, b), CosineCounts(b, a)
		return math.Abs(x-y) < 1e-12 && x >= -1e-12 && x <= 1+1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityMatrix(t *testing.T) {
	profiles := []*Counter{
		countsOf(map[string]uint64{"a": 10, "b": 1}),
		countsOf(map[string]uint64{"a": 9, "b": 2}),
		countsOf(map[string]uint64{"z": 5}),
	}
	m := SimilarityMatrix(profiles)
	if m[0][0] != 1 || m[2][2] != 1 {
		t.Error("diagonal not 1")
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix not symmetric")
	}
	if m[0][2] != 0 {
		t.Errorf("disjoint profiles similarity = %v", m[0][2])
	}
	if m[0][1] < 0.9 {
		t.Errorf("similar profiles similarity = %v", m[0][1])
	}
}

// A profile split between a base and an overlay, any way, and read
// through a view has the similarity of the merged counter, to the bit.
func TestCosineCountsOverlayMatchesMerged(t *testing.T) {
	if err := quick.Check(func(ka, kb []uint8, split uint8) bool {
		a, ao, b, bo := NewCounter(), NewCounter(), NewCounter(), NewCounter()
		ma, mb := NewCounter(), NewCounter()
		for i, k := range ka {
			key := string(rune('a' + k%16))
			ma.Add(key)
			if uint8(i)%4 < split%5 {
				ao.Add(key)
			} else {
				a.Add(key)
			}
		}
		for i, k := range kb {
			key := string(rune('a' + k%16))
			mb.Add(key)
			if uint8(i)%3 == split%3 {
				bo.Add(key)
			} else {
				b.Add(key)
			}
		}
		return CosineCounts(ao.Over(a), bo.Over(b)) == CosineCounts(ma, mb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfDistribution(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(5)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	// Rank 0 should be about twice rank 1 and about 10x rank 9 for s=1.
	r01 := float64(counts[0]) / float64(counts[1])
	if r01 < 1.8 || r01 > 2.2 {
		t.Errorf("rank0/rank1 = %v, want ~2", r01)
	}
	r09 := float64(counts[0]) / float64(counts[9])
	if r09 < 8.5 || r09 > 11.5 {
		t.Errorf("rank0/rank9 = %v, want ~10", r09)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1) should fail")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10,0) should fail")
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	// Generate a continuous power law with alpha=2.5 via inverse transform:
	// x = xmin * (1-u)^(-1/(alpha-1)).
	r := NewRand(21)
	const alpha, xmin = 2.5, 1.0
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = xmin * math.Pow(1-r.Float64(), -1/(alpha-1))
	}
	fit, err := FitPowerLaw(samples, xmin)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 0.05 {
		t.Errorf("fitted alpha = %v, want ~%v", fit.Alpha, alpha)
	}
	if fit.N != len(samples) {
		t.Errorf("fit.N = %d", fit.N)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2, 3}, 0); err == nil {
		t.Error("xmin=0 should fail")
	}
	if _, err := FitPowerLaw([]float64{0.1, 0.2}, 1); err == nil {
		t.Error("no samples above xmin should fail")
	}
}

func TestFreqOfFreq(t *testing.T) {
	got := FreqOfFreq([]uint64{1, 1, 2, 5, 5, 5})
	want := [][2]uint64{{1, 2}, {2, 1}, {5, 3}}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestProportionCI(t *testing.T) {
	iv, err := ProportionCI(500, 1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.P-0.5) > 1e-12 {
		t.Errorf("P = %v", iv.P)
	}
	halfWant := 1.959963984540054 * math.Sqrt(0.25/1000)
	if math.Abs((iv.Hi-iv.Lo)/2-halfWant) > 1e-9 {
		t.Errorf("half-width = %v, want %v", (iv.Hi-iv.Lo)/2, halfWant)
	}
}

// The paper's §3.3 claim: with n = 32M the proportion is within ±0.0001 at
// 95% confidence. Verify our CI math reproduces that.
func TestPaperSampleClaim(t *testing.T) {
	n := uint64(32_310_958)
	iv, err := ProportionCI(n/2, n, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	half := (iv.Hi - iv.Lo) / 2
	if half > 0.0002 {
		t.Errorf("half-width at n=32M is %v, paper claims <= 1e-4 scale", half)
	}
}

func TestCIErrors(t *testing.T) {
	if _, err := ProportionCI(1, 0, 0.95); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := ProportionCI(2, 1, 0.95); err == nil {
		t.Error("successes > n should fail")
	}
	if _, err := ProportionCI(1, 2, 0.80); err == nil {
		t.Error("unsupported confidence should fail")
	}
}

func TestHash64Stable(t *testing.T) {
	// FNV-1a known-answer test.
	if got := Hash64(""); got != 14695981039346656037 {
		t.Errorf("Hash64(\"\") = %d", got)
	}
	if Hash64("a") == Hash64("b") {
		t.Error("trivial collision")
	}
}
