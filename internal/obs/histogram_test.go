package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 7, 9, 100} {
		h.Observe(v)
	}
	// le semantics: a value equal to a bound lands in that bound's bucket.
	want := []uint64{2, 2, 1, 1, 2} // <=1: {0.5,1}; <=2: {1.5,2}; <=4: {3}; <=8: {7}; +Inf: {9,100}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-124) > 1e-9 {
		t.Errorf("Sum = %v, want 124", sum)
	}
}

// TestHistogramSearchMatchesStdlib pins Observe's inlined binary search
// to sort.SearchFloat64s over the boundary ladder, including exact-bound
// and out-of-range values.
func TestHistogramSearchMatchesStdlib(t *testing.T) {
	bounds := ExpBounds(0.001, 2, 12)
	h := NewHistogram(bounds)
	probe := append([]float64{}, bounds...)
	probe = append(probe, 0, 0.0005, 0.0015, 1e9, -1)
	for _, v := range probe {
		before := h.BucketCounts()
		h.Observe(v)
		after := h.BucketCounts()
		hit := -1
		for i := range after {
			if after[i] != before[i] {
				hit = i
				break
			}
		}
		if want := sort.SearchFloat64s(bounds, v); hit != want {
			t.Errorf("Observe(%v) hit bucket %d, stdlib search says %d", v, hit, want)
		}
	}
}

// TestConcurrentObserve hammers one histogram and one counter from many
// goroutines; run under -race this is the data-race guard, and the
// final counts must be exact regardless.
func TestConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefLatencyBounds)
	c := &Counter{}
	g := &Gauge{}
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%1000) / 1e4)
				c.Inc()
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var n uint64
	for _, c := range h.BucketCounts() {
		n += c
	}
	if n != workers*per {
		t.Errorf("histogram buckets sum to %d, want %d", n, workers*per)
	}
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
}

// TestObsZeroAlloc pins the hot-path contract: counter Inc/Add, gauge
// Set/Add and histogram Observe allocate nothing — including through
// nil receivers (the uninstrumented mode).
func TestObsZeroAlloc(t *testing.T) {
	c := &Counter{}
	g := &Gauge{}
	h := NewHistogram(DefLatencyBounds)
	var nilC *Counter
	var nilH *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", tc.name, n)
		}
	}
}

func TestRateWindow(t *testing.T) {
	var r RateWindow
	now := int64(1_000_000)
	r.addAt(now, 1000)
	r.addAt(now, 500)
	r.addAt(now+1, 500)
	if got := r.rateAt(now+1, 10); got != 200 {
		t.Errorf("rate = %v, want (1500+500)/10 = 200", got)
	}
	// The window slides: 12s later those adds are stale.
	if got := r.rateAt(now+12, 10); got != 0 {
		t.Errorf("rate after idle = %v, want 0", got)
	}
	// Ring reuse: a slot from a previous lap is overwritten, not summed.
	r.addAt(now+rateSlots, 300)
	if got := r.rateAt(now+rateSlots, 1); got != 300 {
		t.Errorf("rate after lap = %v, want 300", got)
	}
	var nilR *RateWindow
	nilR.Add(5)
	if nilR.Rate(10) != 0 {
		t.Error("nil RateWindow should read 0")
	}
}
