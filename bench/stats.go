package main

import (
	"math"
	"sort"
)

// summary is the order statistics stored for every timed metric, so a
// result file shows how steady a number was, not only what it was.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method),
// because that is the function the benchmark driver judges spread with.
// One sample is its own quartiles; none gives NaN.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// percentile is the linear-interpolation percentile (p in [0,100]) used
// for latency tails.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sorted(v)
	q1, med, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: med, Q3: q3, Max: s[len(s)-1]}
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is compared with.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / med)
}
