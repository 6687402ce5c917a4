package stats

import (
	"errors"
	"math"
)

// Interval is a two-sided confidence interval for a proportion.
type Interval struct {
	P    float64 // point estimate
	Lo   float64
	Hi   float64
	Conf float64 // confidence level, e.g. 0.95
}

// zFor returns the standard-normal quantile for a two-sided confidence
// level. We only need a handful of levels; the table keeps us stdlib-only
// and exact for the cases the toolkit exposes.
func zFor(conf float64) (float64, error) {
	switch {
	case math.Abs(conf-0.90) < 1e-9:
		return 1.6448536269514722, nil
	case math.Abs(conf-0.95) < 1e-9:
		return 1.959963984540054, nil
	case math.Abs(conf-0.99) < 1e-9:
		return 2.5758293035489004, nil
	default:
		return 0, errors.New("stats: unsupported confidence level (use 0.90, 0.95 or 0.99)")
	}
}

// ProportionCI returns the normal-approximation (Wald) confidence interval
// for a proportion with successes out of n trials. This is the interval the
// paper invokes in §3.3 ([12] eq. 1, ch. 13.9.2) to argue that the 4% sample
// Dsample pins proportions to ±0.0001 of Dfull at 95% confidence.
func ProportionCI(successes, n uint64, conf float64) (Interval, error) {
	if n == 0 {
		return Interval{}, errors.New("stats: ProportionCI with n = 0")
	}
	if successes > n {
		return Interval{}, errors.New("stats: successes exceed trials")
	}
	z, err := zFor(conf)
	if err != nil {
		return Interval{}, err
	}
	p := float64(successes) / float64(n)
	half := z * math.Sqrt(p*(1-p)/float64(n))
	return Interval{P: p, Lo: clamp01(p - half), Hi: clamp01(p + half), Conf: conf}, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
