package core

import (
	"math"
	"testing"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// §3.3 of the paper justifies working on the 4% sample Dsample with a
// confidence-interval argument: at the sample's size, any proportion
// measured on the sample is within a tight interval of the full-corpus
// proportion. Validate that claim on our corpus: for every traffic class,
// the Dsample share must fall inside the 99% Wald interval implied by the
// sample size (with a small slack because our sampling is deterministic
// hashing rather than i.i.d. draws).
func TestSampleProportionsWithinCI(t *testing.T) {
	f := corpus(t)
	full := f.analyzer.Dataset(DFull)
	sample := f.analyzer.Dataset(DSample)
	if sample.Total == 0 {
		t.Fatal("empty sample")
	}

	classes := []struct {
		name string
		full uint64
		samp uint64
	}{
		{"allowed", full.Allowed(), sample.Allowed()},
		{"censored", full.Censored(), sample.Censored()},
		{"errors", full.Errors(), sample.Errors()},
		{"tcp_error", full.ByException[logfmt.ExTCPError], sample.ByException[logfmt.ExTCPError]},
		{"internal_error", full.ByException[logfmt.ExInternalError], sample.ByException[logfmt.ExInternalError]},
	}
	for _, c := range classes {
		pFull := float64(c.full) / float64(full.Total)
		iv, err := stats.ProportionCI(c.samp, sample.Total, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		// Allow 3x the half-width as slack for the deterministic sampler.
		half := (iv.Hi - iv.Lo) / 2
		if math.Abs(iv.P-pFull) > 3*half+0.002 {
			t.Errorf("%s: sample %.5f vs full %.5f exceeds CI half-width %.5f",
				c.name, iv.P, pFull, half)
		}
	}
}

// The §3.3 numerical claim itself: at the paper's sample size (n = 32.3M)
// and its observed proportions (e.g. allowed = 93.28%), the 95% interval
// half-width is at most 1e-4. (At worst-case p = 0.5 the half-width is
// 1.7e-4; the paper's claim is about the proportions it reports.)
func TestPaperSampleSizeClaim(t *testing.T) {
	const n = 32_310_958
	for _, p := range []float64{0.9328, 0.0088, 0.0625} { // Table 3's Dsample shares
		iv, err := stats.ProportionCI(uint64(p*n), n, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if half := (iv.Hi - iv.Lo) / 2; half > 1.01e-4 {
			t.Errorf("half-width at p=%v is %v, paper claims <= 1e-4", p, half)
		}
	}
}

// Top-domain rankings agree between sample-scale corpora and the full
// corpus for the heavy hitters: the property that lets the paper use
// Dsample for summary statistics.
func TestSamplePreservesHeavyHitters(t *testing.T) {
	f := corpus(t)
	// Recompute a sampled top-domains from the raw records.
	sampleCensored := stats.NewCounter()
	an := f.analyzer
	for i := range f.records {
		rec := &f.records[i]
		if sampleHit(rec, an.opt.SampleOneIn) && rec.Class() == logfmt.ClassCensored && !rec.IsProxied() {
			sampleCensored.Add(hostDomain(rec))
		}
	}
	_, fullTop := an.TopDomains(3)
	sampleTop := sampleCensored.Top(3)
	if len(sampleTop) < 3 {
		t.Skip("sample too small for top-3 comparison at this corpus size")
	}
	fullSet := map[string]bool{}
	for _, r := range fullTop {
		fullSet[r.Domain] = true
	}
	agree := 0
	for _, e := range sampleTop {
		if fullSet[e.Key] {
			agree++
		}
	}
	if agree < 2 {
		t.Errorf("sample top-3 %v disagrees with full top-3 %v", sampleTop, fullTop)
	}
}

func hostDomain(rec *logfmt.Record) string {
	// mirror the analyzer's registered-domain keying
	return urlx.RegisteredDomain(rec.Host)
}
