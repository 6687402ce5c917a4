package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (end-to-end metric, workload) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the change's runs with the parent's for one metric.
// The change regressed when its median is worse than the parent's by
// more than bound. When either side's own run-to-run spread is wider
// than the bound the data cannot tell a regression from noise, so the
// result is unresolved — unless every run of the change reads better
// than every run of the parent, which no amount of noise explains away.
func judge(parent, change []float64, better string, bound float64) (outcome string, worse float64) {
	pm, cm := median(parent), median(change)
	worse = (cm - pm) / pm
	if better == higher {
		worse = (pm - cm) / pm
	}
	if max(spread(parent), spread(change)) > bound {
		if allBetter(parent, change, better) {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, better string) bool {
	ps, cs := sorted(parent), sorted(change)
	if len(ps) == 0 || len(cs) == 0 {
		return false
	}
	if better == higher {
		return cs[0] > ps[len(ps)-1]
	}
	return cs[len(cs)-1] < ps[0]
}

// valuesBy groups the untraced runs of a result set: workload -> metric
// -> one value per run. Runs that are not comparable are left out and
// named: failed ones (which make the whole comparison fail) and noisy
// ones (which only shrink the sample).
func valuesBy(recs []record) (vals map[string]map[string][]float64, failed, noisy []string) {
	vals = map[string]map[string][]float64{}
	for _, rec := range recs {
		if rec.Traced {
			continue
		}
		if !rec.Correct {
			failed = append(failed, fmt.Sprintf("%s seed %d: %d failed operations", rec.Workload, rec.Provenance.Seed, rec.Failed))
			continue
		}
		if rec.Noisy {
			noisy = append(noisy, fmt.Sprintf("%s seed %d: %v", rec.Workload, rec.Provenance.Seed, rec.NoisyWhy))
			continue
		}
		byMetric := vals[rec.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			vals[rec.Workload] = byMetric
		}
		for _, d := range endToEnd {
			if v, ok := rec.Metrics[d.Name]; ok {
				byMetric[d.Name] = append(byMetric[d.Name], v)
			}
		}
	}
	return vals, failed, noisy
}

// compareSets prints, per end-to-end metric and workload, the parent
// (A) and change (B) medians, their ratio with its base, each side's
// spread, the bound and the verdict. It returns false when anything is
// not ok.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	a, failedA, noisyA := valuesBy(recsA)
	b, failedB, noisyB := valuesBy(recsB)
	allOK := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median (n)\tchange median (n)\tchange/parent\tspread A\tspread B\tbound\tverdict")
	for _, wl := range sortedKeys(a) {
		for _, d := range endToEnd {
			pa, pb := a[wl][d.Name], b[wl][d.Name]
			if len(pa) == 0 || len(pb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.2f\tmissing\n", wl, d.Name, d.Unit, d.Bound)
				allOK = false
				continue
			}
			v, worse := judge(pa, pb, d.Better, d.Bound)
			if v != verdictOK {
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g (%d)\t%.5g (%d)\t%.4f of %.5g\t%.3f\t%.3f\t%.2f\t%s (%+.1f%% worse)\n",
				wl, d.Name, d.Unit, median(pa), len(pa), median(pb), len(pb),
				median(pb)/median(pa), median(pa), spread(pa), spread(pb), d.Bound, v, 100*worse)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, msg := range append(noisyA, noisyB...) {
		fmt.Fprintln(w, "left out as noisy:", msg)
	}
	for _, msg := range append(failedA, failedB...) {
		fmt.Fprintln(w, "left out as failed:", msg)
		allOK = false
	}
	return allOK, nil
}
