package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output: the benchmark contract's
// result object, nothing else.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as stored in a result set (-out): every metric the
// run measured, the quartiles behind each median, and where and how it
// was taken.
type record struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Seconds    float64            `json:"seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Noisy      bool               `json:"noisy"`
	NoisyWhy   []string           `json:"noisy_reasons,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Summaries  map[string]summary `json:"summaries"`
	Provenance *provenance        `json:"provenance"`
}

func (r *run) record(seconds float64) record {
	res := r.res
	return record{
		Workload: r.w.Name, Traced: r.traced, Seconds: seconds,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Failures: res.failures,
		Noisy: len(res.noisy) > 0, NoisyWhy: res.noisy,
		Metrics: res.values, Summaries: res.summaries, Provenance: r.prov,
	}
}

// verdict selects the metrics the contract wants for this kind of run:
// every end-to-end metric untraced, every per-layer metric traced. A
// metric the run failed to produce is an error, not an omission.
func (rec record) verdict() (verdict, error) {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	v := verdict{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		val, ok := rec.Metrics[d.Name]
		if !ok {
			return v, fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Metrics[d.Name] = metricValue{val, d.Unit}
	}
	return v, nil
}

// report prints every measured metric by name with its unit, grouped
// the way BENCHMARK.json lists them.
func (rec record) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  %d/%d operations failed\n",
		rec.Workload, rec.Provenance.Seed, rec.Traced, rec.Failed, rec.Attempted)
	line := func(d metricDef) {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-10s", d.Name, v, d.Unit)
		if s, ok := rec.Summaries[d.Name]; ok {
			fmt.Fprintf(w, "  n=%d min=%.4g q1=%.4g q3=%.4g max=%.4g", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "end to end (at reference box speed):")
	for _, d := range endToEnd {
		line(d)
	}
	fmt.Fprintln(w, "end to end as measured:")
	for _, d := range endToEnd {
		d.Name = "raw." + d.Name
		line(d)
	}
	fmt.Fprintln(w, "per layer:")
	for _, d := range perLayer {
		line(d)
	}
	if rec.Noisy {
		fmt.Fprintf(w, "NOISY (not comparable): %v\n", rec.NoisyWhy)
	}
}

// appendRecord adds one run to a result set: a file of JSON lines.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
