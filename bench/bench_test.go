package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests cover the harness's own arithmetic. None of them starts a
// process or generates load: `go test ./...` here stays fast.

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestPercentileAndSummary(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for p, want := range map[float64]float64{0: 10, 50: 30, 100: 50, 95: 48, 25: 20} {
		if got := percentile(v, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	s := summarize(v)
	if s.N != 5 || s.Min != 10 || s.Max != 50 || s.Median != 30 {
		t.Errorf("summarize = %+v", s)
	}
	if v[0] != 50 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 25},  // grandchild of root
		{ID: 6, Parent: 0, Name: "other", Start: 0, End: 7}, // another trace
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 15, 3: 30, 4: 30, 5: 15, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// Descendants of root: a(15)+b(30)+c(30)+a1(15) = 90 of 100.
	if got := descendantSelfShare(spans, 1); !near(got, 0.9) {
		t.Errorf("descendantSelfShare = %v, want 0.9", got)
	}
	if by := selfByName(spans); !near(by["a"], 15e-9) {
		t.Errorf("selfByName[a] = %v", by["a"])
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin("t", 0, "x")
	r.end(id)
	if id != 0 || r.count() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	rec := newRecorder()
	a := rec.begin("t", 0, "x")
	b := rec.begin("t", a, "y")
	rec.end(b)
	rec.end(a)
	if rec.count() != 2 || rec.spans[1].Parent != a || rec.spans[0].End < rec.spans[1].End {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if tp := traceparent(strings.Repeat("ab", 16), 255); tp != "00-"+strings.Repeat("ab", 16)+"-00000000000000ff-01" {
		t.Errorf("traceparent = %q", tp)
	}
}

func TestLineSlicesAreLineAlignedAndLossless(t *testing.T) {
	var data []byte
	for i := 0; i < 200; i++ {
		data = append(data, bytes.Repeat([]byte{'a' + byte(i%26)}, 1+i%37)...)
		data = append(data, '\n')
	}
	data = append(data, "tail-without-newline"...)
	for _, size := range []int{1, 7, 64, 1000, len(data), 2 * len(data)} {
		parts := lineSlices(data, size)
		if got := bytes.Join(parts, nil); !bytes.Equal(got, data) {
			t.Fatalf("size %d: slices do not reassemble the input", size)
		}
		for i, p := range parts {
			last := i == len(parts)-1
			if !last && p[len(p)-1] != '\n' {
				t.Fatalf("size %d: slice %d does not end on a newline", size, i)
			}
			if !last && len(p) > size && bytes.Count(p, []byte{'\n'}) != 1 {
				t.Fatalf("size %d: slice %d exceeds size with more than one line", size, i)
			}
		}
	}
}

func TestCountRecordsSkipsCommentsAndBlanks(t *testing.T) {
	in := "#Fields: a b\n1,2\n\n3,4\r\n\r\n#x\n5,6"
	if n := countRecords([]byte(in)); n != 3 {
		t.Errorf("countRecords = %d, want 3", n)
	}
}

func TestStridedSpansTheFileAndVariesByRound(t *testing.T) {
	file := []byte("#Fields: x\n")
	for i := 0; i < 10000; i++ {
		file = append(file, fmt.Sprintf("%06d,padding-padding\n", i)...)
	}
	c := &corpus{data: [][]byte{file}}
	a, b := c.strided(0, 2400), c.strided(1, 2400)
	if n := countRecords(a); n < 90 || n > 110 {
		t.Errorf("strided picked %d lines, want about 100", n)
	}
	if bytes.Contains(a, []byte("#")) {
		t.Error("strided kept the header comment")
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if first, last := lines[0][:6], lines[len(lines)-1][:6]; first > "000200" || last < "009800" {
		t.Errorf("strided covers lines %s..%s, want the whole file", first, last)
	}
	for _, l := range lines {
		if bytes.Contains(b, []byte(l+"\n")) {
			t.Fatalf("rounds 0 and 1 both picked line %s", l)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005, c * 0.995} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2, c} }
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"same", steady(100), steady(100), lower, verdictOK},
		{"lower-better got 20% slower", steady(100), steady(120), lower, verdictRegressed},
		{"lower-better got faster", steady(100), steady(80), lower, verdictOK},
		{"higher-better dropped 20%", steady(100), steady(80), higher, verdictRegressed},
		{"higher-better rose", steady(100), steady(120), higher, verdictOK},
		{"within the bound", steady(100), steady(108), lower, verdictOK},
		{"spread wider than the bound", noisy(100), noisy(100), lower, verdictUnresolved},
		{"noisy but every run better", noisy(100), steady(50), lower, verdictOK},
		{"noisy and worse", steady(100), noisy(150), lower, verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.parent, c.change, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, worse := judge(steady(100), steady(80), higher, 0.10); !near(worse, 0.2) {
		t.Errorf("worse = %v, want 0.2", worse)
	}
}

func TestWindowRatesDropWarmupAndPartialWindow(t *testing.T) {
	acks := []ack{
		{at: 500 * time.Millisecond, bytes: 9e6}, // window 0: warm-up, dropped
		{at: time.Second + 1, bytes: 2e6},
		{at: 1900 * time.Millisecond, bytes: 3e6},
		{at: 2*time.Second - 1, bytes: 1e6}, // still window 1
		{at: 2500 * time.Millisecond, bytes: 4e6},
		{at: 3100 * time.Millisecond, bytes: 8e6}, // past the last whole window, dropped
	}
	t0 := time.Unix(1000, 0)
	got := windowRates(acks, t0, 1, 2)
	if len(got) != 2 || !near(got[0].v, 6) || !near(got[1].v, 4) {
		t.Fatalf("windowRates = %v, want [6 4]", got)
	}
	if !got[1].from.Equal(t0.Add(2*time.Second)) || !got[1].to.Equal(t0.Add(3*time.Second)) {
		t.Errorf("window 2 spans %v..%v", got[1].from, got[1].to)
	}
}

func TestSpeedFactorAveragesReadingsInsideTheInterval(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var rs []speedReading
	for i, ns := range []float64{1, 1, 2, 2, 3, 3} { // one reading per 100 ms, in units of the reference
		rs = append(rs, speedReading{at(100 * i), ns * speedRefNs})
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 500, 2},      // all six
		{190, 310, 2},    // readings at 200 and 300
		{400, 10_000, 3}, // open-ended on the right
		{-900, -100, 1},  // before the first: nearest reading
		{9000, 9500, 3},  // after the last: nearest reading
		{210, 290, 2},    // between two readings: the next one
	} {
		if got := factorOf(rs, at(c.from), at(c.to)); !near(got, c.want) {
			t.Errorf("factorOf(%d..%d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := factorOf(nil, at(0), at(1)); got != 1 {
		t.Errorf("factorOf with no readings = %v, want 1", got)
	}
	s := &speedometer{readings: rs}
	slow := timed{v: 10, from: at(450), to: at(460)} // padded by 500 ms: all six readings, factor 2
	if d, r := s.duration(slow), s.rate(slow); !near(d, 5) || !near(r, 20) {
		t.Errorf("duration, rate = %v, %v, want 5, 20", d, r)
	}
}

func TestManifestMatchesBenchmarkJSONAndItsLimits(t *testing.T) {
	want := manifestJSON()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks the contract's name/unit/better rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range perLayer {
		check(d)
		if d.Moves == "" {
			t.Errorf("%s: no predicted end-to-end metric", d.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the contract's name/why rules", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestVerdictNeedsEveryMetricOfItsKind(t *testing.T) {
	rec := record{Correct: true, Attempted: 3, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		rec.Metrics[d.Name] = 1.5
	}
	v, err := rec.verdict()
	if err != nil || len(v.Metrics) != len(endToEnd) || v.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("untraced verdict: %v %+v", err, v)
	}
	delete(rec.Metrics, "hit_rps")
	if _, err := rec.verdict(); err == nil {
		t.Error("a missing end-to-end metric went unnoticed")
	}
	rec.Traced = true
	if _, err := rec.verdict(); err == nil {
		t.Error("a traced run with no per-layer metrics went unnoticed")
	}
}
