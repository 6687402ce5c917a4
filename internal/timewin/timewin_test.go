package timewin

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
)

// testMetrics keeps bucket engines cheap: the three modules cover a
// dataset counter, the 5-minute time series and the domain counters,
// which is enough to detect any mis-routed or double-merged record.
var testMetrics = []string{"datasets", "timeseries", "domains"}

var base = time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()

func mkRec(t int64, host string, censored bool) logfmt.Record {
	rec := logfmt.Record{
		Time: t, Host: host, Path: "/", Method: "GET", Scheme: "http",
		Port: 80, ClientIP: "0.0.0.0", Filter: logfmt.Observed,
	}
	rec.SetProxy(42)
	if censored {
		rec.Filter = logfmt.Denied
		rec.Exception = logfmt.ExPolicyDenied
	}
	return rec
}

func newPartition(t *testing.T, bucket, retain time.Duration) *Partition {
	t.Helper()
	p, err := New(Config{Metrics: testMetrics, Bucket: bucket, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{}, testMetrics...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameResults compares the observable state of two engines through the
// result methods the test modules feed.
func sameResults(t *testing.T, got, want *core.Engine) {
	t.Helper()
	if g, w := got.Dataset(core.DFull), want.Dataset(core.DFull); g != w {
		t.Errorf("Dataset(DFull) = %+v, want %+v", g, w)
	}
	gts := got.TimeSeries(base-40*86400, base+40*86400)
	wts := want.TimeSeries(base-40*86400, base+40*86400)
	if !reflect.DeepEqual(gts, wts) {
		t.Errorf("TimeSeries differs: got %d points, want %d", len(gts), len(wts))
	}
	ga, gc := got.TopDomains(10)
	wa, wc := want.TopDomains(10)
	if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gc, wc) {
		t.Errorf("TopDomains differs:\n got %v / %v\nwant %v / %v", ga, gc, wa, wc)
	}
}

// A record exactly on a bucket edge must land in the bucket that starts
// there, deterministically.
func TestBucketBoundaryRouting(t *testing.T) {
	p := newPartition(t, time.Hour, 0)
	recs := []logfmt.Record{
		mkRec(base, "a.example.com", false),        // bucket 0 start
		mkRec(base+3599, "b.example.com", true),    // bucket 0 last second
		mkRec(base+3600, "c.example.com", false),   // exactly on the edge: bucket 1
		mkRec(base+2*3600, "d.example.com", false), // bucket 2 start
	}
	for i := range recs {
		p.Observe(&recs[i])
	}
	if p.Buckets() != 3 {
		t.Fatalf("Buckets() = %d, want 3", p.Buckets())
	}

	count := func(w Window) uint64 {
		dst := newEngine(t)
		cov, err := p.RangeInto(dst, w)
		if err != nil {
			t.Fatal(err)
		}
		return cov.Records
	}
	if n := count(Window{From: base, To: base + 3600}); n != 2 {
		t.Errorf("first bucket covers %d records, want 2", n)
	}
	if n := count(Window{From: base + 3600, To: base + 2*3600}); n != 1 {
		t.Errorf("edge record bucket covers %d records, want 1", n)
	}
	// A window touching one second of a bucket merges the whole bucket
	// and reports the widened span.
	dst := newEngine(t)
	cov, err := p.RangeInto(dst, Window{From: base + 1, To: base + 2})
	if err != nil {
		t.Fatal(err)
	}
	if cov.FromUnix != base || cov.ToUnix != base+3600 || cov.Records != 2 {
		t.Errorf("coverage = %+v, want bucket-aligned [base, base+3600) with 2 records", cov)
	}
}

// spread produces a corpus across n hourly buckets with mixed classes.
func spread(n int) []logfmt.Record {
	var recs []logfmt.Record
	hosts := []string{"news.example.com", "video.example.org", "blocked.example.net"}
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			recs = append(recs, mkRec(base+int64(i)*3600+int64(j*917), hosts[j], j == 2))
		}
	}
	return recs
}

// Retention compaction must bound the live ring while keeping the
// all-time merge exactly equal to a batch run over the same records.
func TestCompactionPreservesAllTime(t *testing.T) {
	p := newPartition(t, time.Hour, 10*time.Hour)
	batch := newEngine(t)
	recs := spread(100)
	for i := range recs {
		p.Observe(&recs[i])
		batch.Observe(&recs[i])
	}
	if p.Buckets() > 10 {
		t.Errorf("live buckets = %d, want <= 10 (retention must bound memory)", p.Buckets())
	}
	m := p.Meta()
	if m.TailRecords == 0 {
		t.Fatal("no records compacted into the tail on a 100-bucket corpus with 10-bucket retention")
	}
	if got := p.Records(); got != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}

	all := newEngine(t)
	p.AllInto(all)
	sameResults(t, all, batch)

	// The full-corpus range query equals the all-time merge too.
	full := newEngine(t)
	cov, err := p.RangeInto(full, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Records != uint64(len(recs)) || !cov.Tail {
		t.Errorf("full-range coverage = %+v, want all %d records incl. tail", cov, len(recs))
	}
	sameResults(t, full, batch)
}

// A range inside the retained window is exact; a range that begins
// inside the compacted tail is a RetentionError.
func TestRangeVsRetentionHorizon(t *testing.T) {
	p := newPartition(t, time.Hour, 10*time.Hour)
	recs := spread(100)
	for i := range recs {
		p.Observe(&recs[i])
	}
	m := p.Meta()
	horizon := m.Buckets[0].StartUnix

	// Exact: a window starting at the horizon.
	dst := newEngine(t)
	ref := newEngine(t)
	win := Window{From: horizon, To: horizon + 3*3600}
	cov, err := p.RangeInto(dst, win)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if win.Contains(recs[i].Time) {
			ref.Observe(&recs[i])
		}
	}
	sameResults(t, dst, ref)
	if cov.Buckets != 3 || cov.Tail {
		t.Errorf("coverage = %+v, want 3 live buckets and no tail", cov)
	}

	// Inexact: a window reaching into the tail.
	_, err = p.RangeInto(newEngine(t), Window{From: horizon - 3600, To: horizon + 3600})
	var re *RetentionError
	if !errors.As(err, &re) {
		t.Fatalf("range into the tail: err = %v, want RetentionError", err)
	}
	if re.HorizonUnix != m.TailToUnix {
		t.Errorf("horizon = %d, want tail end %d", re.HorizonUnix, m.TailToUnix)
	}
}

// Records arriving behind the horizon fold into the tail, keeping the
// all-time view exact without resurrecting compacted buckets.
func TestLateRecordFoldsIntoTail(t *testing.T) {
	p := newPartition(t, time.Hour, 5*time.Hour)
	batch := newEngine(t)
	recs := spread(30)
	for i := range recs {
		p.Observe(&recs[i])
		batch.Observe(&recs[i])
	}
	buckets := p.Buckets()
	tailBefore := p.Meta().TailRecords

	late := mkRec(base+3600, "late.example.com", true) // far behind the horizon
	p.Observe(&late)
	batch.Observe(&late)

	if p.Buckets() != buckets {
		t.Errorf("late record changed the live ring: %d -> %d buckets", buckets, p.Buckets())
	}
	if got := p.Meta().TailRecords; got != tailBefore+1 {
		t.Errorf("tail records = %d, want %d", got, tailBefore+1)
	}
	all := newEngine(t)
	p.AllInto(all)
	sameResults(t, all, batch)
}

func TestMergeMeta(t *testing.T) {
	var agg Meta
	MergeMeta(&agg, Meta{
		BucketSeconds: 3600,
		Buckets: []BucketMeta{
			{StartUnix: base, Records: 2},
			{StartUnix: base + 3600, Records: 1},
		},
		TailRecords: 5, TailFromUnix: base - 7200, TailToUnix: base,
	})
	MergeMeta(&agg, Meta{
		BucketSeconds: 3600,
		Buckets: []BucketMeta{
			{StartUnix: base, Records: 3},
			{StartUnix: base + 7200, Records: 4},
		},
		TailRecords: 2, TailFromUnix: base - 3600, TailToUnix: base,
	})
	if len(agg.Buckets) != 3 {
		t.Fatalf("merged buckets = %d, want 3", len(agg.Buckets))
	}
	if agg.Buckets[0].Records != 5 || agg.Buckets[1].Records != 1 || agg.Buckets[2].Records != 4 {
		t.Errorf("merged bucket records = %+v", agg.Buckets)
	}
	if agg.TailRecords != 7 || agg.TailFromUnix != base-7200 || agg.TailToUnix != base {
		t.Errorf("merged tail = %d [%d, %d)", agg.TailRecords, agg.TailFromUnix, agg.TailToUnix)
	}
}

func TestParseTimeAndStep(t *testing.T) {
	want := time.Date(2011, 8, 3, 6, 0, 0, 0, time.UTC).Unix()
	for _, s := range []string{"1312351200", "2011-08-03T06:00:00Z", "2011-08-03T06:00:00", "2011-08-03T06:00"} {
		got, err := ParseTime(s)
		if err != nil || got != want {
			t.Errorf("ParseTime(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if got, err := ParseTime("2011-08-03"); err != nil || got != want-6*3600 {
		t.Errorf("ParseTime(date) = %d, %v", got, err)
	}
	if _, err := ParseTime("yesterday"); err == nil {
		t.Error("ParseTime accepted garbage")
	}
	if got, err := ParseStep("2h"); err != nil || got != 7200 {
		t.Errorf("ParseStep(2h) = %d, %v", got, err)
	}
	if got, err := ParseStep("86400"); err != nil || got != 86400 {
		t.Errorf("ParseStep(86400) = %d, %v", got, err)
	}
	if _, err := ParseStep("soon"); err == nil {
		t.Error("ParseStep accepted garbage")
	}
}

func TestWindowPredicate(t *testing.T) {
	w := Window{From: 100, To: 200}
	for _, tc := range []struct {
		t    int64
		want bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := w.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if !(Window{}).Contains(42) {
		t.Error("zero window must contain everything")
	}
	if !w.Overlaps(150, 250) || w.Overlaps(200, 300) || !w.Covers(100, 200) || w.Covers(99, 200) {
		t.Error("Overlaps/Covers edge semantics broken")
	}
}

// RangeInto and AllInto fold only the modules the destination carries:
// a narrower destination reads like a partition that only ever kept
// those modules.
func TestRangeIntoProjectsOntoDestinationModules(t *testing.T) {
	full := newPartition(t, time.Hour, 10*time.Hour)
	narrow, err := New(Config{Metrics: []string{"datasets"}, Bucket: time.Hour, Retain: 10 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	recs := spread(100)
	for i := range recs {
		full.Observe(&recs[i])
		narrow.Observe(&recs[i])
	}
	horizon := full.Meta().Buckets[0].StartUnix
	for _, w := range []Window{{}, {From: horizon, To: horizon + 3*3600}} {
		got, _ := core.NewEngine(core.Options{}, "datasets")
		want, _ := core.NewEngine(core.Options{}, "datasets")
		gc, err := full.RangeInto(got, w)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := narrow.RangeInto(want, w)
		if err != nil {
			t.Fatal(err)
		}
		if gc != wc {
			t.Errorf("%s: coverage %+v, want %+v (projection must not change what is covered)", w, gc, wc)
		}
		if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
			t.Errorf("%s: projected range differs from a datasets-only partition", w)
		}
	}
	got, _ := core.NewEngine(core.Options{}, "datasets")
	want, _ := core.NewEngine(core.Options{}, "datasets")
	full.AllInto(got)
	narrow.AllInto(want)
	if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
		t.Error("projected AllInto differs from a datasets-only partition")
	}
}

// Fingerprint moves exactly when what RangeInto would merge moves, and
// refuses exactly the windows RangeInto refuses.
func TestFingerprintTracksWindowContent(t *testing.T) {
	p := newPartition(t, time.Hour, 10*time.Hour)
	recs := spread(100) // 100 hourly buckets: the last 10 stay live
	for i := range recs {
		p.Observe(&recs[i])
	}
	m := p.Meta()
	horizon := m.Buckets[0].StartUnix
	win := Window{From: horizon + 3600, To: horizon + 4*3600}
	state := func(w Window) []byte {
		dst := newEngine(t)
		if _, err := p.RangeInto(dst, w); err != nil {
			t.Fatal(err)
		}
		return dst.MarshalState()
	}
	fp := func(w Window) uint64 {
		v, ok := p.Fingerprint(w)
		if !ok {
			t.Fatalf("Fingerprint(%s) not ok on an answerable window", w)
		}
		return v
	}
	before, all, content := fp(win), fp(Window{}), state(win)

	// A record in a live bucket outside the window: the window's content
	// and fingerprint hold, the all-time fingerprint moves.
	outside := mkRec(horizon+6*3600+5, "outside.example.com", false)
	p.Observe(&outside)
	if fp(win) != before || !bytes.Equal(state(win), content) {
		t.Error("a record outside the window moved its fingerprint or content")
	}
	if fp(Window{}) == all {
		t.Error("all-time fingerprint ignored a new record")
	}

	// A late record folding into the tail: same again.
	all = fp(Window{})
	late := mkRec(base+3600, "late.example.com", true)
	p.Observe(&late)
	if fp(win) != before {
		t.Error("a record folded into the tail moved a window that excludes the tail")
	}
	if fp(Window{}) == all {
		t.Error("all-time fingerprint ignored a record folded into the tail")
	}

	// A record inside the window moves both.
	inside := mkRec(horizon+2*3600+5, "inside.example.com", true)
	p.Observe(&inside)
	if fp(win) == before || bytes.Equal(state(win), content) {
		t.Error("a record inside the window left its fingerprint or content unchanged")
	}

	// Compaction: two newer buckets push the window's first bucket into
	// the tail. RangeInto now refuses the window, and so must Fingerprint.
	for h := int64(10); h < 12; h++ {
		r := mkRec(horizon+h*3600, "newer.example.com", false)
		p.Observe(&r)
	}
	_, rangeErr := p.RangeInto(newEngine(t), win)
	_, ok := p.Fingerprint(win)
	var re *RetentionError
	if !errors.As(rangeErr, &re) || ok {
		t.Errorf("after compaction: RangeInto err = %v, Fingerprint ok = %v; want RetentionError and !ok", rangeErr, ok)
	}
	// A window that covers the whole tail stays answerable and hashes it.
	covering := Window{To: horizon + 4*3600}
	before, content = fp(covering), state(covering)
	p.Observe(&late)
	if fp(covering) == before || bytes.Equal(state(covering), content) {
		t.Error("a record folded into a covered tail left the fingerprint or content unchanged")
	}
}
