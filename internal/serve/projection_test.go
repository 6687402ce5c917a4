package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

// encodeDoc encodes a rendered doc the way the doc endpoints do.
func encodeDoc(t *testing.T, doc *render.Doc, format string) []byte {
	t.Helper()
	if format == "text" {
		return []byte(doc.Text())
	}
	b, err := render.EncodeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// /v1/range folds only the modules its doc reads. The body must not
// show it: for every experiment, window shape and format, it equals the
// body rendered from a Store.Range engine that carries every module.
func TestRangeProjectionByteIdentity(t *testing.T) {
	f := corpus(t)
	day := func(d, h int) int64 { return time.Date(2011, 8, d, h, 0, 0, 0, time.UTC).Unix() }
	windows := []struct {
		name string
		win  timewin.Window
		step int64
	}{
		{"6h", timewin.Window{From: day(3, 6), To: day(3, 12)}, 0},
		{"3d", timewin.Window{From: day(2, 0), To: day(5, 0)}, 0},
		{"all", timewin.Window{}, 0},
		{"6d-step-24h", timewin.Window{From: day(1, 0), To: day(7, 0)}, 86400},
	}
	store, err := NewStore(Config{Options: f.opt, Shards: 4, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if _, err := store.add(f.records, nil); err != nil {
		t.Fatal(err)
	}
	// Caching off: every request takes the projected merge.
	srv := NewServer(store, f.gen, docCacheBytes(0))

	for _, w := range windows {
		// The reference engines carry every module.
		var full *core.Analyzer
		var series []rangeWindow
		if w.step > 0 {
			series, err = store.rangeSeries(w.win, w.step)
		} else {
			full, _, err = store.Range(w.win)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range render.Order() {
			for _, format := range []string{"json", "text"} {
				var want []byte
				if w.step > 0 {
					s := &render.Series{ID: id, Kind: render.Kind(id), Title: render.Title(id), StepSeconds: w.step}
					for _, rw := range series {
						doc, err := render.Render(id, render.Context{An: rw.An, Gen: f.gen})
						if err != nil {
							t.Fatal(err)
						}
						s.Windows = append(s.Windows, render.SeriesWindow{
							FromUnix: rw.Window.From, ToUnix: rw.Window.To, Records: rw.Coverage.Records, Doc: doc,
						})
					}
					if want = []byte(s.Text()); format == "json" {
						if want, err = render.EncodeJSON(s); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					doc, err := render.Render(id, render.Context{An: full, Gen: f.gen})
					if err != nil {
						t.Fatal(err)
					}
					want = encodeDoc(t, doc, format)
				}
				path := fmt.Sprintf("/v1/range/%s?format=%s", id, format)
				if w.win != (timewin.Window{}) {
					path += fmt.Sprintf("&from=%d&to=%d", w.win.From, w.win.To)
				}
				if w.step > 0 {
					path += fmt.Sprintf("&step=%d", w.step)
				}
				rw := get(srv, path)
				if rw.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %.200s", path, rw.Code, rw.Body.String())
				}
				if !bytes.Equal(rw.Body.Bytes(), want) {
					t.Errorf("%s (%s): projected body differs from the full-engine render\n got: %.200s\nwant: %.200s",
						path, w.name, rw.Body.Bytes(), want)
				}
			}
		}
	}
}

// Unknown ids answer 404 and known ids whose module the daemon was
// built without answer 422, on every endpoint that takes an id — and
// /v1/range knows the latter before it asks a shard for anything.
func TestUnknownIDAndMissingModuleStatuses(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour, Metrics: []string{"datasets"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if _, err := store.add(f.records[:2000], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	var merges atomic.Int64
	store.rangeStall = func(int) { merges.Add(1) }
	srv := NewServer(store, f.gen)

	// A daemon without the generator: an id that needs it, asked for by
	// name, is refused in Render's words on every endpoint; the default
	// sync id set leaves it out instead.
	const needsGen = "needs the ground-truth generator"
	full, err := NewStore(Config{Options: f.opt, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	if _, err := full.Refresh(); err != nil { // a first cut, so a sync has something to answer with
		t.Fatal(err)
	}
	noGen := NewServer(full, nil)
	for _, path := range []string{"/v1/experiments/probing", "/v1/range/probing", "/v1/sync?ids=probing"} {
		// With or without a validator: there is no body for one to vouch for.
		for _, hdr := range [][][2]string{nil, {{"If-None-Match", "*"}}} {
			if rw := get(noGen, path, hdr...); rw.Code != 422 || !strings.Contains(rw.Body.String(), needsGen) {
				t.Errorf("%s %v without a generator: status %d body %.200s; want 422 mentioning %q", path, hdr, rw.Code, rw.Body.String(), needsGen)
			}
		}
	}
	if rw := get(noGen, "/v1/sync"); rw.Code != 200 || strings.Contains(rw.Body.String(), `"id":"probing"`) {
		t.Errorf("/v1/sync without a generator: status %d, probing listed: %v", rw.Code, strings.Contains(rw.Body.String(), `"id":"probing"`))
	}

	for _, tc := range []struct {
		path   string
		status int
		says   string
	}{
		{"/v1/experiments/nope", 404, "unknown experiment id"},
		{"/v1/range/nope", 404, "unknown experiment id"},
		{"/v1/sync?ids=nope", 404, "unknown experiment id"},
		{"/v1/experiments/table4", 422, "domains"},
		{"/v1/range/table4", 422, "domains"},
		{"/v1/range/table4?step=24h", 422, "domains"},
		{"/v1/sync?ids=table4", 422, "domains"},
		{"/v1/experiments/table1", 200, ""},
		{"/v1/range/table1", 200, ""},
		{"/v1/sync?ids=table1", 200, ""},
	} {
		before := merges.Load()
		rw := get(srv, tc.path)
		if rw.Code != tc.status || !strings.Contains(rw.Body.String(), tc.says) {
			t.Errorf("%s: status %d body %.200s; want %d mentioning %q", tc.path, rw.Code, rw.Body.String(), tc.status, tc.says)
		}
		if rw.Code != 200 && merges.Load() != before {
			t.Errorf("%s: a shard merged before the %d was decided", tc.path, rw.Code)
		}
		// If-None-Match moves none of it: a refusal stays the refusal, and
		// only a request that answers 200 can be told 304 instead.
		if rw := get(srv, tc.path, [2]string{"If-None-Match", "*"}); rw.Code != tc.status && !(tc.status == 200 && rw.Code == 304) {
			t.Errorf("%s with If-None-Match: *: status %d, want %d", tc.path, rw.Code, tc.status)
		}
	}
	if merges.Load() == 0 {
		t.Error("the range hook never ran: the no-merge assertions above checked nothing")
	}

	// The Store API refuses the same projection instead of panicking on a
	// shard goroutine.
	if _, _, err := store.Range(timewin.Window{}, "domains"); err == nil || !strings.Contains(err.Error(), "domains") {
		t.Errorf("Range projected onto an absent module: err = %v", err)
	}
	if _, err := store.rangeSeries(timewin.Window{}, 3600, "domains"); err == nil {
		t.Error("rangeSeries projected onto an absent module succeeded")
	}
}

// The range fingerprint is equal exactly when the window's merged
// content is: across ingest outside and inside the window, compaction
// of the window into the tail, and a restore into another store.
func TestRangeFingerprintTracksWindowContent(t *testing.T) {
	f := corpus(t)
	cfg := Config{Options: f.opt, Shards: 2, Bucket: time.Hour, Retain: 48 * time.Hour}
	store, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	content := func(st *Store, w timewin.Window) []byte {
		t.Helper()
		an, _, err := st.Range(w)
		if err != nil {
			t.Fatal(err)
		}
		return an.MarshalState()
	}
	fp := func(st *Store, w timewin.Window) uint64 {
		t.Helper()
		v, ok := st.rangeFingerprint(w)
		if !ok {
			t.Fatalf("rangeFingerprint(%s) not ok on an answerable window", w)
		}
		return v
	}
	// Records are in time order; feed them by cut-off time.
	next := 0
	addUntil := func(until int64) {
		t.Helper()
		start := next
		for next < len(f.records) && f.records[next].Time < until {
			next++
		}
		if _, err := store.add(f.records[start:next], nil); err != nil {
			t.Fatal(err)
		}
	}
	hour0 := f.records[0].Time - f.records[0].Time%3600
	addUntil(hour0 + 72*3600)

	win := timewin.Window{From: hour0 + 60*3600, To: hour0 + 66*3600}
	all := timewin.Window{}
	winFP, winContent := fp(store, win), content(store, win)
	allFP := fp(store, all)

	// Newer records outside the window (the horizon advances, but stays
	// behind it): the window holds, the corpus moved.
	addUntil(hour0 + 78*3600)
	if fp(store, win) != winFP || !bytes.Equal(content(store, win), winContent) {
		t.Error("ingest outside the window moved its fingerprint or content")
	}
	if fp(store, all) == allFP {
		t.Error("all-time fingerprint ignored new records")
	}

	// One record inside the window moves it.
	inside := f.records[0]
	inside.Time = win.From + 100
	if _, err := store.add([]logfmt.Record{inside}, nil); err != nil {
		t.Fatal(err)
	}
	if fp(store, win) == winFP || bytes.Equal(content(store, win), winContent) {
		t.Error("ingest inside the window left its fingerprint or content unchanged")
	}

	// The rest of the corpus compacts the window into the tail: the
	// query is refused, and so is the fingerprint.
	addUntil(1 << 62)
	if _, _, err := store.Range(win); err == nil {
		t.Fatal("the window was not compacted; the corpus is too short for this test")
	}
	if _, ok := store.rangeFingerprint(win); ok {
		t.Error("rangeFingerprint answered for a window that begins inside the tail")
	}

	// A restore reproduces content and fingerprint, tail included.
	dir := t.TempDir()
	if _, err := store.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if _, err := restored.Restore(dir); err != nil {
		t.Fatal(err)
	}
	lastHour := f.records[len(f.records)-1].Time
	lastHour -= lastHour % 3600
	live := timewin.Window{From: lastHour - 12*3600, To: lastHour + 3600}
	for _, w := range []timewin.Window{all, live} {
		if fp(restored, w) != fp(store, w) || !bytes.Equal(content(restored, w), content(store, w)) {
			t.Errorf("%s: restored store differs in fingerprint or content", w)
		}
	}
	// And it keeps tracking: the same record lands in both, both move alike.
	liveFP := fp(store, live)
	late := f.records[len(f.records)-1]
	for _, st := range []*Store{store, restored} {
		if _, err := st.add([]logfmt.Record{late}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if fp(store, live) == liveFP || fp(restored, live) != fp(store, live) {
		t.Error("after restore, equal ingest did not move the fingerprints alike")
	}
}

// Snapshot cuts, range reads and range series fan out over the shards
// while ingest runs on all of them. Whatever the interleaving, a range
// engine, and every window of a series, holds exactly the records its
// coverage reports; and a snapshot is a prefix of every shard's stream:
// its Records is the sum of the prefix lengths and its docs equal a
// serial fold of exactly those prefixes.
func TestCutAndRangeFanOutUnderIngest(t *testing.T) {
	f := corpus(t)
	const shards = 4
	store, err := NewStore(Config{Options: f.opt, Shards: shards, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)

	// Give every shard its own hour, so a snapshot's bucket layout reads
	// back how many records of each shard's stream it folded.
	base := time.Date(2011, 8, 2, 0, 0, 0, 0, time.UTC).Unix()
	recs := append([]logfmt.Record(nil), f.records[:8000]...)
	streams := make([][]logfmt.Record, shards)
	for i := range recs {
		sh := int(shardKey(&recs[i]) % shards)
		recs[i].Time = base + int64(sh)*3600 + int64(i%3600)
		streams[sh] = append(streams[sh], recs[i])
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	var snaps []*Snapshot
	wg.Add(1)
	go func() { // the cutter
		defer wg.Done()
		for {
			snap, err := store.Refresh()
			if err != nil {
				t.Error(err)
				return
			}
			if len(snaps) == 0 || snaps[len(snaps)-1].Seq != snap.Seq {
				snaps = append(snaps, snap)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for r := 0; r < 4; r++ { // the range readers, full and projected
		var mods []string
		if r%2 == 1 {
			mods = []string{"datasets"}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				an, cov, err := store.Range(timewin.Window{}, mods...)
				if err != nil {
					t.Error(err)
					return
				}
				if got := an.Dataset(core.DFull).Total; got != cov.Records {
					t.Errorf("range engine holds %d records, coverage says %d", got, cov.Records)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // the series reader: one window per shard's hour
		defer wg.Done()
		for {
			wins, err := store.rangeSeries(timewin.Window{}, 3600)
			if err != nil {
				t.Error(err)
				return
			}
			for _, rw := range wins {
				if got := rw.An.Dataset(core.DFull).Total; got != rw.Coverage.Records {
					t.Errorf("series window %s holds %d records, coverage says %d", rw.Window, got, rw.Coverage.Records)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < len(recs); i += 64 {
		if _, err := store.add(recs[i:min(i+64, len(recs))], nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	final, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if final.Records != uint64(len(recs)) {
		t.Fatalf("final snapshot holds %d records, want %d", final.Records, len(recs))
	}
	if snaps[len(snaps)-1].Seq != final.Seq {
		snaps = append(snaps, final)
	}

	t.Logf("%d snapshots cut during ingest", len(snaps))
	// Check a handful of snapshots spread over the run.
	stride := max(len(snaps)/6, 1)
	for k := 0; k < len(snaps); k += stride {
		snap := snaps[k]
		ref := core.NewAnalyzer(f.opt)
		var sum uint64
		for _, b := range snap.Timewin.Buckets {
			sh := (b.StartUnix - base) / 3600
			if sh < 0 || sh >= shards || b.Records > uint64(len(streams[sh])) {
				t.Fatalf("snapshot %d: bucket %+v is no prefix of a shard stream", snap.Seq, b)
			}
			for i := range streams[sh][:b.Records] {
				ref.Observe(&streams[sh][i])
			}
			sum += b.Records
		}
		if snap.Records != sum {
			t.Errorf("snapshot %d: Records = %d, shard prefixes sum to %d", snap.Seq, snap.Records, sum)
		}
		for _, id := range []string{"table1", "table4", "table8", "fig5", "fig7"} {
			got, err := render.Render(id, render.Context{An: snap.An, Gen: f.gen})
			if err != nil {
				t.Fatal(err)
			}
			want, err := render.Render(id, render.Context{An: ref, Gen: f.gen})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeDoc(t, got, "json"), encodeDoc(t, want, "json")) {
				t.Errorf("snapshot %d: %s differs from a serial fold of the same shard prefixes", snap.Seq, id)
			}
		}
	}
}
