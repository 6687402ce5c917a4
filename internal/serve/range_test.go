package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

// rangeSeries is a series read outside a traced request. Unlike read,
// it refuses step 0, which would read w as one window.
func (st *Store) rangeSeries(w timewin.Window, step int64, modules ...string) ([]rangeWindow, error) {
	if step <= 0 {
		return nil, st.errStep()
	}
	return st.read(context.Background(), w, step, modules...)
}

// rangeStore boots a bucketed store over the shared fixture corpus,
// ingested through Add in corpus (time) order.
func rangeStore(t *testing.T, f *fixture, retain time.Duration) *Store {
	t.Helper()
	store, err := NewStore(Config{Options: f.opt, Shards: 4, Bucket: time.Hour, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	for i := 0; i < len(f.records); i += 512 {
		end := i + 512
		if end > len(f.records) {
			end = len(f.records)
		}
		store.add(f.records[i:end], nil)
	}
	return store
}

// The tentpole acceptance criterion: GET /v1/range/{id} over the full
// ingested window — open bounds or explicit bucket-aligned bounds — is
// byte-identical to the batch `censorlyzer -json` Doc for every
// experiment id.
func TestHTTPRangeMatchesBatchRun(t *testing.T) {
	f := corpus(t)
	store := rangeStore(t, f, 0)
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	// Hour-aligned bounds covering the whole Jul 22 – Aug 6 2011 capture.
	from := time.Date(2011, 7, 22, 0, 0, 0, 0, time.UTC).Unix()
	to := time.Date(2011, 8, 7, 0, 0, 0, 0, time.UTC).Unix()

	for _, id := range render.Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			doc, err := render.Render(id, render.Context{An: f.batch, Gen: f.gen})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			for _, query := range []string{"", fmt.Sprintf("?from=%d&to=%d", from, to)} {
				resp, err := http.Get(srv.URL + "/v1/range/" + id + query)
				if err != nil {
					t.Fatal(err)
				}
				body := new(bytes.Buffer)
				body.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Fatalf("%q: status %d: %.200s", query, resp.StatusCode, body.Bytes())
				}
				if !bytes.Equal(body.Bytes(), want) {
					t.Errorf("range%q differs from batch run\n got: %.300s\nwant: %.300s", query, body.Bytes(), want)
				}
				if query != "" && resp.Header.Get("X-Range-Records") != fmt.Sprint(len(f.records)) {
					t.Errorf("X-Range-Records = %s, want %d", resp.Header.Get("X-Range-Records"), len(f.records))
				}
			}
		})
	}
}

// filteredBatch is a batch engine fed only the fixture records in
// [from, to), and how many there were.
func filteredBatch(f *fixture, from, to int64) (*core.Analyzer, uint64) {
	an := core.NewAnalyzer(f.opt)
	var n uint64
	for i := range f.records {
		if ts := f.records[i].Time; ts >= from && ts < to {
			an.Observe(&f.records[i])
			n++
		}
	}
	return an, n
}

// docJSON renders one experiment as its JSON body, newline excluded.
func docJSON(t *testing.T, id string, an *core.Analyzer) []byte {
	t.Helper()
	doc, err := render.Render(id, render.Context{An: an})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A sub-range query equals a batch engine fed only the records the
// covered buckets hold, and bucket-edge records land deterministically;
// so does every window of a day-step series, and the series' windows
// tile the capture from its first hour to its last.
func TestRangeSubWindowMatchesFilteredBatch(t *testing.T) {
	f := corpus(t)
	store := rangeStore(t, f, 0)

	// Aug 3 06:00 – 12:00, hour-aligned: the paper's Table 5 window.
	win := timewin.Window{
		From: time.Date(2011, 8, 3, 6, 0, 0, 0, time.UTC).Unix(),
		To:   time.Date(2011, 8, 3, 12, 0, 0, 0, time.UTC).Unix(),
	}
	an, cov, err := store.Range(win)
	if err != nil {
		t.Fatal(err)
	}
	ref, n := filteredBatch(f, win.From, win.To)
	if n == 0 {
		t.Fatal("fixture corpus has no records in the Aug 3 morning window; timestamps are degenerate")
	}
	if cov.Records != n {
		t.Fatalf("coverage records = %d, want %d (bucket-aligned window must match the record predicate)", cov.Records, n)
	}
	if cov.FromUnix != win.From || cov.ToUnix != win.To {
		t.Errorf("coverage span [%d, %d), want the aligned [%d, %d)", cov.FromUnix, cov.ToUnix, win.From, win.To)
	}
	for _, id := range []string{"table1", "table4", "table8", "fig5"} {
		if gb, wb := docJSON(t, id, an), docJSON(t, id, ref); !bytes.Equal(gb, wb) {
			t.Errorf("%s over sub-window differs from filtered batch run\n got: %.300s\nwant: %.300s", id, gb, wb)
		}
	}

	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/range/table1?step=24h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var series struct {
		ID          string `json:"id"`
		StepSeconds int64  `json:"step_seconds"`
		Windows     []struct {
			FromUnix int64           `json:"from_unix"`
			ToUnix   int64           `json:"to_unix"`
			Records  uint64          `json:"records"`
			Doc      json.RawMessage `json:"doc"`
		} `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if series.ID != "table1" || series.StepSeconds != 86400 {
		t.Fatalf("series header = %q step %d", series.ID, series.StepSeconds)
	}
	first, last := f.records[0].Time, f.records[0].Time
	for i := range f.records {
		first, last = min(first, f.records[i].Time), max(last, f.records[i].Time)
	}
	next := first / 3600 * 3600
	for _, w := range series.Windows {
		if w.FromUnix != next || w.ToUnix-w.FromUnix > 86400 {
			t.Fatalf("series window [%d, %d), want one starting at %d and at most a day long", w.FromUnix, w.ToUnix, next)
		}
		ref, n := filteredBatch(f, w.FromUnix, w.ToUnix)
		if want := docJSON(t, "table1", ref); w.Records != n || !bytes.Equal(w.Doc, want) {
			t.Errorf("series window [%d, %d) of %d records differs from the filtered batch run of %d\n got: %.300s\nwant: %.300s",
				w.FromUnix, w.ToUnix, w.Records, n, w.Doc, want)
		}
		next = w.ToUnix
	}
	if want := last/3600*3600 + 3600; next != want {
		t.Errorf("series ends at %d, want %d (the end of the last record's hour)", next, want)
	}
}

// A series merges every shard at once into its windows' engines, in
// whatever order the shards reach them: one shared engine per window
// when there are at least as many windows as shards, ⌈shards ÷ windows⌉
// when there are fewer. That must not show: at every shard count, each
// window of a day-step series renders every experiment byte for byte as
// a single-window Store.Range over that window does, and covers the
// same buckets and records.
func TestRangeSeriesMatchesWindowReads(t *testing.T) {
	f := corpus(t)
	day := func(d int) int64 { return time.Date(2011, 8, d, 0, 0, 0, 0, time.UTC).Unix() }
	for _, tc := range []struct {
		name         string
		shards, days int
	}{
		{"shards=1", 1, 6},
		{"shards=2", 2, 6},
		{"shards=4", 4, 6},
		// Fewer windows than shards: two engines per window.
		{"shards=4,windows=2", 4, 2},
		{"shards=4,windows=3", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewStore(Config{Options: f.opt, Shards: tc.shards, Bucket: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(store.Close)
			for i := 0; i < len(f.records); i += 512 {
				if _, err := store.add(f.records[i:min(i+512, len(f.records))], nil); err != nil {
					t.Fatal(err)
				}
			}
			wins, err := store.rangeSeries(timewin.Window{From: day(1), To: day(1 + tc.days)}, 24*3600)
			if err != nil {
				t.Fatal(err)
			}
			if len(wins) != tc.days {
				t.Fatalf("series has %d windows, want %d", len(wins), tc.days)
			}
			for _, rw := range wins {
				an, cov, err := store.Range(rw.Window)
				if err != nil {
					t.Fatal(err)
				}
				if cov.Records == 0 {
					t.Fatalf("window %s covers no records; the fixture does not reach it", rw.Window)
				}
				if rw.Coverage != cov {
					t.Errorf("window %s: series coverage %+v, single read %+v", rw.Window, rw.Coverage, cov)
				}
				for _, id := range render.Order() {
					got, err := render.Render(id, render.Context{An: rw.An, Gen: f.gen})
					if err != nil {
						t.Fatal(err)
					}
					want, err := render.Render(id, render.Context{An: an, Gen: f.gen})
					if err != nil {
						t.Fatal(err)
					}
					if gb, wb := encodeDoc(t, got, "json"), encodeDoc(t, want, "json"); !bytes.Equal(gb, wb) {
						t.Errorf("window %s: %s differs from the single-window read\n got: %.300s\nwant: %.300s",
							rw.Window, id, gb, wb)
					}
				}
			}
		})
	}
}

// An unaligned `to` widens to the bucket edge; invalid steps and
// unknown ids fail cleanly.
func TestRangeSeriesEndpoint(t *testing.T) {
	f := corpus(t)
	store := rangeStore(t, f, 0)
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	// An unaligned explicit `to` is widened to the bucket edge, so the
	// last window's reported bounds cover every record its Doc merged.
	aug1 := time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	wins, err := store.rangeSeries(timewin.Window{From: aug1, To: aug1 + 24*3600 + 1800}, 24*3600)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wins); n != 2 {
		t.Fatalf("unaligned-to series has %d windows, want 2", n)
	}
	last := wins[len(wins)-1]
	if last.Window.To != aug1+25*3600 {
		t.Errorf("last window ends at %d, want the bucket-aligned %d", last.Window.To, aug1+25*3600)
	}
	if last.Coverage.Records > 0 && last.Coverage.ToUnix > last.Window.To {
		t.Errorf("coverage %+v exceeds the reported window end %d", last.Coverage, last.Window.To)
	}

	for path, status := range map[string]int{
		"/v1/range/table1?step=90m":                       400, // not a bucket multiple
		"/v1/range/table1?step=junk":                      400,
		"/v1/range/table1?from=9&to=3":                    400,
		"/v1/range/table1?from=yesterday":                 400,
		"/v1/range/nope":                                  404,
		"/v1/range/table1?step=1h&from=1&to=999999999999": 400, // window explosion
		// Bounds whose difference, alignment or window walk leaves int64:
		// a window count that wraps slips under the cap, and the walk then
		// builds an engine per step while holding the store lock.
		"/v1/range/table1?from=-9000000000000000000&to=9000000000000000000&step=1h":               400,
		"/v1/range/table1?from=-9000000000000000000&step=1h":                                      400,
		"/v1/range/table1?to=9000000000000000000&step=1h":                                         400,
		fmt.Sprintf("/v1/range/table1?from=%d&to=%d&step=1h", math.MinInt64, math.MaxInt64):       400,
		fmt.Sprintf("/v1/range/table1?from=%d&step=24h", math.MinInt64):                           400,
		fmt.Sprintf("/v1/range/table1?to=%d&step=24h", math.MaxInt64):                             400,
		fmt.Sprintf("/v1/range/table1?from=%d&to=%d&step=24h", math.MaxInt64-7200, math.MaxInt64): 400,
	} {
		// Each is refused on its parameters alone; a second is generous.
		client := &http.Client{Timeout: time.Second}
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, status)
		}
	}
}

// An explicit step that is not positive is refused like any other step
// off the bucket grid, never read as a one-window series, and refused
// before any shard merges.
func TestRangeNonPositiveStep(t *testing.T) {
	f := corpus(t)
	store := rangeStore(t, f, 0)
	var merges atomic.Int64
	store.rangeStall = func(int) { merges.Add(1) }
	srv := NewServer(store, f.gen)
	for _, step := range []string{"0", "-3600", "-1h"} {
		rw := get(srv, "/v1/range/table1?from=2011-08-01&to=2011-08-03&step="+step)
		if body := rw.Body.String(); rw.Code != http.StatusBadRequest || !strings.Contains(body, "step must be a positive multiple of the bucket width") {
			t.Errorf("step=%s: status %d body %.200s; want 400 naming the step", step, rw.Code, body)
		}
	}
	if n := merges.Load(); n != 0 {
		t.Errorf("refused steps ran %d shard merges", n)
	}
}

// Retention compaction must bound the live ring while keeping the
// all-time snapshot and the full-range query exact; sub-ranges inside
// the compacted tail answer 422.
func TestRetentionCompactionPreservesAllTime(t *testing.T) {
	f := corpus(t)
	store := rangeStore(t, f, 24*time.Hour) // capture spans ~16 days
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	meta := snap.Timewin
	if meta.TailRecords == 0 {
		t.Fatal("24h retention over a 16-day corpus compacted nothing")
	}
	// Each shard keeps at most 24 hourly buckets; shard horizons can
	// differ by a few buckets mid-stream, but the aggregated ring must
	// stay near the horizon, far below the ~380 buckets of the corpus.
	if len(meta.Buckets) > 24+store.Stats().Shards {
		t.Errorf("aggregated live buckets = %d, want <= retention horizon (24) + shard slack", len(meta.Buckets))
	}
	var live uint64
	for _, b := range meta.Buckets {
		live += b.Records
	}
	if live+meta.TailRecords != uint64(len(f.records)) {
		t.Errorf("live %d + tail %d != corpus %d", live, meta.TailRecords, len(f.records))
	}

	// All-time snapshot and full-range query both stay byte-exact.
	for path, id := range map[string]string{
		"/v1/experiments/table4": "table4",
		"/v1/range/table4":       "table4",
		"/v1/range/fig5":         "fig5",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		doc, err := render.Render(id, render.Context{An: f.batch, Gen: f.gen})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(doc)
		want = append(want, '\n')
		if !bytes.Equal(body.Bytes(), want) {
			t.Errorf("%s differs from batch run after compaction", path)
		}
	}

	// A range beginning inside the tail cannot be answered exactly: a
	// window overlapping the compacted span without covering it.
	resp, err := http.Get(srv.URL + fmt.Sprintf("/v1/range/table1?from=%d&to=%d",
		meta.TailFromUnix, meta.TailFromUnix+6*3600))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("range inside the tail: status %d (%.200s), want 422", resp.StatusCode, body.Bytes())
	}

	// A range within the retained window still answers exactly.
	horizon := meta.Buckets[0].StartUnix
	an, cov, err := store.Range(timewin.Window{From: horizon, To: horizon + 6*3600})
	if err != nil {
		t.Fatal(err)
	}
	ref, n := filteredBatch(f, horizon, horizon+6*3600)
	if cov.Records != n || cov.Tail {
		t.Fatalf("retained-window coverage = %+v, want %d live records and no tail", cov, n)
	}
	if !bytes.Equal(docJSON(t, "table1", an), docJSON(t, "table1", ref)) {
		t.Errorf("retained-window range differs from filtered batch run")
	}
}

// The stats endpoint reports ingest throughput and the bucket layout.
func TestStatsReportsBytesAndBuckets(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	body := encodeCSV(t, f.records[:4000], false)
	added, _, err := store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(body)), 2)
	if err != nil || added != 4000 {
		t.Fatalf("ingest: %d records, err %v", added, err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.IngestedBytes != uint64(len(body)) {
		t.Errorf("IngestedBytes = %d, want the %d posted bytes", st.IngestedBytes, len(body))
	}
	if st.IngestMBPerS <= 0 {
		t.Errorf("IngestMBPerS = %v, want > 0 after a block ingest", st.IngestMBPerS)
	}
	if st.Timewin.BucketSeconds != 3600 || len(st.Timewin.Buckets) == 0 {
		t.Errorf("Timewin meta missing: %+v", st.Timewin)
	}
	var n uint64
	for _, b := range st.Timewin.Buckets {
		n += b.Records
	}
	if n != 4000 {
		t.Errorf("bucket records sum to %d, want 4000", n)
	}
}
