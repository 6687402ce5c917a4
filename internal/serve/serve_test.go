package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
)

type fixture struct {
	gen     *synth.Generator
	records []logfmt.Record
	batch   *core.Analyzer // reference: one batch run over records
	opt     core.Options
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func corpus(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		gen, err := synth.New(synth.Config{Seed: 23, TotalRequests: 20000})
		if err != nil {
			return
		}
		opt := core.Options{
			Categories: gen.CategoryDB(),
			Consensus:  gen.Consensus(),
			TitleDB:    bittorrent.NewTitleDB(),
		}
		an := core.NewAnalyzer(opt)
		var recs []logfmt.Record
		proxysim.Emit(gen, func(rec *logfmt.Record) {
			an.Observe(rec)
			recs = append(recs, *rec)
		})
		fix = &fixture{gen: gen, records: recs, batch: an, opt: opt}
	})
	if fix == nil {
		t.Fatal("fixture failed to build")
	}
	return fix
}

// encodeCSV renders records in the on-the-wire log format.
func encodeCSV(t testing.TB, recs []logfmt.Record, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w *logfmt.Writer
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(&buf)
		w = logfmt.NewWriter(zw)
	} else {
		w = logfmt.NewWriter(&buf)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The acceptance criterion: for every experiment id, a censord snapshot
// queried over HTTP returns byte-for-byte the same JSON as a batch core
// run over the same input.
func TestHTTPSnapshotMatchesBatchRun(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	// Ingest over HTTP in two batches: plain CSV and gzipped CSV.
	half := len(f.records) / 2
	post := func(body []byte, gz bool) map[string]any {
		req, err := http.NewRequest("POST", srv.URL+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		out := map[string]any{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	r1 := post(encodeCSV(t, f.records[:half], false), false)
	// Gzip body without a Content-Encoding header: detected by magic.
	r2 := post(encodeCSV(t, f.records[half:], true), false)
	if got := r1["added"].(float64) + r2["added"].(float64); int(got) != len(f.records) {
		t.Fatalf("ingested %v records, want %d", got, len(f.records))
	}

	// Build the consistent read view.
	resp, err := http.Post(srv.URL+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, id := range render.Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			resp, err := http.Get(srv.URL + "/v1/experiments/" + id)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var got bytes.Buffer
			if _, err := got.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			doc, err := render.Render(id, render.Context{An: f.batch, Gen: f.gen})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("HTTP snapshot differs from batch run\n got: %.400s\nwant: %.400s", got.Bytes(), want)
			}
		})
	}

	// Numeric aliases and text format.
	for path, frag := range map[string]string{
		"/v1/tables/4?format=text":  "Table 4",
		"/v1/figures/8?format=text": "Tor requests",
		"/v1/tables/table12":        `"table12"`,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), frag) {
			t.Errorf("%s: status %d, body %.120s", path, resp.StatusCode, body)
		}
	}

	// Wrong-kind and unknown ids 404; generator-free contexts 422 is
	// covered in render tests.
	for _, path := range []string{"/v1/tables/fig8", "/v1/figures/table4", "/v1/experiments/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// Concurrent ingest and query must be race-free (run under -race) and
// lose nothing: after quiescing, the snapshot covers every record.
func TestConcurrentIngestAndQuery(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4, SnapshotEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	server := NewServer(store, f.gen)

	const writers = 4
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})

	// Writers: partition the corpus and Add it batch by batch.
	per := len(f.records) / writers
	for wi := 0; wi < writers; wi++ {
		part := f.records[wi*per : (wi+1)*per]
		wgW.Add(1)
		go func(part []logfmt.Record) {
			defer wgW.Done()
			for len(part) > 0 {
				n := 512
				if n > len(part) {
					n = len(part)
				}
				store.add(part[:n], nil)
				part = part[n:]
			}
		}(part)
	}

	// Readers: hammer query endpoints while ingestion runs.
	readerErrs := make(chan string, 64)
	for ri := 0; ri < 4; ri++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			// table8 is load-bearing: keyword/domain discovery reads the
			// capped censored-URL store, whose canonical view must be
			// computed without mutating the shared snapshot (two readers
			// rendering it concurrently pin that, under -race).
			paths := []string{"/healthz", "/v1/stats", "/v1/tables/1", "/v1/tables/8", "/v1/tables/8", "/v1/figures/5", "/v1/experiments/https"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
				rw := httptest.NewRecorder()
				server.ServeHTTP(rw, req)
				if rw.Code != 200 {
					select {
					case readerErrs <- fmt.Sprintf("%s: status %d", paths[i%len(paths)], rw.Code):
					default:
					}
					return
				}
			}
		}()
	}

	wgW.Wait()
	close(stop)
	wgR.Wait()
	select {
	case msg := <-readerErrs:
		t.Fatal(msg)
	default:
	}

	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Records != uint64(writers*per) {
		t.Errorf("final snapshot covers %d records, want %d", snap.Records, writers*per)
	}

	// The quiesced snapshot equals a batch run over the same records.
	batch := core.NewAnalyzer(f.opt)
	for i := 0; i < writers*per; i++ {
		batch.Observe(&f.records[i])
	}
	got, err := render.Render("table1", render.Context{An: snap.An})
	if err != nil {
		t.Fatal(err)
	}
	want, err := render.Render("table1", render.Context{An: batch})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("concurrent ingest result differs from batch run\n got: %s\nwant: %s", gb, wb)
	}
}

// Closing the store keeps the last snapshot readable and turns Add into
// a no-op.
func TestStoreClose(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	store.add(f.records[:1000], nil)
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	store.Close() // idempotent
	if n, err := store.add(f.records[:100], nil); err == nil || n != 0 {
		t.Errorf("Add after Close accepted %d records (err %v)", n, err)
	}
	if snap := store.Current(); snap.Records != 1000 {
		t.Errorf("snapshot after Close has %d records, want 1000", snap.Records)
	}
	if _, err := store.Refresh(); err != nil {
		t.Error("Refresh after Close should be a no-op, not an error")
	}
}
