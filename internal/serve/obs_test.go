package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"syriafilter/internal/logfmt"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts the value of the first sample line whose name
// (with optional label block) matches prefix exactly up to the space.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// sampleLine matches a Prometheus text-format sample: name, optional
// label block, one value (integer, float, scientific, +Inf or NaN).
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)

// TestMetricsEndpoint drives ingest, snapshot and checkpoint traffic
// through a server and asserts the scrape covers every subsystem the
// issue names — HTTP, ingest, shard queues, snapshot/timewin,
// checkpoint, runtime — in syntactically valid exposition format.
func TestMetricsEndpoint(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	body := encodeCSV(t, f.records[:5000], false)
	resp, err := http.Post(srv.URL+"/v1/ingest?refresh=1", "text/csv", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	if _, err := store.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, srv.URL)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}

	for series, positive := range map[string]bool{
		"censord_ingest_blocks_total":                        true,
		"censord_ingest_records_total":                       true,
		"censord_ingest_bytes_total":                         true,
		"censord_ingest_malformed_total":                     false,
		"censord_ingest_parse_seconds_count":                 true,
		"censord_ingest_backpressure_seconds_count":          true,
		"censord_store_records_total":                        true,
		"censord_store_shards":                               true,
		"censord_shard_queue_depth{shard=\"0\"}":             false,
		"censord_shard_queue_depth{shard=\"1\"}":             false,
		"censord_snapshot_cuts_total":                        true,
		"censord_snapshot_build_seconds_count":               true,
		"censord_snapshot_seq":                               true,
		"censord_timewin_live_buckets":                       true,
		"censord_timewin_compactions_total":                  false,
		"censord_checkpoint_writes_total":                    true,
		"censord_checkpoint_write_seconds_count":             true,
		"censord_checkpoint_frames_encoded_total":            true,
		"censord_checkpoint_frames_reused_total":             false,
		"censord_checkpoint_generation":                      true,
		"censord_checkpoint_bytes":                           true,
		"censord_intern_strings_total":                       true,
		"censord_sketch_hlls{module=\"users\"}":              false, // exact engine: present, zero
		`http_requests_total{route="/v1/ingest",code="2xx"}`: true,
		`http_request_seconds_count{route="/v1/ingest"}`:     true,
		`http_in_flight{route="/metrics"}`:                   false,
		"go_goroutines":                                      true,
		"go_heap_alloc_bytes":                                true,
		"go_gc_cycles_total":                                 false,
	} {
		v := metricValue(t, text, series)
		if positive && v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}

	if n := metricValue(t, text, "censord_ingest_records_total"); n != 5000 {
		t.Errorf("ingest_records_total = %v, want 5000", n)
	}
	if n := metricValue(t, text, "censord_store_records_total"); n != 5000 {
		t.Errorf("store_records_total = %v, want 5000", n)
	}
}

// TestMetricsMonotoneAcrossRestore is the warm-restart contract the
// smoke test scripts assert end to end: record totals and the
// checkpoint generation continue — never reset — across a checkpoint,
// shutdown and restore into a fresh store.
func TestMetricsMonotoneAcrossRestore(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	store1, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	store1.Add(f.records[:4000])
	if _, err := store1.CloseAndCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	store2, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if _, err := store2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	store2.Add(f.records[4000:5000])
	srv := httptest.NewServer(NewServer(store2, f.gen))
	defer srv.Close()

	text := scrape(t, srv.URL)
	if n := metricValue(t, text, "censord_store_records_total"); n != 5000 {
		t.Errorf("store_records_total after restore = %v, want 5000", n)
	}
	if g := metricValue(t, text, "censord_checkpoint_generation"); g != 1 {
		t.Errorf("checkpoint_generation after restore = %v, want 1", g)
	}
	if n := metricValue(t, text, "censord_checkpoint_restores_total"); n != 1 {
		t.Errorf("checkpoint_restores_total = %v, want 1", n)
	}

	// A new checkpoint continues the restored sequence.
	if _, err := store2.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	text = scrape(t, srv.URL)
	if g := metricValue(t, text, "censord_checkpoint_generation"); g != 2 {
		t.Errorf("checkpoint_generation after new checkpoint = %v, want 2", g)
	}
}

func TestReadyz(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	get := func(srv *httptest.Server) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// No readiness wired: always ready.
	plain := httptest.NewServer(NewServer(store, f.gen))
	if code, body := get(plain); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("unwired /readyz = %d %s", code, body)
	}
	plain.Close()

	ready := NewReadiness("restoring")
	srv := httptest.NewServer(NewServer(store, f.gen, WithReadiness(ready)))
	defer srv.Close()
	if code, body := get(srv); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"restoring"`) {
		t.Fatalf("restoring /readyz = %d %s", code, body)
	}
	ready.Set("loading")
	if code, body := get(srv); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"loading"`) {
		t.Fatalf("loading /readyz = %d %s", code, body)
	}
	ready.Set("ok")
	if code, body := get(srv); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("ready /readyz = %d %s", code, body)
	}
}

// TestStatsWindowedRateAndObs: ingest_mb_per_s reads the last ~10s
// (positive right after an ingest) and /v1/stats embeds the registry
// snapshot under "obs".
func TestStatsWindowedRateAndObs(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	body := encodeCSV(t, f.records[:2000], false)
	if _, _, err := store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(body)), 0); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.IngestMBPerS <= 0 {
		t.Errorf("ingest_mb_per_s = %v right after ingest, want > 0", st.IngestMBPerS)
	}
	if st.Obs == nil {
		t.Fatal("stats obs section missing")
	}
	if _, ok := st.Obs["censord_ingest_records_total"]; !ok {
		t.Error("obs section lacks censord_ingest_records_total")
	}
	if _, ok := st.Obs["go_goroutines"]; !ok {
		t.Error("obs section lacks go_goroutines")
	}
}

// TestDisableObs: the uninstrumented store still works end to end (the
// benchmark baseline) — no registry, no /metrics route, no obs section.
func TestDisableObs(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Registry() != nil {
		t.Fatal("DisableObs store has a registry")
	}

	store.Add(f.records[:1000])
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	body := encodeCSV(t, f.records[1000:2000], false)
	if _, _, err := store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(body)), 0); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Obs != nil {
		t.Error("DisableObs stats carries an obs section")
	}
	if st.IngestMBPerS <= 0 {
		t.Errorf("DisableObs ingest_mb_per_s = %v, want > 0 (per-call fallback)", st.IngestMBPerS)
	}

	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics on DisableObs store = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz on DisableObs store = %d", resp.StatusCode)
	}
}
