package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/timewin"
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
// through a server and asserts the scrape covers every subsystem —
// HTTP, ingest, shard queues, snapshot/timewin, checkpoint, read path,
// runtime — in syntactically valid exposition format. The families
// table is the inventory: the scrape's # TYPE names must equal its
// keys, so a family cannot be added or dropped without listing it here
// (and in DESIGN.md §9).
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
	exported := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			exported[strings.Fields(rest)[0]] = true
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}

	// families maps each exported family to the series read from it
	// ("" = the family's own unlabeled sample) and whether that series
	// must be positive after the traffic above.
	families := map[string]struct {
		series   string
		positive bool
	}{
		"censord_ingest_records_total":               {"", true},
		"censord_ingest_malformed_total":             {"", false},
		"censord_ingest_bytes_total":                 {"", true},
		"censord_ingest_parse_seconds":               {"censord_ingest_parse_seconds_count", true},
		"censord_ingest_read_seconds":                {"censord_ingest_read_seconds_count", true},
		"censord_ingest_backpressure_seconds":        {"censord_ingest_backpressure_seconds_count", true},
		"censord_ingest_shed_total":                  {"", false},
		"censord_store_records_total":                {"", true},
		"censord_store_shards":                       {"", true},
		"censord_shard_queue_depth":                  {`censord_shard_queue_depth{shard="0"}`, false},
		"censord_snapshot_cuts_total":                {"", true},
		"censord_snapshot_skips_total":               {"", false},
		"censord_snapshot_build_seconds":             {"censord_snapshot_build_seconds_count", true},
		"censord_snapshot_seq":                       {"", true},
		"censord_range_merge_buckets_total":          {"", false},
		"censord_range_merge_seconds":                {"censord_range_merge_seconds_count", false},
		"censord_timewin_live_buckets":               {"", true},
		"censord_timewin_compactions_total":          {"", false},
		"censord_checkpoint_write_seconds":           {"censord_checkpoint_write_seconds_count", true},
		"censord_checkpoint_frames_encoded_total":    {"", true},
		"censord_checkpoint_frames_reused_total":     {"", false},
		"censord_checkpoint_generation":              {"", true},
		"censord_checkpoint_bytes":                   {"", true},
		"censord_checkpoint_restores_total":          {"", false},
		"censord_checkpoint_restore_fallbacks_total": {"", false},
		"censord_intern_strings_total":               {"", true},
		"censord_doccache_hits_total":                {"", false},
		"censord_doccache_misses_total":              {"", false},
		"censord_doccache_evictions_total":           {"", false},
		"censord_sync_wait_seconds":                  {"censord_sync_wait_seconds_count", false},
		"http_requests_total":                        {`http_requests_total{route="/v1/ingest",code="2xx"}`, true},
		"http_request_seconds":                       {`http_request_seconds_count{route="/v1/ingest"}`, true},
		"http_in_flight":                             {`http_in_flight{route="/metrics"}`, false},
		"go_goroutines":                              {"", true},
		"go_gomaxprocs":                              {"", true},
		"go_heap_alloc_bytes":                        {"", true},
		"go_heap_sys_bytes":                          {"", true},
		"go_heap_objects":                            {"", true},
		"go_gc_cycles_total":                         {"", false},
		"go_gc_pause_seconds_total":                  {"", false},
		"go_alloc_bytes_total":                       {"", true},
	}
	for fam, want := range families {
		if !exported[fam] {
			t.Errorf("family %s is not exported", fam)
			continue
		}
		series := want.series
		if series == "" {
			series = fam
		}
		if v := metricValue(t, text, series); want.positive && v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}
	for fam := range exported {
		if _, ok := families[fam]; !ok {
			t.Errorf("family %s is exported but not in the inventory", fam)
		}
	}
	metricValue(t, text, `censord_shard_queue_depth{shard="1"}`)

	if n := metricValue(t, text, "censord_ingest_records_total"); n != 5000 {
		t.Errorf("ingest_records_total = %v, want 5000", n)
	}
	if n := metricValue(t, text, "censord_store_records_total"); n != 5000 {
		t.Errorf("store_records_total = %v, want 5000", n)
	}
}

// TestMetricsMonotoneAcrossRestore is the warm-restart contract on
// /metrics: record totals and the checkpoint generation continue —
// never reset — across a checkpoint, shutdown and restore into a fresh
// store.
func TestMetricsMonotoneAcrossRestore(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	store1, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	store1.add(f.records[:4000], nil)
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
	store2.add(f.records[4000:5000], nil)
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
// (positive right after an ingest), and /v1/stats carries no copy of
// the registry: the metrics are exported once, at /metrics.
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
	rw := get(NewServer(store, f.gen), "/v1/stats")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &keys); err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	if _, ok := keys["obs"]; ok {
		t.Error(`/v1/stats carries an "obs" section`)
	}
	if _, ok := keys["build"]; !ok {
		t.Error(`/v1/stats lacks its "build" section`)
	}
}

// TestDisableObs: the uninstrumented store still works end to end (the
// benchmark baseline) — no registry, no /metrics route.
func TestDisableObs(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.reg != nil {
		t.Fatal("DisableObs store has a registry")
	}

	store.add(f.records[:1000], nil)
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	body := encodeCSV(t, f.records[1000:2000], false)
	if _, _, err := store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(body)), 0); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.IngestMBPerS <= 0 {
		t.Errorf("DisableObs ingest_mb_per_s = %v, want > 0 (the rate is fed per block either way)", st.IngestMBPerS)
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

// The range-merge and ingest-stage instruments are taken where the
// store runs the stage. A Range observes one merge per shard that
// covered something into range_merge_seconds and counts, in buckets,
// the sum of what they covered; a rangeSeries one merge per shard per
// covered window; an empty window neither. A traced block ingest
// observes one read and one parse per block and sums both onto its
// pipeline.blocks span. A snapshot cut names its path on its span.
func TestStageMetricsAtTheirCallSites(t *testing.T) {
	f := corpus(t)
	tr := trace.New(trace.Config{Slow: -1}) // keep every trace
	const shards = 4
	store, err := NewStore(Config{Options: f.opt, Shards: shards, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	body := encodeCSV(t, f.records[:6000], false)
	ctx := trace.NewContext(context.Background(), tr.Root("test.ingest"))
	reads0, parses0 := store.obsm.readSeconds.Count(), store.obsm.parseSeconds.Count()
	if _, _, err := store.ingestBlockSources([]*pipeline.BlockSource{{R: logfmt.NewBlockReaderSize(bytes.NewReader(body), 64<<10)}}, 2, trace.FromContext(ctx)); err != nil {
		t.Fatal(err)
	}
	trace.FromContext(ctx).End()
	reads, parses := store.obsm.readSeconds.Count()-reads0, store.obsm.parseSeconds.Count()-parses0
	if parses < 2 {
		t.Fatalf("ingest parsed %d blocks, want several", parses)
	}
	if reads != parses {
		t.Errorf("ingest_read_seconds_count moved %d, ingest_parse_seconds_count %d, want one of each per block", reads, parses)
	}

	// Which shard holds a bucket at which start, for the expected counts.
	// The op also runs behind every batch, so the ingest trace has ended.
	metas := make([]timewin.Meta, shards)
	if err := store.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
		metas[i] = p.Meta()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var pipe *trace.SpanNode
	for _, tc := range tr.Recorder().Snapshot(0, 0) {
		if root := tc.TreeView(); root != nil && root.Name == "test.ingest" {
			for _, c := range root.Children {
				if c.Name == "pipeline.blocks" {
					pipe = c
				}
			}
		}
	}
	if pipe == nil {
		t.Fatal("no pipeline.blocks span under the ingest trace")
	}
	for _, k := range []string{"read_s", "parse_s"} {
		if v, _ := pipe.Attrs[k].(float64); v <= 0 {
			t.Errorf("pipeline.blocks %s = %v, want > 0", k, pipe.Attrs[k])
		}
	}

	has := func(shard int, from, to int64) bool {
		for _, b := range metas[shard].Buckets {
			if b.StartUnix >= from && b.StartUnix < to {
				return true
			}
		}
		return false
	}
	merges := func() (n, buckets uint64) {
		return store.obsm.rangeMergeSeconds.Count(), store.obsm.rangeMergeBuckets.Value()
	}
	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	const hour = 3600
	from := snap.Timewin.Buckets[len(snap.Timewin.Buckets)/2].StartUnix
	w := timewin.Window{From: from, To: from + 6*hour}

	n0, b0 := merges()
	_, cov, err := store.Range(w)
	if err != nil {
		t.Fatal(err)
	}
	n1, b1 := merges()
	var covering uint64
	for i := 0; i < shards; i++ {
		if has(i, w.From, w.To) {
			covering++
		}
	}
	if covering == 0 || cov.Buckets == 0 {
		t.Fatalf("window %s covers nothing; pick one with data", w)
	}
	if n1-n0 != covering || b1-b0 != uint64(cov.Buckets) {
		t.Errorf("Range moved merges by %d and buckets by %d, want %d (covering shards) and %d (Coverage.Buckets)",
			n1-n0, b1-b0, covering, cov.Buckets)
	}

	wins, err := store.rangeSeries(w, 2*hour)
	if err != nil {
		t.Fatal(err)
	}
	n2, b2 := merges()
	var want uint64
	for i := 0; i < shards; i++ {
		for _, win := range wins {
			if has(i, win.Window.From, win.Window.To) {
				want++
			}
		}
	}
	if n2-n1 != want {
		t.Errorf("rangeSeries over %d windows moved merges by %d, want %d (one per shard per covered window)", len(wins), n2-n1, want)
	}

	empty := timewin.Window{From: from + 10*365*24*hour, To: from + 10*365*24*hour + 6*hour}
	if _, _, err := store.Range(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := store.rangeSeries(empty, 2*hour); err != nil {
		t.Fatal(err)
	}
	if n3, b3 := merges(); n3 != n2 || b3 != b2 {
		t.Errorf("empty-window reads moved merges %d→%d, buckets %d→%d", n2, n3, b2, b3)
	}

	// The snapshot.cut span says which path a cut took: the first cut
	// folded every segment, and one after 100 new records extends it by
	// replaying them.
	if _, err := store.add(f.records[:100], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	var cuts []string
	for _, tc := range tr.Recorder().Snapshot(0, 0) {
		for _, sp := range tc.Spans {
			if sp.Name == "snapshot.cut" {
				cuts = append(cuts, fmt.Sprintf("mode=%v replayed=%v", sp.Attrs["mode"], sp.Attrs["replayed"]))
			}
		}
	}
	slices.Sort(cuts)
	if want := []string{"mode=extend replayed=100", "mode=fold replayed=0"}; !slices.Equal(cuts, want) {
		t.Errorf("snapshot.cut spans %v, want %v", cuts, want)
	}
}
