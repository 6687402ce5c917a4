package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"syriafilter/internal/render"
)

func newCkptStore(t *testing.T, f *fixture, shards int) *Store {
	t.Helper()
	store, err := NewStore(Config{Options: f.opt, Shards: shards, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func fillStore(t *testing.T, store *Store, f *fixture) {
	t.Helper()
	got, err := store.add(f.records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != uint64(len(f.records)) {
		t.Fatalf("Add accepted %d of %d records", got, len(f.records))
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// getBody fetches one URL and returns status + body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// The tentpole invariant at the HTTP layer: a restored store serves
// byte-identical documents for every experiment id — snapshot
// endpoints, the all-time range merge, and a windowed range.
func TestCheckpointRestoreHTTPByteIdentical(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	orig := newCkptStore(t, f, 4)
	fillStore(t, orig, f)
	info, err := orig.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != uint64(len(f.records)) {
		t.Errorf("checkpoint covers %d records, want %d", info.Records, len(f.records))
	}
	if info.Bytes <= 0 {
		t.Error("checkpoint reports no bytes")
	}

	restored := newCkptStore(t, f, 4)
	defer restored.Close()
	rinfo, err := restored.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Records != info.Records {
		t.Errorf("restore reports %d records, want %d", rinfo.Records, info.Records)
	}
	if _, err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}

	srvA := httptest.NewServer(NewServer(orig, f.gen))
	defer srvA.Close()
	srvB := httptest.NewServer(NewServer(restored, f.gen))
	defer srvB.Close()

	for _, id := range render.Order() {
		for _, path := range []string{
			"/v1/experiments/" + id,
			"/v1/range/" + id,
			"/v1/range/" + id + "?from=2011-08-02&to=2011-08-05",
		} {
			sa, ba := getBody(t, srvA.URL+path)
			sb, bb := getBody(t, srvB.URL+path)
			if sa != sb {
				t.Errorf("%s: status %d vs %d", path, sa, sb)
				continue
			}
			if ba != bb {
				t.Errorf("%s: restored body differs from original (%d vs %d bytes)", path, len(bb), len(ba))
			}
		}
	}
	orig.Close()
}

// A checkpoint taken with one shard count restores into stores with
// different shard counts, still byte-identical.
func TestCheckpointRestoreAcrossShardCounts(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	orig := newCkptStore(t, f, 4)
	fillStore(t, orig, f)
	if _, err := orig.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(NewServer(orig, f.gen))
	defer srvA.Close()
	_, wantTable4 := getBody(t, srvA.URL+"/v1/experiments/table4")
	_, wantFig5 := getBody(t, srvA.URL+"/v1/range/fig5")

	for _, shards := range []int{1, 3, 7} {
		restored := newCkptStore(t, f, shards)
		if _, err := restored.Restore(dir); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if _, err := restored.Refresh(); err != nil {
			t.Fatal(err)
		}
		srvB := httptest.NewServer(NewServer(restored, f.gen))
		if _, got := getBody(t, srvB.URL+"/v1/experiments/table4"); got != wantTable4 {
			t.Errorf("shards=%d: table4 differs after restore", shards)
		}
		if _, got := getBody(t, srvB.URL+"/v1/range/fig5"); got != wantFig5 {
			t.Errorf("shards=%d: fig5 range differs after restore", shards)
		}
		srvB.Close()
		restored.Close()
	}
	orig.Close()
}

// A restored store keeps ingesting: checkpoint half the corpus, restore,
// add the other half — identical to one store that saw everything.
func TestCheckpointIncrementalIngest(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()
	half := len(f.records) / 2

	first := newCkptStore(t, f, 3)
	first.add(f.records[:half], nil)
	if _, err := first.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	first.Close()

	resumed := newCkptStore(t, f, 3)
	defer resumed.Close()
	if _, err := resumed.Restore(dir); err != nil {
		t.Fatal(err)
	}
	resumed.add(f.records[half:], nil)
	if _, err := resumed.Refresh(); err != nil {
		t.Fatal(err)
	}

	full := newCkptStore(t, f, 3)
	defer full.Close()
	fillStore(t, full, f)

	srvA := httptest.NewServer(NewServer(resumed, f.gen))
	defer srvA.Close()
	srvB := httptest.NewServer(NewServer(full, f.gen))
	defer srvB.Close()
	for _, id := range []string{"table1", "table4", "fig5", "fig8", "https"} {
		_, got := getBody(t, srvA.URL+"/v1/experiments/"+id)
		_, want := getBody(t, srvB.URL+"/v1/experiments/"+id)
		if got != want {
			t.Errorf("%s: resumed store differs from all-at-once store", id)
		}
	}
	if got, want := resumed.Stats().Ingested, full.Stats().Ingested; got != want {
		t.Errorf("ingested counter: got %d, want %d", got, want)
	}
}

// CloseAndCheckpoint must flush every acked batch before cutting the
// final checkpoint: nothing Add acknowledged may be missing after
// restore.
func TestCloseAndCheckpointFlushes(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	store := newCkptStore(t, f, 4)
	// Many small batches so some are still queued when close begins.
	for i := 0; i+100 <= len(f.records); i += 100 {
		store.add(f.records[i:i+100], nil)
	}
	acked := uint64(len(f.records) / 100 * 100)
	info, err := store.CloseAndCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != acked {
		t.Fatalf("final checkpoint has %d records, acked %d", info.Records, acked)
	}

	restored := newCkptStore(t, f, 4)
	defer restored.Close()
	rinfo, err := restored.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Records != acked {
		t.Errorf("restored %d records, want %d", rinfo.Records, acked)
	}
	if _, err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := restored.Current().Records; got != acked {
		t.Errorf("snapshot after restore has %d records, want %d", got, acked)
	}

	// A second close is a no-op and a checkpoint after close fails.
	store.Close()
	if _, err := store.Checkpoint(dir); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after close: %v, want ErrClosed", err)
	}
	if _, err := store.CloseAndCheckpoint(dir); !errors.Is(err, ErrClosed) {
		t.Errorf("CloseAndCheckpoint after close: %v, want ErrClosed", err)
	}
}

// Restore into a closed store is refused as closed, not walked as if
// every generation were corrupt: nothing counts as a fallback.
func TestRestoreClosedStore(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()
	store := newCkptStore(t, f, 2)
	store.add(f.records[:1000], nil)
	if _, err := store.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	store.add(f.records[1000:2000], nil)
	if _, err := store.CloseAndCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	closed := newCkptStore(t, f, 2)
	closed.Close()
	if _, err := closed.Restore(dir); !errors.Is(err, ErrClosed) {
		t.Errorf("Restore into a closed store: %v, want ErrClosed", err)
	}
	if n := closed.obsm.restoreFallbacks.Value(); n != 0 {
		t.Errorf("restore_fallbacks_total = %d, want 0", n)
	}
}

// Corrupted or truncated checkpoints fail cleanly: Restore reports an
// error and the store remains usable and empty (the cold-boot path).
func TestRestoreCorruptCheckpoint(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	orig := newCkptStore(t, f, 2)
	fillStore(t, orig, f)
	if _, err := orig.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	orig.Close()

	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	shardFile := filepath.Join(dir, m.Generation, shardFileName(1))
	good, err := os.ReadFile(shardFile)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		store := newCkptStore(t, f, 2)
		defer store.Close()
		if _, err := store.Restore(dir); err == nil {
			t.Errorf("%s: Restore succeeded on a damaged checkpoint", name)
		}
		// Cold boot fallback: the store still works.
		if got, err := store.add(f.records[:100], nil); err != nil || got != 100 {
			t.Errorf("%s: store unusable after failed restore (added %d, err %v)", name, got, err)
		}
		if _, err := store.Refresh(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := store.Current().Records; got != 100 {
			t.Errorf("%s: store holds %d records after failed restore + cold ingest, want 100", name, got)
		}
	}

	check("truncated shard file", func() error { return os.WriteFile(shardFile, good[:len(good)/3], 0o644) })
	check("garbage shard file", func() error { return os.WriteFile(shardFile, []byte("not a gzip"), 0o644) })
	check("missing shard file", func() error { return os.Remove(shardFile) })

	// No manifest at all is the distinguishable "nothing to restore".
	empty := t.TempDir()
	store := newCkptStore(t, f, 2)
	defer store.Close()
	if _, err := store.Restore(empty); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Restore of empty dir: %v, want ErrNoCheckpoint", err)
	}
}

// The manifest names only complete generations: a crash that leaves a
// half-written .tmp generation behind is invisible to Restore, and
// successive checkpoints prune old generations.
func TestCheckpointGenerations(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	store := newCkptStore(t, f, 2)
	defer store.Close()
	store.add(f.records[:1000], nil)
	first, err := store.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.add(f.records[1000:2000], nil)
	second, err := store.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation == second.Generation {
		t.Fatalf("generations did not advance: %s", first.Generation)
	}
	// The previous generation is retained as a restore fallback...
	if _, err := os.Stat(filepath.Join(dir, first.Generation)); err != nil {
		t.Errorf("previous generation %s not retained for fallback: %v", first.Generation, err)
	}
	// ...but only the newest keepGens survive the next checkpoint.
	store.add(f.records[2000:3000], nil)
	third, err := store.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, first.Generation)); !os.IsNotExist(err) {
		t.Errorf("generation %s not pruned after falling out of the keep window", first.Generation)
	}
	if _, err := os.Stat(filepath.Join(dir, second.Generation)); err != nil {
		t.Errorf("generation %s pruned too eagerly: %v", second.Generation, err)
	}

	// Simulate a crash mid-checkpoint: a stray .tmp generation.
	tmpGen := filepath.Join(dir, "gen-99999999.tmp")
	if err := os.MkdirAll(tmpGen, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmpGen, shardFileName(0)), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored := newCkptStore(t, f, 2)
	defer restored.Close()
	info, err := restored.Restore(dir)
	if err != nil {
		t.Fatalf("restore with stray tmp generation: %v", err)
	}
	if info.Generation != third.Generation {
		t.Errorf("restored %s, want %s", info.Generation, third.Generation)
	}
	if info.Records != 3000 {
		t.Errorf("restored %d records, want 3000", info.Records)
	}
}

// Stats surfaces the checkpoint alongside uptime and snapshot age.
func TestStatsCheckpointFields(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()

	store := newCkptStore(t, f, 2)
	defer store.Close()
	if got := store.Stats().CheckpointAgeS; got != -1 {
		t.Errorf("checkpoint_age_s before any checkpoint = %d, want -1", got)
	}
	store.add(f.records[:500], nil)
	info, err := store.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := store.Stats()
	if s.CheckpointAgeS < 0 || s.CheckpointAgeS > 60 {
		t.Errorf("checkpoint_age_s = %d", s.CheckpointAgeS)
	}
	if s.CheckpointBytes != info.Bytes || s.CheckpointGeneration != info.Generation {
		t.Errorf("stats checkpoint fields %d/%q, want %d/%q", s.CheckpointBytes, s.CheckpointGeneration, info.Bytes, info.Generation)
	}
	if s.UptimeS < 0 || s.SnapshotAgeS < 0 {
		t.Errorf("uptime_s=%d snapshot_age_s=%d", s.UptimeS, s.SnapshotAgeS)
	}

	// The HTTP surface exposes all three.
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()
	_, body := getBody(t, srv.URL+"/v1/stats")
	for _, field := range []string{`"uptime_s"`, `"snapshot_age_s"`, `"checkpoint_age_s"`, `"checkpoint_generation"`} {
		if !strings.Contains(body, field) {
			t.Errorf("/v1/stats missing %s: %s", field, body)
		}
	}
}

// POST /v1/checkpoint in process: 501 without WithCheckpoint, 200 with
// the CheckpointInfo a real checkpoint wrote, 503 with Retry-After when
// the store is closed, and 500 naming any other failure.
func TestCheckpointEndpoint(t *testing.T) {
	f := corpus(t)
	store := newCkptStore(t, f, 2)
	defer store.Close()
	fillStore(t, store, f)
	closed := newCkptStore(t, f, 2)
	closed.Close()
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	post := func(opts ...ServerOption) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		NewServer(store, f.gen, opts...).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/checkpoint", nil))
		return rec
	}
	into := func(st *Store, dir string) ServerOption {
		return WithCheckpoint(func(ctx context.Context) (CheckpointInfo, error) { return st.CheckpointCtx(ctx, dir) })
	}

	if rec := post(); rec.Code != http.StatusNotImplemented {
		t.Errorf("without WithCheckpoint: status %d, want 501", rec.Code)
	}

	rec := post(into(store, dir))
	var got CheckpointInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("checkpoint: status %d body %s (%v), want 200", rec.Code, rec.Body, err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != m.CheckpointInfo || got.Records != uint64(len(f.records)) {
		t.Errorf("answered %+v, the manifest holds %+v over %d records", got, m.CheckpointInfo, len(f.records))
	}

	rec = post(into(closed, t.TempDir()))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("closed store: status %d, Retry-After %q, want 503 with one", rec.Code, rec.Header().Get("Retry-After"))
	}

	rec = post(into(store, notDir))
	if body := rec.Body.String(); rec.Code != http.StatusInternalServerError || !strings.Contains(body, "not a directory") {
		t.Errorf("checkpoint under a file: status %d body %s, want 500 naming the error", rec.Code, body)
	}
}
