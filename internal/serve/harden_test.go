package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/timewin"
)

// A single stalled shard must not hang every ingest path: Add sheds
// with ErrOverloaded once the deadline passes, the shed is counted,
// and unrelated shards and handlers keep working.
func TestAddShedsOnStalledShard(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, AddTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	// Split the fixture by destination shard so batches can target the
	// stalled shard and the healthy one independently.
	var toStalled, toHealthy []logfmt.Record
	for i := range f.records {
		if shardKey(&f.records[i])%2 == 0 {
			toStalled = append(toStalled, f.records[i])
		} else {
			toHealthy = append(toHealthy, f.records[i])
		}
	}
	if len(toStalled) < 10 || len(toHealthy) < 10 {
		t.Fatalf("fixture too skewed: %d/%d records per shard", len(toStalled), len(toHealthy))
	}

	// Stall shard 0: park its goroutine on a blocking op, then fill its
	// queue so every further send must block.
	release := make(chan struct{})
	stallDone := make(chan struct{})
	store.shards[0].msgs <- shardMsg{done: stallDone,
		op: func(p *timewin.Partition) { <-release }}
	for i := 0; i < shardQueue; i++ {
		store.shards[0].msgs <- shardMsg{}
	}
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	start := time.Now()
	added, err := store.add(toStalled[:10], nil)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("Add blocked %v on a stalled shard, want ~the 100ms deadline", waited)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Add on stalled shard: added=%d err=%v, want ErrOverloaded", added, err)
	}
	if got := store.obsm.shed.Value(); got != 1 {
		t.Errorf("censord_ingest_shed_total = %d, want 1", got)
	}

	// The healthy shard is untouched by the stall.
	healthyAdded, err := store.add(toHealthy[:10], nil)
	if err != nil || healthyAdded != 10 {
		t.Errorf("Add to healthy shard: added=%d err=%v, want 10, nil", healthyAdded, err)
	}

	// And so are unrelated handlers: liveness answers while shard 0 is
	// wedged, and ingest over HTTP sheds with 429 + Retry-After instead
	// of hanging the connection.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET /healthz during shard stall: %d, want 200", resp.StatusCode)
	}

	// The POST carries records for both shards, so the worker that sheds
	// on the stalled one still holds a pending batch for the healthy one.
	posted := append(append([]logfmt.Record(nil), toStalled[10:20]...), toHealthy[10:20]...)
	resp, err = http.Post(srv.URL+"/v1/ingest", "text/csv",
		bytes.NewReader(encodeCSV(t, posted, false)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest to stalled store: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var shed struct {
		Added *uint64 `json:"added"`
	}
	if err := json.Unmarshal(body, &shed); err != nil || shed.Added == nil {
		t.Fatalf("429 body %s does not report the accepted-record count (%v)", body, err)
	}
	if got := store.obsm.shed.Value(); got != 2 {
		t.Errorf("censord_ingest_shed_total after HTTP shed = %d, want 2", got)
	}

	// Release the stall and drain: what the store folded is exactly what
	// the three calls reported added — a dropped pending batch is never
	// counted — and that is what censord_store_records_total reports.
	// censord_ingest_records_total counts records parsed, the dropped
	// ones included, so it is the wrong counter to reconcile against.
	close(release)
	released = true
	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	sum := added + healthyAdded + *shed.Added
	text := scrape(t, srv.URL)
	if got := metricValue(t, text, "censord_store_records_total"); got != float64(sum) {
		t.Errorf("censord_store_records_total = %v, want the %d records the calls reported added", got, sum)
	}
	if snap.Records != sum {
		t.Errorf("Refresh folded %d records, want the %d records the calls reported added", snap.Records, sum)
	}
	if got := metricValue(t, text, "censord_ingest_records_total"); got != float64(len(posted)) || got <= float64(sum) {
		t.Errorf("censord_ingest_records_total = %v, want the %d records parsed, more than the %d folded",
			got, len(posted), sum)
	}
}

// The ingest body cap: a server answers 413 naming the cap to a body
// one byte over MaxIngestBody (64 MiB), and under a smaller cap one
// byte over still answers 413 while a body under it is ingested.
func TestIngestBodyCap(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// MaxIngestBody+1 bytes of 1 KiB junk lines, streamed so the test
	// never holds 64 MiB.
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		line := append(bytes.Repeat([]byte("x"), 1023), '\n')
		for n := int64(0); n <= MaxIngestBody; n += int64(len(line)) {
			if _, err := pw.Write(line); err != nil {
				return
			}
		}
		pw.Close()
	}()
	rw := httptest.NewRecorder()
	NewServer(store, f.gen).ServeHTTP(rw, httptest.NewRequest("POST", "/v1/ingest", pr))
	pr.Close() // the writer's next Write fails, and it returns
	<-wrote
	if rw.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rw.Body.String(), "67108864") {
		t.Fatalf("body over MaxIngestBody: status %d body %s, want 413 naming 67108864", rw.Code, rw.Body.String())
	}

	capped := NewServer(store, f.gen)
	capped.maxBody = 512
	srv := httptest.NewServer(capped)
	defer srv.Close()

	big := encodeCSV(t, f.records[:100], false) // far over 512 bytes
	resp, err := http.Post(srv.URL+"/v1/ingest", "text/csv", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d body %s, want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "512") {
		t.Errorf("413 body %s does not name the cap", body)
	}

	small := encodeCSV(t, f.records[:1], false)
	if len(small) > 512 {
		t.Fatalf("fixture record encodes to %d bytes, cannot test under-cap path", len(small))
	}
	resp, err = http.Post(srv.URL+"/v1/ingest", "text/csv", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("under-cap ingest: status %d, want 200", resp.StatusCode)
	}
}

// While the daemon reports any non-ok readiness state (draining at
// SIGTERM, restoring/loading during boot), the state-observing routes
// answer 503 + Retry-After instead of serving half-built views;
// liveness stays 200.
func TestGateServingWhileNotReady(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fillStore(t, store, f)
	// Records after the last cut: any cut a gated route let through would
	// move Seq.
	if _, err := store.add(f.records[:100], nil); err != nil {
		t.Fatal(err)
	}
	seq, ingested := store.Current().Seq, store.Stats().Ingested

	ready := NewReadiness("draining")
	srv := httptest.NewServer(NewServer(store, f.gen,
		WithReadiness(ready),
		WithCheckpoint(func(context.Context) (CheckpointInfo, error) { return CheckpointInfo{}, nil })))
	defer srv.Close()

	gated := []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/v1/snapshot", nil},
		{"POST", "/v1/checkpoint", nil},
		{"GET", "/v1/range/table4?from=2011-07-01&to=2011-09-01", nil},
		{"GET", "/v1/experiments/table4?fresh=1", nil},
		{"POST", "/v1/ingest?refresh=1", encodeCSV(t, f.records[:50], false)},
	}
	for _, g := range gated {
		req, err := http.NewRequest(g.method, srv.URL+g.path, bytes.NewReader(g.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: status %d body %s, want 503", g.method, g.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s while draining: missing Retry-After", g.method, g.path)
		}
		if !strings.Contains(string(body), "draining") {
			t.Errorf("%s %s while draining: body %s does not name the state", g.method, g.path, body)
		}
		if got := store.Current().Seq; got != seq {
			t.Errorf("%s %s while draining: snapshot seq %d → %d, want no cut", g.method, g.path, seq, got)
		}
		if got := store.Stats().Ingested; got != ingested {
			t.Errorf("%s %s while draining: ingested %d → %d, want nothing added", g.method, g.path, ingested, got)
		}
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s while draining: status %d, want 200 (liveness is not readiness)", path, resp.StatusCode)
		}
	}

	// Back to ok: the gate opens.
	ready.Set("ok")
	resp, err := http.Post(srv.URL+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("POST /v1/snapshot after recovery: status %d, want 200", resp.StatusCode)
	}
}

// Restore must degrade one generation at a time: a damaged newest
// generation falls back to the previous one (counted and logged), a
// damaged manifest alone costs nothing, and only a directory where no
// generation decodes fails — still leaving the store cold-boot usable.
func TestRestoreGenerationFallback(t *testing.T) {
	f := corpus(t)

	// Template checkpoint dir: gen A holds 1000 records, gen B holds
	// 2000 (cumulative) — both retained by the keep window.
	template := t.TempDir()
	store := newCkptStore(t, f, 2)
	if _, err := store.add(f.records[:1000], nil); err != nil {
		t.Fatal(err)
	}
	genA, err := store.Checkpoint(template)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.add(f.records[1000:2000], nil); err != nil {
		t.Fatal(err)
	}
	genB, err := store.Checkpoint(template)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	cases := []struct {
		name          string
		mutate        func(t *testing.T, dir string)
		wantRecords   uint64 // 0 = restore must fail
		wantFallbacks uint64
	}{
		{
			name: "truncated manifest still restores newest",
			mutate: func(t *testing.T, dir string) {
				truncateFile(t, filepath.Join(dir, manifestName), 10)
			},
			wantRecords: 2000, wantFallbacks: 0,
		},
		{
			name: "garbled manifest still restores newest",
			mutate: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 2000, wantFallbacks: 0,
		},
		{
			name: "truncated newest shard falls back one generation",
			mutate: func(t *testing.T, dir string) {
				truncateFile(t, filepath.Join(dir, genB.Generation, shardFileName(0)), 20)
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "garbled gzip in newest falls back one generation",
			mutate: func(t *testing.T, dir string) {
				garbleFile(t, filepath.Join(dir, genB.Generation, shardFileName(1)))
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "one flipped byte in a frame of newest falls back one generation",
			mutate: func(t *testing.T, dir string) {
				// The file ends with its last frame's CRC-32 and length; 64
				// bytes back is inside that frame's deflate payload.
				path := filepath.Join(dir, genB.Generation, shardFileName(0))
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)-64] ^= 0x01
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "header count disagreeing with the table falls back one generation",
			mutate: func(t *testing.T, dir string) {
				// A well-formed header — its own CRC is right — that claims
				// one record more than the table behind it sums to.
				path := filepath.Join(dir, genB.Generation, shardFileName(0))
				stream, records, err := readShardFile(path, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				hw := statecodec.NewWriter()
				hw.Raw([]byte(shardStateMagic))
				hw.Byte(shardStateVersion)
				hw.Uvarint(0)
				hw.Uvarint(2)
				hw.Uvarint(records + 1)
				hw.Checksum()
				if err := os.WriteFile(path, append(hw.Bytes(), stream...), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "sketch-era state in newest falls back one generation",
			mutate: func(t *testing.T, dir string) {
				writeSketchEraShard(t, f, filepath.Join(dir, genB.Generation, shardFileName(0)))
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "missing newest generation falls back one generation",
			mutate: func(t *testing.T, dir string) {
				if err := os.RemoveAll(filepath.Join(dir, genB.Generation)); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 1000, wantFallbacks: 1,
		},
		{
			name: "every generation damaged fails, store cold-boots",
			mutate: func(t *testing.T, dir string) {
				truncateFile(t, filepath.Join(dir, genA.Generation, shardFileName(0)), 5)
				truncateFile(t, filepath.Join(dir, genB.Generation, shardFileName(0)), 5)
			},
			wantRecords: 0, wantFallbacks: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, template, dir)
			tc.mutate(t, dir)

			st := newCkptStore(t, f, 2)
			defer st.Close()
			info, err := st.Restore(dir)
			if tc.wantRecords == 0 {
				if err == nil {
					t.Fatalf("Restore succeeded (%+v) on a fully damaged dir", info)
				}
				if errors.Is(err, ErrNoCheckpoint) {
					t.Errorf("fully damaged dir reported ErrNoCheckpoint; want a decode error (data existed)")
				}
			} else {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if info.Records != tc.wantRecords {
					t.Errorf("restored %d records, want %d", info.Records, tc.wantRecords)
				}
			}
			if got := st.obsm.restoreFallbacks.Value(); got != tc.wantFallbacks {
				t.Errorf("censord_checkpoint_restore_fallbacks_total = %d, want %d", got, tc.wantFallbacks)
			}

			// The store works after any outcome, and a fresh checkpoint
			// continues the on-disk sequence instead of colliding with
			// the surviving generation dirs.
			if _, err := st.add(f.records[2000:2100], nil); err != nil {
				t.Fatal(err)
			}
			next, err := st.Checkpoint(dir)
			if err != nil {
				t.Fatalf("checkpoint after restore: %v", err)
			}
			if next.Generation == genA.Generation || next.Generation == genB.Generation {
				t.Errorf("new checkpoint reused generation %s", next.Generation)
			}
			if next.Records != tc.wantRecords+100 {
				t.Errorf("checkpoint after restore covers %d records, want %d", next.Records, tc.wantRecords+100)
			}
			if tc.wantRecords == 0 {
				return
			}

			// The generations the restore skipped did not count toward the
			// keep budget, so the one it used survived the checkpoint: with
			// the new generation damaged too, a fresh restore still lands on
			// it, past every newer generation.
			truncateFile(t, filepath.Join(dir, next.Generation, shardFileName(0)), 20)
			again := newCkptStore(t, f, 2)
			defer again.Close()
			info, err = again.Restore(dir)
			if err != nil {
				t.Fatalf("Restore with the new generation damaged: %v", err)
			}
			gens, _ := scanGenerations(dir) // newest first
			newer := slices.IndexFunc(gens, func(g genEntry) bool { return g.name == info.Generation })
			if got := again.obsm.restoreFallbacks.Value(); info.Records != tc.wantRecords || got != uint64(newer) {
				t.Errorf("restored %d records after %d fallbacks, want %d after %d", info.Records, got, tc.wantRecords, newer)
			}
		})
	}
}

// writeSketchEraShard writes, as shard 0 of 2, a file that is well formed
// in every byte but one: its single bucket's engine state carries a users
// section in layout 2, the form the removed -sketch mode wrote.
func writeSketchEraShard(t *testing.T, f *fixture, path string) {
	t.Helper()
	err := writeOneRecordShard(t, f, path, "users", func(payload []byte) []byte {
		payload[0] = 2
		return payload
	})
	// The file fails on the layout byte and on nothing before it.
	if err == nil || !strings.Contains(err.Error(), "written by the removed -sketch mode") {
		t.Fatalf("sketch-era frame: err = %v, want the -sketch refusal", err)
	}
}

// writeOneRecordShard writes, as shard 0 of 2, a shard file holding one
// hour bucket: the engine state of f.records[0], with the section of the
// named module passed through edit. Every byte around that section is
// well formed; it returns the error that decoding the file's frames
// gives.
func writeOneRecordShard(t *testing.T, f *fixture, path, module string, edit func(payload []byte) []byte) error {
	t.Helper()
	an := core.NewAnalyzer(f.opt)
	rec := f.records[0]
	an.Observe(&rec)
	in := statecodec.NewReader(an.MarshalState())
	out := statecodec.NewWriter()
	out.Raw(in.Raw(4)) // magic
	out.Byte(in.Byte())
	n := in.Count()
	out.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		name, payload := in.String(), bytes.Clone(in.Blob())
		if name == module {
			payload = edit(payload)
		}
		out.String(name)
		out.Blob(payload)
	}
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&frame, gzip.BestSpeed) // only errors on an invalid level
	zw.Write(out.Bytes())
	zw.Close()

	hw := statecodec.NewWriter() // shard header: shard 0 of 2, one record
	hw.Raw([]byte(shardStateMagic))
	hw.Byte(shardStateVersion)
	hw.Uvarint(0)
	hw.Uvarint(2)
	hw.Uvarint(1)
	hw.Checksum()
	tw := statecodec.NewWriter() // frames table: no tail, one hour bucket
	tw.Raw([]byte("SFTF"))
	tw.Byte(1)
	tw.Uvarint(3600)
	tw.Uvarint(0)
	tw.Bool(false)
	tw.Uvarint(1)
	tw.Varint(rec.Time / 3600)
	tw.Uvarint(1)
	tw.Uvarint(uint64(frame.Len()))
	tw.Checksum()
	file := slices.Concat(hw.Bytes(), tw.Bytes(), frame.Bytes())
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	stream, _, err := readShardFile(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = timewin.DecodeFrames(timewin.Config{Options: f.opt, Bucket: time.Hour}, [][]byte{stream}, 1)
	return err
}

// twoGenerations checkpoints a 2-shard store twice into a fresh dir: gen
// A holds the fixture's first 1000 records, gen B the first 2000.
func twoGenerations(t *testing.T, f *fixture) (dir string, genA, genB CheckpointInfo) {
	t.Helper()
	dir = t.TempDir()
	store := newCkptStore(t, f, 2)
	defer store.Close()
	for i, gen := range []*CheckpointInfo{&genA, &genB} {
		if _, err := store.add(f.records[i*1000:(i+1)*1000], nil); err != nil {
			t.Fatal(err)
		}
		info, err := store.Checkpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		*gen = info
	}
	return dir, genA, genB
}

// A counter whose keys repeat, in the newest generation, is corruption
// like any other: it costs that generation, never restores a summed
// count.
func TestRestoreRefusesUnorderedCounterKeys(t *testing.T) {
	f := corpus(t)
	dir, genA, genB := twoGenerations(t, f)
	// The domains module's nine counters: the first holds one key twice.
	err := writeOneRecordShard(t, f, filepath.Join(dir, genB.Generation, shardFileName(0)), "domains", func([]byte) []byte {
		w := statecodec.NewWriter()
		w.Byte(1) // the one section layout
		w.Uvarint(2)
		for range 2 {
			w.StringRef("example.com")
			w.Uvarint(1)
		}
		for range 8 {
			w.Uvarint(0)
		}
		return w.Bytes()
	})
	if err == nil || !strings.Contains(err.Error(), `module "domains"`) || !strings.Contains(err.Error(), "does not follow") {
		t.Fatalf("repeated counter key: err = %v, want an out-of-order refusal naming the module", err)
	}

	tr := trace.New(trace.Config{Slow: -1})
	st, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info, err := st.Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := st.obsm.restoreFallbacks.Value(); info.Records != 1000 || got != 1 {
		t.Errorf("restored %d records after %d fallbacks, want 1000 after 1", info.Records, got)
	}

	// The trace times both steps of each attempt: the refused generation
	// was only decoded, the one restored was decoded and absorbed.
	var attempts []string
	for _, tc := range tr.Recorder().Snapshot(0, 0) {
		for _, sp := range tc.Spans {
			if sp.Name != "restore.generation" {
				continue
			}
			_, decode := sp.Attrs["decode_s"].(float64)
			_, absorb := sp.Attrs["absorb_s"].(float64)
			attempts = append(attempts, fmt.Sprintf("%s failed=%v decode_s=%v absorb_s=%v", sp.Attrs["generation"], sp.Error != "", decode, absorb))
		}
	}
	want := []string{
		fmt.Sprintf("%s failed=true decode_s=true absorb_s=false", genB.Generation),
		fmt.Sprintf("%s failed=false decode_s=true absorb_s=true", genA.Generation),
	}
	if !slices.Equal(attempts, want) {
		t.Errorf("restore.generation spans:\n%s\nwant:\n%s", strings.Join(attempts, "\n"), strings.Join(want, "\n"))
	}
}

// gcPercent reads the collector setting (SetGCPercent is the only reader).
func gcPercent() int {
	p := debug.SetGCPercent(-1)
	debug.SetGCPercent(p)
	return p
}

// logHook is a slog handler that passes every record to a func.
type logHook func(slog.Record)

func (h logHook) Enabled(context.Context, slog.Level) bool      { return true }
func (h logHook) Handle(_ context.Context, r slog.Record) error { h(r); return nil }
func (h logHook) WithAttrs([]slog.Attr) slog.Handler            { return h }
func (h logHook) WithGroup(string) slog.Handler                 { return h }

// Restore turns the collector off for each generation it loads and must
// always turn it back on at the setting it found: after restores that
// overlap, after a generation that fails to decode, and before the walk
// reads the next generation, so a failed attempt's garbage is not held
// through the fallback.
func TestRestoreUndoesGCPause(t *testing.T) {
	f := corpus(t)
	dir, _, genB := twoGenerations(t, f)
	defer debug.SetGCPercent(debug.SetGCPercent(73))

	restore := func(dir string, logger *slog.Logger, want uint64) {
		st, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour, Logger: logger})
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		if info, err := st.Restore(dir); err != nil || info.Records != want {
			t.Errorf("Restore = %d records, %v; want %d", info.Records, err, want)
		}
	}

	// Two restores at once, and again inside a pause of the test's own:
	// the last resume, and only the last, puts the setting back.
	for _, outer := range []bool{false, true} {
		var resume func()
		if outer {
			resume = pauseGC()
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				restore(dir, nil, 2000)
			}()
		}
		wg.Wait()
		if outer {
			if got := gcPercent(); got != -1 {
				t.Errorf("restores inside an outer pause left GC percent %d, want it still off", got)
			}
			resume()
		}
		if got := gcPercent(); got != 73 {
			t.Errorf("overlapping restores (outer pause %v) left GC percent %d, want 73", outer, got)
		}
	}

	// The newest generation fails; the warning the walk logs before it
	// tries the next one must find collection on.
	truncateFile(t, filepath.Join(dir, genB.Generation, shardFileName(0)), 20)
	var atFallback []int
	restore(dir, slog.New(logHook(func(r slog.Record) {
		if strings.Contains(r.Message, "falling back") {
			atFallback = append(atFallback, gcPercent())
		}
	})), 1000)
	if !slices.Equal(atFallback, []int{73}) {
		t.Errorf("GC percent at each fallback = %v, want [73]", atFallback)
	}
	if got := gcPercent(); got != 73 {
		t.Errorf("restore with a failed generation left GC percent %d, want 73", got)
	}
}

// A restore allocates little beyond the state it keeps. It allocates
// with the collector paused, so what it throws away adds to peak memory:
// a decoder that grew its containers by appends would raise this ratio,
// and the pause would cost memory.
func TestRestoreAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	// Each frame-decoding worker owns an inflater, so the worker count
	// is part of what a restore allocates: pin it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := corpus(t)
	dir := t.TempDir()
	src := newCkptStore(t, f, 2)
	fillStore(t, src, f)
	if _, err := src.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	src.Close()

	st := newCkptStore(t, f, 2)
	defer st.Close()
	var before, during, after runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle frees what the first left in sync.Pools
	runtime.ReadMemStats(&before)
	if _, err := st.Restore(dir); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&during)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := during.TotalAlloc - before.TotalAlloc
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(allocated) / float64(kept)
	t.Logf("Restore allocated %d B and kept %d B: ratio %.2f", allocated, kept, ratio)
	if kept <= 0 || ratio > maxRestoreAllocRatio {
		t.Errorf("Restore allocated %d B to keep %d B, ratio %.2f; want at most %.2f", allocated, kept, ratio, maxRestoreAllocRatio)
	}
}

// maxRestoreAllocRatio bounds bytes allocated per byte kept. On the
// fixture the ratio reads 1.75 (go1.24, linux/amd64); the decoder that
// grew each counter by appends read 1.87.
const maxRestoreAllocRatio = 1.81

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// garbleFile flips bytes in the middle of path, keeping the length (a
// bit-rot corruption the frames' gzip checksums catch, unlike a
// truncation the table's lengths catch first).
func garbleFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b)/2+16 && i < len(b); i++ {
		b[i] ^= 0xff
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
