package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

// assertDocsMatch renders every experiment from got and from the batch
// reference want and fails on the first byte difference per doc.
func assertDocsMatch(t *testing.T, got, want *core.Analyzer, f *fixture) {
	t.Helper()
	for _, id := range render.Order() {
		g, gerr := render.Render(id, render.Context{An: got, Gen: f.gen})
		w, werr := render.Render(id, render.Context{An: want, Gen: f.gen})
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s: render error %v, batch run %v", id, gerr, werr)
			continue
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: ingested snapshot differs from batch run\n got: %.300s\nwant: %.300s", id, gb, wb)
		}
	}
}

// Block-parallel file ingestion (one block reader per file, parsing on
// the worker pool) must land exactly the scanner path's records: every
// experiment of a snapshot built from IngestFiles matches the batch
// reference byte for byte, gzip input included.
func TestIngestFilesBlocksMatchesBatchRun(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()
	half := len(f.records) / 2
	plain := filepath.Join(dir, "part1.csv")
	if err := os.WriteFile(plain, encodeCSV(t, f.records[:half], false), 0o644); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "part2.csv.gz")
	if err := os.WriteFile(gz, encodeCSV(t, f.records[half:], true), 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := NewStore(Config{Options: f.opt, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	added, malformed, err := store.IngestFiles(context.Background(), []string{plain, gz}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if added != uint64(len(f.records)) || malformed != 0 {
		t.Fatalf("added/malformed = %d/%d, want %d/0", added, malformed, len(f.records))
	}
	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Records != uint64(len(f.records)) {
		t.Fatalf("snapshot covers %d records, want %d", snap.Records, len(f.records))
	}
	assertDocsMatch(t, snap.An, f.batch, f)
}

// Malformed lines in an ingested file are counted, skipped, and do not
// poison the stream.
func TestIngestFilesBlocksMalformed(t *testing.T) {
	f := corpus(t)
	dir := t.TempDir()
	data := encodeCSV(t, f.records[:1000], false)
	data = append(data, []byte("definitely,not,a,record\n#trailing comment\n")...)
	path := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	added, malformed, err := store.IngestFiles(context.Background(), []string{path}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1000 || malformed != 1 {
		t.Fatalf("added/malformed = %d/%d, want 1000/1", added, malformed)
	}
}

// edgeBodies cuts record lists whose per-shard counts (under n shards)
// land on every batch edge: each body gives shard s
// edges[(s+k) % len(edges)] records, interleaved across shards. Records
// repeat once a shard's share of the fixture runs out.
func edgeBodies(f *fixture, n int) [][]logfmt.Record {
	edges := []int{0, 1, pipeline.BatchSize - 1, pipeline.BatchSize, pipeline.BatchSize + 1}
	byShard := make([][]logfmt.Record, n)
	for i := range f.records {
		s := shardKey(&f.records[i]) % uint64(n)
		byShard[s] = append(byShard[s], f.records[i])
	}
	next := make([]int, n)
	bodies := make([][]logfmt.Record, len(edges))
	for k := range bodies {
		left := make([]int, n)
		for s := range left {
			left[s] = edges[(s+k)%len(edges)]
		}
		for more := true; more; {
			more = false
			for s := range left {
				if left[s] == 0 {
					continue
				}
				bodies[k] = append(bodies[k], byShard[s][next[s]%len(byShard[s])])
				next[s]++
				left[s]--
				more = true
			}
		}
	}
	return bodies
}

// Batch edges, through both entry points: per-shard counts of 0, 1,
// BatchSize-1, BatchSize and BatchSize+1 in one call (the serial worker
// sees them exactly; four workers split them by block) must all arrive,
// be counted once, and fold to the batch run's documents.
func TestIngestBatchEdgesMatchBatchRun(t *testing.T) {
	f := corpus(t)
	for _, shards := range []int{1, 3, 7} {
		bodies := edgeBodies(f, shards)
		want := core.NewAnalyzer(f.opt) // the batch run over every body
		for _, body := range bodies {
			for i := range body {
				want.Observe(&body[i])
			}
		}
		for _, workers := range []int{0, 1, 4} { // 0: through Add
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			if workers == 0 {
				name = fmt.Sprintf("shards=%d/add", shards)
			}
			t.Run(name, func(t *testing.T) {
				store, err := NewStore(Config{Options: f.opt, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				var total uint64
				for k, body := range bodies {
					var added uint64
					if workers == 0 {
						added, err = store.add(body, nil)
					} else {
						data := encodeCSV(t, body, false)
						added, _, err = store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(data)), workers)
					}
					if err != nil {
						t.Fatal(err)
					}
					total += uint64(len(body))
					if added != uint64(len(body)) {
						t.Errorf("body %d: added %d, want %d", k, added, len(body))
					}
					if got := store.Stats().Ingested; got != total {
						t.Errorf("body %d: Stats().Ingested = %d, want %d", k, got, total)
					}
				}
				snap, err := store.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				if snap.Records != total {
					t.Fatalf("snapshot folded %d records, want %d", snap.Records, total)
				}
				assertDocsMatch(t, snap.An, want, f)
			})
		}
	}
}

// Recycled batches under concurrency: four ingesters mixing IngestBlocks
// and Add over disjoint slices, beside snapshot cuts and range reads,
// must fold exactly the batch run over their union. A batch touched
// after its handoff — by the sender, or by the next holder while a shard
// still reads it — is what -race repeats this to catch.
func TestIngestBatchRecycleHammer(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const ingesters, chunk = 4, 700 // under BatchSize: flushes send partial batches
	quarter := (len(f.records) + ingesters - 1) / ingesters
	type piece struct {
		recs []logfmt.Record
		body []byte // nil: goes in through Add
	}
	plans := make([][]piece, ingesters)
	for g := range plans {
		part := f.records[min(g*quarter, len(f.records)):min((g+1)*quarter, len(f.records))]
		for i, lo := 0, 0; lo < len(part); i, lo = i+1, lo+chunk {
			p := piece{recs: part[lo:min(lo+chunk, len(part))]}
			if (g+i)%2 == 0 {
				p.body = encodeCSV(t, p.recs, false)
			}
			plans[g] = append(plans[g], p)
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			if _, err := store.Refresh(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			if _, _, err := store.Range(timewin.Window{}, "datasets"); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var writers sync.WaitGroup
	for _, plan := range plans {
		writers.Add(1)
		go func(plan []piece) {
			defer writers.Done()
			for _, p := range plan {
				var added uint64
				var err error
				if p.body != nil {
					added, _, err = store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(p.body)), 2)
				} else {
					added, err = store.add(p.recs, nil)
				}
				if err != nil || added != uint64(len(p.recs)) {
					t.Errorf("ingest: added %d of %d, err %v", added, len(p.recs), err)
					return
				}
			}
		}(plan)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Records != uint64(len(f.records)) {
		t.Fatalf("snapshot folded %d records, want %d", snap.Records, len(f.records))
	}
	assertDocsMatch(t, snap.An, f.batch, f)
}

// The steady state of the block path makes no per-record garbage: on a
// warm store (free list filled, engines holding every key) a second pass
// allocates at most a few bytes per record — parse interning hits, one
// copy into a recycled batch, engine counters bumped in place.
func TestIngestSteadyStateGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops batches on purpose")
	}
	f := corpus(t)
	once := encodeCSV(t, f.records, false)
	four := bytes.Repeat(once, 4)
	const budget = 128 // bytes per record
	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store, err := NewStore(Config{Options: f.opt, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ingest := func(data []byte) uint64 {
				t.Helper()
				added, _, err := store.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(data)), 0)
				if err != nil {
					t.Fatal(err)
				}
				// A no-op range read queues behind every batch, so the
				// shards have applied (and recycled) them all.
				if _, _, err := store.Range(timewin.Window{From: 1, To: 2}); err != nil {
					t.Fatal(err)
				}
				return added
			}
			ingest(once)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			added := ingest(four)
			runtime.ReadMemStats(&after)
			if added != uint64(4*len(f.records)) {
				t.Fatalf("added %d, want %d", added, 4*len(f.records))
			}
			perRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(added)
			t.Logf("%.1f B/record, %d GC cycles over %d records", perRec, after.NumGC-before.NumGC, added)
			if perRec > budget {
				t.Errorf("warm ingest allocated %.1f B/record, want <= %d", perRec, budget)
			}
		})
	}
}
