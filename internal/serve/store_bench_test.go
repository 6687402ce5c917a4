package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/timewin"
)

// The benchmarks below are the in-package twins of the ledger's store,
// handler and range rows, each named after its row, on the 200 k corpus
// of BenchmarkSnapshotCut (RangeSeries: its 1 M corpus).

// ingestData is the loaded part of the 200 k corpus as one log file.
func ingestData(b *testing.B) (*cutFixture, []byte) {
	c := cutCorpus(b, 200_000)
	return c, encodeCSV(b, c.loaded, false)
}

// BenchmarkIngestBlocks measures Store.IngestBlocks of the corpus into a
// warm store (every key already folded, the batch free list filled), the
// twin of serve.store.ingest_blocks: MB/s of log bytes, and time,
// allocations and bytes per record.
func BenchmarkIngestBlocks(b *testing.B) {
	c, data := ingestData(b)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st, err := NewStore(Config{Options: c.opt, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// A no-op range read queues behind the batches, so the clock
			// stops when the shards have applied them.
			ingest := func() {
				added, _, err := st.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(data)), 0)
				if err != nil || added != uint64(len(c.loaded)) {
					b.Fatalf("added %d of %d: %v", added, len(c.loaded), err)
				}
				if _, _, err := st.Range(timewin.Window{From: 1, To: 2}); err != nil {
					b.Fatal(err)
				}
			}
			ingest()
			b.SetBytes(int64(len(data)))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingest()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			recs := float64(b.N * len(c.loaded))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/recs, "allocs/rec")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/recs, "B/rec")
		})
	}
}

// BenchmarkIngestOverhead measures what instrumentation costs block
// ingest into a fresh 4-shard store: bare has neither metrics
// (Config.DisableObs) nor a tracer, obs is the default store, and traced
// adds a tracer and ingests under a live root span, the shape of a POST
// /v1/ingest, so the pipeline, enqueue and per-shard apply spans run for
// real. Tracing is always on in production: CI gates traced allocs/op
// within 1 % of obs (scripts/bench_gate.sh trace).
func BenchmarkIngestOverhead(b *testing.B) {
	c, data := ingestData(b)
	run := func(disableObs bool, tr *trace.Tracer) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := NewStore(Config{Options: c.opt, Shards: 4, DisableObs: disableObs, Tracer: tr})
				if err != nil {
					b.Fatal(err)
				}
				root := tr.Root("bench.ingest")
				b.StartTimer()
				added, _, err := st.IngestBlocksCtx(trace.NewContext(context.Background(), root), logfmt.NewBlockReader(bytes.NewReader(data)), 0)
				b.StopTimer()
				if err != nil || added != uint64(len(c.loaded)) {
					b.Fatalf("added %d of %d: %v", added, len(c.loaded), err)
				}
				root.End()
				st.Close()
				b.StartTimer()
			}
		}
	}
	b.Run("bare", run(true, nil))
	b.Run("obs", run(false, nil))
	b.Run("traced", run(false, trace.New(trace.Config{Slow: trace.DefaultSlow})))
}

// BenchmarkCheckpoint measures one Store.Checkpoint of a loaded store
// (hourly buckets, 2 shards, fsyncs included), the twin of
// serve.store.checkpoint, by how much changed since the previous one:
// dirty=all re-adds the whole corpus first, so every bucket of every
// shard re-encodes, what a cold store or the first checkpoint after
// ingest pays; dirty=one adds one record, so one bucket of one shard
// does, the steady state of a live time-ordered stream; dirty=none adds
// nothing, the memo's floor (table and file write). SetBytes is the
// checkpoint's size on disk, so MB/s is the rate it is written at.
func BenchmarkCheckpoint(b *testing.B) {
	c := cutCorpus(b, 200_000)
	for _, dirty := range []struct {
		name string
		recs []logfmt.Record
	}{{"all", c.loaded}, {"one", c.loaded[:1]}, {"none", nil}} {
		b.Run("dirty="+dirty.name, func(b *testing.B) {
			st, err := NewStore(Config{Options: c.opt, Shards: 2, Bucket: time.Hour, DisableObs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := st.add(c.loaded, nil); err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			if _, err := st.Checkpoint(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := st.add(dirty.recs, nil); err != nil {
					b.Fatal(err)
				}
				// The shard queues are FIFO: drain the adds, and collect
				// their garbage, before the clock starts, so it times the
				// checkpoint alone.
				if _, err := st.Refresh(); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				info, err := st.Checkpoint(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(info.Bytes)
			}
		})
	}
}

// BenchmarkRestore measures one Store.Restore of BenchmarkCheckpoint's
// store (200 k records, hourly buckets, 2 shards), checkpointed once,
// into a fresh store: the twin of serve.store.restore. shards=2 gives
// each shard one file; shards=3 is a shard-count change, files going
// round-robin to shards. Building and closing the fresh store are not
// timed.
func BenchmarkRestore(b *testing.B) {
	c := cutCorpus(b, 200_000)
	cfg := Config{Options: c.opt, Shards: 2, Bucket: time.Hour, DisableObs: true}
	src, err := NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.add(c.loaded, nil); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	_, err = src.Checkpoint(dir)
	src.Close()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		cfg.Shards = shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := NewStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				_, err = st.Restore(dir)
				b.StopTimer()
				st.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkHandler measures GET /v1/tables/4 on a loaded store, the twin
// of serve.handler.{cold,hit}: cold renders every request (a server
// without the doc cache), hit serves the cached bytes, and etag-304
// revalidates with If-None-Match, no render and no body. CI gates hit
// B/op at a fifth of cold's (scripts/bench_gate.sh doccache); byte
// identity between the paths is pinned by TestDocCacheByteIdentity.
func BenchmarkHandler(b *testing.B) {
	c := cutCorpus(b, 200_000)
	st, err := NewStore(Config{Options: c.opt, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.add(c.loaded, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Refresh(); err != nil {
		b.Fatal(err)
	}
	const path = "/v1/tables/4"
	run := func(srv *Server, inm string, want int) func(b *testing.B) {
		return func(b *testing.B) {
			req := httptest.NewRequest("GET", path, nil)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rw := httptest.NewRecorder()
				srv.ServeHTTP(rw, req)
				if rw.Code != want {
					b.Fatalf("status %d, want %d: %.200s", rw.Code, want, rw.Body.String())
				}
			}
		}
	}
	b.Run("cold", run(NewServer(st, nil, docCacheBytes(0)), "", 200))
	srv := NewServer(st, nil)
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest("GET", path, nil))
	if warm.Code != 200 || warm.Header().Get("ETag") == "" {
		b.Fatalf("warmup: status %d, etag %q", warm.Code, warm.Header().Get("ETag"))
	}
	b.Run("hit", run(srv, "", 200))
	b.Run("etag-304", run(srv, warm.Header().Get("ETag"), 304))
}

// BenchmarkRangeSeries measures the window pass of a day-step series on a
// loaded store (hourly buckets, every module, the 1 M corpus of
// BenchmarkSnapshotCut): six daily windows, 2011-08-01 to 08-07 as the
// ledger's range sweep asks for them, projected onto the modules table4
// or table8 reads. It is the twin of serve.range.merge_mean_s and reports
// ns per bucket merged, a bucket counting once for each shard that holds
// it. Every shard merges into the one shared engine per window at once,
// so run it with -cpu 1,2 to see both sides of the fan-out.
func BenchmarkRangeSeries(b *testing.B) {
	from := time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	w := timewin.Window{From: from, To: from + 6*86400}
	for _, shards := range []int{1, 2} {
		var st *Store
		for _, id := range []string{"table4", "table8"} {
			b.Run(fmt.Sprintf("%s/shards=%d", id, shards), func(b *testing.B) {
				mods, err := core.ModulesFor(id)
				if err != nil {
					b.Fatal(err)
				}
				if st == nil {
					c := cutCorpus(b, 1_000_000)
					if st, err = NewStore(Config{Options: c.opt, Shards: shards, Bucket: time.Hour, DisableObs: true}); err != nil {
						b.Fatal(err)
					}
					if _, err := st.add(c.loaded, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				buckets := 0
				for i := 0; i < b.N; i++ {
					wins, err := st.RangeSeries(w, 86400, mods...)
					if err != nil {
						b.Fatal(err)
					}
					for _, rw := range wins {
						buckets += rw.Coverage.Buckets
					}
				}
				if buckets == 0 {
					b.Fatal("the series merged no bucket")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(buckets), "ns/bucket")
			})
		}
		if st != nil {
			st.Close()
		}
	}
}

// BenchmarkRangeSweep is the in-package twin of the ledger's
// range_sweep_s on its full workload: a 2-shard store of the 1 M corpus
// (hourly buckets, every module) behind a Server, and per iteration one
// refresh round — about 1,300 records taken at a stride across the whole
// capture, so they land in every day, then a cut — followed by the 16
// GETs of the sweep: table1, table4, fig5 and table8 over a 6 h, a 1 d
// and a 3 d window and over six days at step=24h. Only the GETs are
// timed: ms/sweep is their time, ms/round the round's add and cut.
func BenchmarkRangeSweep(b *testing.B) {
	c := cutCorpus(b, 1_000_000)
	st, err := NewStore(Config{Options: c.opt, Shards: 2, Bucket: time.Hour, DisableObs: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.add(c.loaded, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Refresh(); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(st, nil)
	var queries []string
	for _, id := range []string{"table1", "table4", "fig5", "table8"} {
		for _, w := range []string{
			"from=2011-08-02T00:00&to=2011-08-02T06:00",
			"from=2011-08-02&to=2011-08-03",
			"from=2011-08-02&to=2011-08-05",
			"from=2011-08-01&to=2011-08-07&step=24h",
		} {
			queries = append(queries, "/v1/range/"+id+"?"+w)
		}
	}
	const round = 1_300
	stride := len(c.rounds) / round
	var recs []logfmt.Record
	var rounds time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		recs = recs[:0]
		for j := i % stride; j < len(c.rounds); j += stride {
			recs = append(recs, c.rounds[j])
		}
		if _, err := st.add(recs, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Refresh(); err != nil {
			b.Fatal(err)
		}
		rounds += time.Since(t0)
		b.StartTimer()
		for _, q := range queries {
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, httptest.NewRequest("GET", q, nil))
			if rw.Code != 200 {
				b.Fatalf("GET %s: status %d: %.200s", q, rw.Code, rw.Body.String())
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/sweep")
	b.ReportMetric(float64(rounds.Nanoseconds())/1e6/float64(b.N), "ms/round")
}
