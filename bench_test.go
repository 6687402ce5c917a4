package repro

// Micro-benchmarks for working on one piece at a time: the ingest,
// range-read and checkpoint paths the CI smoke keeps from rotting, and the pairs the CI gates compare (trace overhead, doc-cache
// speedup). The recorded performance ledger — end-to-end rows and one
// probe per layer — is bench/ (`bash bench/run.sh`, BENCHMARK.json).
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/serve"
	"syriafilter/internal/synth"
	"syriafilter/internal/timewin"
)

const benchCorpusSize = 200_000

type benchFixture struct {
	gen      *synth.Generator
	analyzer *core.Analyzer
	records  []logfmt.Record
}

var (
	benchOnce sync.Once
	benchFix  *benchFixture
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	benchOnce.Do(func() {
		gen, err := synth.New(synth.Config{Seed: 99, TotalRequests: benchCorpusSize})
		if err != nil {
			panic(err)
		}
		an := core.NewAnalyzer(core.Options{
			Categories: gen.CategoryDB(),
			Consensus:  gen.Consensus(),
			TitleDB:    bittorrent.NewTitleDB(),
		})
		var recs []logfmt.Record
		proxysim.Emit(gen, func(rec *logfmt.Record) {
			an.Observe(rec)
			recs = append(recs, *rec)
		})
		benchFix = &benchFixture{gen: gen, analyzer: an, records: recs}
	})
	return benchFix
}

func BenchmarkAnalyzerObserve(b *testing.B) {
	f := fixture(b)
	an := core.NewAnalyzer(core.Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Observe(&f.records[i%len(f.records)])
	}
}

// --- End-to-end file ingestion ---

var (
	ingestFileOnce sync.Once
	ingestFileDir  string
	ingestFilePath string
	ingestFileSize int64
)

// TestMain cleans up the benchmark corpus file, which outlives any one
// (sub-)benchmark and therefore cannot live in a b.TempDir.
func TestMain(m *testing.M) {
	code := m.Run()
	if ingestFileDir != "" {
		os.RemoveAll(ingestFileDir)
	}
	os.Exit(code)
}

// ingestBenchFile serializes the whole benchmark corpus into ONE large
// log file: only block-level fan-out can spread it over the pool.
func ingestBenchFile(b *testing.B) (string, int64) {
	f := fixture(b)
	ingestFileOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ingestbench")
		if err != nil {
			panic(err)
		}
		ingestFileDir = dir
		path := filepath.Join(dir, "corpus.csv")
		fh, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		w := logfmt.NewWriter(fh)
		if err := w.WriteHeader(); err != nil {
			panic(err)
		}
		for i := range f.records {
			if err := w.Write(&f.records[i]); err != nil {
				panic(err)
			}
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
		if err := fh.Close(); err != nil {
			panic(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			panic(err)
		}
		ingestFilePath, ingestFileSize = path, st.Size()
	})
	return ingestFilePath, ingestFileSize
}

// BenchmarkIngestEndToEnd measures the whole file -> full-engine path
// (read, split, parse, observe, merge) on a single large input file, in
// MB/s of file bytes.
func BenchmarkIngestEndToEnd(b *testing.B) {
	f := fixture(b)
	path, size := ingestBenchFile(b)
	opts := benchOpts(f)
	newAcc := func() *core.Analyzer { return core.NewAnalyzer(opts) }
	observe := func(a *core.Analyzer, r *logfmt.Record) { a.Observe(r) }
	merge := func(dst, src *core.Analyzer) { dst.Merge(src) }

	b.Run("blocks", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an, stats, err := pipeline.RunFilesBlocks([]string{path}, 0, newAcc, observe, merge)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Records == 0 || an.Dataset(core.DFull).Total == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkStoreIngest measures the daemon's ingest path in process:
// Store.IngestBlocks of the corpus file into a warm store (every key
// already folded, the batch free list filled), in MB/s of log bytes and
// B/op of garbage — the in-tree counterpart of the ledger's ingest_mb_s
// and boot_mb_s. A no-op range read queues behind the batches, so the
// clock stops when the shards have applied them.
func BenchmarkStoreIngest(b *testing.B) {
	f := fixture(b)
	path, _ := ingestBenchFile(b)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st, err := serve.NewStore(serve.Config{Options: benchOpts(f), Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			ingest := func() {
				added, _, err := st.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(data)), 0)
				if err != nil || added != uint64(len(f.records)) {
					b.Fatalf("added %d of %d: %v", added, len(f.records), err)
				}
				if _, _, err := st.Range(timewin.Window{From: 1, To: 2}); err != nil {
					b.Fatal(err)
				}
			}
			ingest()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingest()
			}
		})
	}
}

func benchOpts(f *benchFixture) core.Options {
	return core.Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
}

// --- Range queries: merge-on-query cost vs bucket count ---

// benchPartition folds the fixture corpus into a partition whose width
// spreads it over nb buckets.
func benchPartition(b *testing.B, f *benchFixture, opt core.Options, nb int) *timewin.Partition {
	b.Helper()
	var lo, hi int64
	for i := range f.records {
		t := f.records[i].Time
		if lo == 0 || t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	width := (hi - lo + int64(nb)) / int64(nb) // ceil: corpus spans <= nb buckets
	p, err := timewin.New(timewin.Config{Options: opt, Bucket: time.Duration(width) * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	for i := range f.records {
		p.Observe(&f.records[i])
	}
	return p
}

// BenchmarkRangeQuery measures what a timewin full-range query costs:
// one transient engine construction plus one merge per covered bucket.
// The corpus is fixed. The buckets= sub-benchmarks vary only the
// partition width (and therefore the bucket count) with every module
// folded, the merge cost curve that sizes cmd/censord's -bucket flag;
// the id= sub-benchmarks hold the ring at its widest and build the
// destination from core.ModulesFor(id), which is what /v1/range/{id}
// folds — id=all is the unprojected cost they are to be read against.
func BenchmarkRangeQuery(b *testing.B) {
	f := fixture(b)
	opt := benchOpts(f)
	rangeInto := func(p *timewin.Partition, mods []string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, err := core.NewEngine(opt, mods...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.RangeInto(dst, timewin.Window{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	var p *timewin.Partition
	for _, nb := range []int{8, 64, 256} {
		p = benchPartition(b, f, opt, nb)
		b.Run(fmt.Sprintf("buckets=%d", p.Buckets()), rangeInto(p, nil))
	}
	for _, id := range []string{"table1", "table4", "table8"} {
		mods, err := core.ModulesFor(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("id="+id, rangeInto(p, mods))
	}
	b.Run("id=all", rangeInto(p, nil))
}

// BenchmarkRangeFingerprint measures the per-shard half of a range
// response's cache key at the widest ring: hashing the (start, records)
// pairs in place, against building the Meta (one formatted timestamp a
// bucket) the key used to be derived from. /v1/range pays it twice a
// request, before and after the merge.
func BenchmarkRangeFingerprint(b *testing.B) {
	f := fixture(b)
	p := benchPartition(b, f, benchOpts(f), 256)
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := p.Fingerprint(timewin.Window{}); !ok {
				b.Fatal("all-time window not fingerprintable")
			}
		}
	})
	b.Run("meta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(p.Meta().Buckets) == 0 {
				b.Fatal("empty meta")
			}
		}
	})
}

// BenchmarkCheckpointRoundTrip measures the state codec on a full
// analyzed engine: encode + decode of every metric module's state (the
// per-frame work of a serve.Store checkpoint/restore cycle, before
// deflate). SetBytes is the encoded state size, so the run reports codec
// MB/s.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	f := fixture(b)
	state := f.analyzer.MarshalState()
	opt := core.Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := f.analyzer.MarshalState()
		restored := core.NewAnalyzer(opt)
		if err := restored.UnmarshalState(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointEncode isolates the write half of the codec on one
// engine: what a checkpoint pays, before deflate, for each frame it has
// to re-encode (BenchmarkCheckpointWrite counts how many those are).
func BenchmarkCheckpointEncode(b *testing.B) {
	f := fixture(b)
	state := f.analyzer.MarshalState()
	b.ReportAllocs()
	b.SetBytes(int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.analyzer.MarshalState()) == 0 {
			b.Fatal("empty state")
		}
	}
}

// BenchmarkCheckpointWrite measures one Store.Checkpoint of the fixture
// store (hourly buckets, 2 shards, fsyncs included) by how much of it
// changed since the previous checkpoint: dirty=all re-adds the whole
// corpus first, so every bucket of every shard re-encodes — the floor a
// cold store or the first checkpoint after ingest pays; dirty=one adds
// one record, so one bucket of one shard does — the steady state of a
// live, time-ordered stream, which the ledger's restart rounds cannot
// show; dirty=none adds nothing, the memo's floor (table + file write).
// bytes/op is the checkpoint's size on disk.
func BenchmarkCheckpointWrite(b *testing.B) {
	f := fixture(b)
	for _, dirty := range []struct {
		name string
		recs []logfmt.Record
	}{{"all", f.records}, {"one", f.records[:1]}, {"none", nil}} {
		b.Run("dirty="+dirty.name, func(b *testing.B) {
			st, err := serve.NewStore(serve.Config{Options: benchOpts(f), Shards: 2, Bucket: time.Hour, DisableObs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Add(f.records); err != nil {
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
				if _, err := st.Add(dirty.recs); err != nil {
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

// BenchmarkObsOverhead quantifies what the internal/obs instrumentation
// costs the hot ingest path: the same block ingest into a serve.Store,
// once with the metrics registry wired (the default) and once with
// Config.DisableObs (the zero-value storeMetrics, whose nil counters
// and histograms no-op). The acceptance bar is instrumented within a
// few percent of baseline MB/s.
func BenchmarkObsOverhead(b *testing.B) {
	f := fixture(b)
	path, _ := ingestBenchFile(b)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(f)

	run := func(b *testing.B, disable bool) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := serve.NewStore(serve.Config{Options: opts, Shards: 4, DisableObs: disable})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			added, _, err := st.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(data)), 0)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if added == 0 {
				b.Fatal("empty ingest")
			}
			st.Close()
			b.StartTimer()
		}
	}
	b.Run("instrumented", func(b *testing.B) { run(b, false) })
	b.Run("baseline", func(b *testing.B) { run(b, true) })
}

// BenchmarkTraceOverhead quantifies what request-scoped tracing costs
// the hot ingest path: the same block ingest into a serve.Store, once
// with a Tracer wired (the censord default, spans created and recorded
// per batch/shard) and once without (the nil-receiver no-op path).
// Tracing is always on in production, so this is the price of every byte
// ingested; CI gates traced allocs/op within 1% of disabled
// (scripts/bench_gate.sh trace).
func BenchmarkTraceOverhead(b *testing.B) {
	f := fixture(b)
	path, _ := ingestBenchFile(b)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(f)

	run := func(b *testing.B, tr *trace.Tracer) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := serve.NewStore(serve.Config{Options: opts, Shards: 4, Tracer: tr})
			if err != nil {
				b.Fatal(err)
			}
			// The traced arm ingests under a live root span — the shape
			// of a POST /v1/ingest request — so per-shard apply spans,
			// the pipeline child span and publication all run for real.
			// With tr == nil the identical call sites no-op.
			ctx := trace.NewContext(context.Background(), tr.Root("bench.ingest"))
			b.StartTimer()
			added, _, err := st.IngestBlocksCtx(ctx, logfmt.NewBlockReader(bytes.NewReader(data)), 0)
			b.StopTimer()
			trace.FromContext(ctx).End()
			if err != nil {
				b.Fatal(err)
			}
			if added == 0 {
				b.Fatal("empty ingest")
			}
			st.Close()
			b.StartTimer()
		}
	}
	b.Run("traced", func(b *testing.B) {
		run(b, trace.New(trace.Config{Slow: trace.DefaultSlow}))
	})
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
}

// BenchmarkDocCache quantifies the read paths PR "read-path caching"
// trades between: cold is the pre-cache behavior (every GET renders the
// experiment from the snapshot), hit serves the cached bytes, and
// etag-304 revalidates with If-None-Match — no render, no body. CI gates
// hit B/op at a fifth of cold's (scripts/bench_gate.sh doccache);
// byte-identity between the arms is pinned by TestDocCacheByteIdentity in
// internal/serve.
func BenchmarkDocCache(b *testing.B) {
	f := fixture(b)
	store, err := serve.NewStore(serve.Config{Options: benchOpts(f), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Add(f.records); err != nil {
		b.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		b.Fatal(err)
	}

	const path = "/v1/tables/4"
	run := func(b *testing.B, srv *serve.Server, inm string, want int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("GET", path, nil)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, req)
			if rw.Code != want {
				b.Fatalf("status %d, want %d: %.200s", rw.Code, want, rw.Body.String())
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		srv := serve.NewServer(store, f.gen, serve.WithDocCacheBytes(0))
		run(b, srv, "", 200)
	})
	srv := serve.NewServer(store, f.gen)
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest("GET", path, nil))
	if warm.Code != 200 || warm.Header().Get("ETag") == "" {
		b.Fatalf("warmup: status %d, etag %q", warm.Code, warm.Header().Get("ETag"))
	}
	b.Run("hit", func(b *testing.B) { run(b, srv, "", 200) })
	b.Run("etag-304", func(b *testing.B) { run(b, srv, warm.Header().Get("ETag"), 304) })
}
