package repro

// Micro-benchmarks for working on one piece at a time: one benchmark per
// paper table and figure (the cost of regenerating that artifact from an
// analyzed corpus), the end-to-end stages (generate -> filter ->
// analyze), the ablations called out in DESIGN.md §10, and the pairs the
// CI gates compare (trace overhead, doc-cache speedup). The recorded
// performance ledger is bench/ (`bash bench/run.sh`, BENCHMARK.json).
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/geoip"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/serve"
	"syriafilter/internal/stats"
	"syriafilter/internal/strmatch"
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
		cluster := proxysim.NewCluster(proxysim.Config{
			Seed: 99, Engine: gen.Engine(), Consensus: gen.Consensus(),
		})
		an := core.NewAnalyzer(core.Options{
			Categories: gen.CategoryDB(),
			Consensus:  gen.Consensus(),
			TitleDB:    bittorrent.NewTitleDB(),
		})
		var recs []logfmt.Record
		var rec logfmt.Record
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			cluster.Process(&req, &rec)
			an.Observe(&rec)
			recs = append(recs, rec)
		}
		benchFix = &benchFixture{gen: gen, analyzer: an, records: recs}
	})
	return benchFix
}

func aug(day, hour int) int64 {
	return time.Date(2011, 8, day, hour, 0, 0, 0, time.UTC).Unix()
}

// --- End-to-end stages ---

func BenchmarkGenerateAndFilter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen, err := synth.New(synth.Config{Seed: uint64(i + 1), TotalRequests: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		cluster := proxysim.NewCluster(proxysim.Config{
			Seed: uint64(i + 1), Engine: gen.Engine(), Consensus: gen.Consensus(),
		})
		var rec logfmt.Record
		n := 0
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			cluster.Process(&req, &rec)
			n++
		}
		b.SetBytes(int64(n))
	}
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

// --- End-to-end file ingestion: scanner layer vs block layer ---

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
// log file — the worst case for the scanner layer, whose parsing runs on
// a single goroutine per file.
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
// MB/s of file bytes. The scanner sub-benchmark decodes on one goroutine
// feeding the worker pool; the blocks sub-benchmark ships raw
// line-aligned blocks to the pool so the parse itself parallelizes —
// the speedup scales with GOMAXPROCS.
func BenchmarkIngestEndToEnd(b *testing.B) {
	f := fixture(b)
	path, size := ingestBenchFile(b)
	opts := benchOpts(f)
	newAcc := func() *core.Analyzer { return core.NewAnalyzer(opts) }
	observe := func(a *core.Analyzer, r *logfmt.Record) { a.Observe(r) }
	merge := func(dst, src *core.Analyzer) { dst.Merge(src) }

	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an, err := pipeline.RunFiles([]string{path}, 0, newAcc, observe, merge)
			if err != nil {
				b.Fatal(err)
			}
			if an.Dataset(core.DFull).Total == 0 {
				b.Fatal("empty")
			}
		}
	})
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
	b.Run("blocks-sketch", func(b *testing.B) {
		sketchOpts := opts.WithSketches(0, 0)
		newSketch := func() *core.Analyzer { return core.NewAnalyzer(sketchOpts) }
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an, stats, err := pipeline.RunFilesBlocks([]string{path}, 0, newSketch, observe, merge)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Records == 0 || an.Dataset(core.DFull).Total == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- Tables and figures: subset-engine benchmarks ---
//
// Each benchmark measures producing one paper artifact end to end on a
// subset engine: ingest the 200k-record corpus into exactly the metric
// modules that experiment reads, then compute its results. The
// *FullEngine variants ingest into all modules, quantifying what the
// subset selection saves.

func benchOpts(f *benchFixture) core.Options {
	return core.Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
}

func benchExperiment(b *testing.B, ids []string, full bool, result func(*core.Analyzer)) {
	f := fixture(b)
	var mods []string
	if !full {
		var err error
		mods, err = core.ModulesFor(ids...)
		if err != nil {
			b.Fatal(err)
		}
	}
	opts := benchOpts(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.NewAnalyzerFor(opts, mods...)
		if err != nil {
			b.Fatal(err)
		}
		for j := range f.records {
			an.Observe(&f.records[j])
		}
		result(an)
	}
	b.SetBytes(int64(len(f.records)))
}

func BenchmarkTable1Datasets(b *testing.B) {
	benchExperiment(b, []string{"table1"}, false, func(a *core.Analyzer) {
		if got := a.Table1(); len(got) != 4 {
			b.Fatal("bad table 1")
		}
	})
}

func BenchmarkTable3Traffic(b *testing.B) {
	benchExperiment(b, []string{"table3"}, false, func(a *core.Analyzer) {
		t3 := a.Table3()
		if t3[core.DFull].Total == 0 {
			b.Fatal("empty")
		}
	})
}

func BenchmarkTable4TopDomains(b *testing.B) {
	benchExperiment(b, []string{"table4"}, false, func(a *core.Analyzer) {
		al, ce := a.TopDomains(10)
		if len(al) == 0 || len(ce) == 0 {
			b.Fatal("empty")
		}
	})
}

func BenchmarkTable5PeakDomains(b *testing.B) {
	benchExperiment(b, []string{"table5"}, false, func(a *core.Analyzer) {
		if got := a.Table5(aug(3, 6), aug(3, 12), 2*3600, 10); len(got) != 3 {
			b.Fatal("bad windows")
		}
	})
}

func BenchmarkTable6Similarity(b *testing.B) {
	benchExperiment(b, []string{"table6"}, false, func(a *core.Analyzer) {
		if m := a.ProxySimilarity(); len(m) != 7 {
			b.Fatal("bad matrix")
		}
	})
}

func BenchmarkTable7Redirects(b *testing.B) {
	benchExperiment(b, []string{"table7"}, false, func(a *core.Analyzer) {
		a.RedirectHosts(5)
	})
}

func BenchmarkTable8DomainDiscovery(b *testing.B) {
	benchExperiment(b, []string{"table8"}, false, func(a *core.Analyzer) {
		if d := a.DiscoverFilters(0); len(d.Domains) == 0 {
			b.Fatal("no domains")
		}
	})
}

func BenchmarkTable9Categories(b *testing.B) {
	benchExperiment(b, []string{"table9"}, false, func(a *core.Analyzer) {
		if rows := a.Table9(a.DiscoverFilters(0)); len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkTable10Keywords(b *testing.B) {
	benchExperiment(b, []string{"table10"}, false, func(a *core.Analyzer) {
		if d := a.DiscoverFilters(0); len(d.Keywords) == 0 {
			b.Fatal("no keywords")
		}
	})
}

func BenchmarkTable11Countries(b *testing.B) {
	benchExperiment(b, []string{"table11"}, false, func(a *core.Analyzer) {
		if rows := a.CountryRatios(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkTable12Subnets(b *testing.B) {
	benchExperiment(b, []string{"table12"}, false, func(a *core.Analyzer) {
		a.IsraeliSubnets()
	})
}

// BenchmarkTable12SubnetsFullEngine is the acceptance baseline: the same
// artifact computed on a full engine. The subset variant above must be at
// least 2x faster.
func BenchmarkTable12SubnetsFullEngine(b *testing.B) {
	benchExperiment(b, nil, true, func(a *core.Analyzer) {
		a.IsraeliSubnets()
	})
}

func BenchmarkTable13OSN(b *testing.B) {
	benchExperiment(b, []string{"table13"}, false, func(a *core.Analyzer) {
		if rows := a.SocialNetworks(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkTable14FBPages(b *testing.B) {
	benchExperiment(b, []string{"table14"}, false, func(a *core.Analyzer) {
		a.FacebookPages()
	})
}

func BenchmarkTable15Plugins(b *testing.B) {
	benchExperiment(b, []string{"table15"}, false, func(a *core.Analyzer) {
		a.SocialPlugins(10)
	})
}

func BenchmarkFig1Ports(b *testing.B) {
	benchExperiment(b, []string{"fig1"}, false, func(a *core.Analyzer) {
		al, ce := a.PortDistribution()
		if len(al) == 0 || len(ce) == 0 {
			b.Fatal("empty")
		}
	})
}

func BenchmarkFig2PowerLaw(b *testing.B) {
	benchExperiment(b, []string{"fig2"}, false, func(a *core.Analyzer) {
		if s := a.DomainFreqDistribution(); len(s) != 3 {
			b.Fatal("bad series")
		}
	})
}

func BenchmarkFig3Categories(b *testing.B) {
	benchExperiment(b, []string{"fig3"}, false, func(a *core.Analyzer) {
		if rows := a.CensoredCategories(false); len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkFig4Users(b *testing.B) {
	benchExperiment(b, []string{"fig4"}, false, func(a *core.Analyzer) {
		if rep := a.UserAnalysis(); rep.TotalUsers == 0 {
			b.Fatal("no users")
		}
	})
}

func BenchmarkFig5TimeSeries(b *testing.B) {
	benchExperiment(b, []string{"fig5"}, false, func(a *core.Analyzer) {
		if s := a.TimeSeries(aug(1, 0), aug(7, 0)); len(s) == 0 {
			b.Fatal("empty")
		}
	})
}

func BenchmarkFig6RCV(b *testing.B) {
	benchExperiment(b, []string{"fig6"}, false, func(a *core.Analyzer) {
		if pts := a.RCV(aug(3, 0), aug(4, 0)); len(pts) != 288 {
			b.Fatal("bad points")
		}
	})
}

func BenchmarkFig7ProxyLoad(b *testing.B) {
	benchExperiment(b, []string{"fig7"}, false, func(a *core.Analyzer) {
		a.ProxyLoads()
		a.ProxyShareSeries(aug(3, 0), aug(5, 0), true)
	})
}

func BenchmarkFig8Tor(b *testing.B) {
	benchExperiment(b, []string{"fig8"}, false, func(a *core.Analyzer) {
		a.TorAnalysis()
		a.TorHourly(aug(1, 0), aug(7, 0))
	})
}

func BenchmarkFig9RFilter(b *testing.B) {
	benchExperiment(b, []string{"fig9"}, false, func(a *core.Analyzer) {
		a.RFilter(aug(1, 0), aug(7, 0))
	})
}

func BenchmarkFig10Anonymizers(b *testing.B) {
	benchExperiment(b, []string{"fig10"}, false, func(a *core.Analyzer) {
		if rep := a.Anonymizers(); rep.Hosts == 0 {
			b.Fatal("no hosts")
		}
	})
}

func BenchmarkHTTPS(b *testing.B) {
	benchExperiment(b, []string{"https"}, false, func(a *core.Analyzer) {
		if rep := a.HTTPSAnalysis(); rep.Total == 0 {
			b.Fatal("no https")
		}
	})
}

func BenchmarkBitTorrent(b *testing.B) {
	kws := []string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"}
	benchExperiment(b, []string{"bt"}, false, func(a *core.Analyzer) {
		if rep := a.BitTorrent(kws); rep.Announces == 0 {
			b.Fatal("no announces")
		}
	})
}

func BenchmarkGoogleCache(b *testing.B) {
	benchExperiment(b, []string{"gcache"}, false, func(a *core.Analyzer) {
		a.GoogleCache()
	})
}

// --- Ablations (DESIGN.md §10) ---

var ablationText = "www.facebook.com/plugins/like.php?href=http%3A%2F%2Fsite-042.example.com&layout=standard&app_id=123456"

func BenchmarkAblationKeywordMatchAhoCorasick(b *testing.B) {
	ac := strmatch.NewAhoCorasick([]string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ac.Contains(ablationText)
	}
}

func BenchmarkAblationKeywordMatchNaive(b *testing.B) {
	pats := []string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		strmatch.ContainsNaive(pats, ablationText)
	}
}

func BenchmarkAblationTopKSketch(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := stats.NewTopK(256)
		for j := range f.records {
			tk.Add(f.records[j].Host)
		}
		if len(tk.Top(10)) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAblationTopKExact(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCounter()
		for j := range f.records {
			c.Add(f.records[j].Host)
		}
		if len(c.Top(10)) == 0 {
			b.Fatal("empty")
		}
	}
}

func benchPipeline(b *testing.B, workers int) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := pipeline.Run(pipeline.NewSliceScanner(f.records), workers,
			func() *core.Analyzer {
				return core.NewAnalyzer(core.Options{
					Categories: f.gen.CategoryDB(),
					Consensus:  f.gen.Consensus(),
				})
			},
			func(a *core.Analyzer, r *logfmt.Record) { a.Observe(r) },
			func(dst, src *core.Analyzer) { dst.Merge(src) },
		)
		if err != nil {
			b.Fatal(err)
		}
		if acc.Dataset(core.DFull).Total == 0 {
			b.Fatal("empty")
		}
	}
	b.SetBytes(int64(len(f.records)))
}

func BenchmarkAblationPipelineSerial(b *testing.B)   { benchPipeline(b, 1) }
func BenchmarkAblationPipelineParallel(b *testing.B) { benchPipeline(b, 0) }

func BenchmarkAblationGeoIPBinary(b *testing.B) {
	db := geoip.SyriaEra()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Lookup(0xd4960701) // 212.150.7.1
	}
}

func BenchmarkAblationGeoIPLinear(b *testing.B) {
	db := geoip.SyriaEra()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.LookupLinear(0xd4960701)
	}
}

func BenchmarkAblationParseFast(b *testing.B) {
	f := fixture(b)
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	for i := 0; i < 1000; i++ {
		_ = w.Write(&f.records[i])
	}
	_ = w.Flush()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var rec logfmt.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := logfmt.ParseLine(lines[i%len(lines)], &rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationParseEncodingCSV(b *testing.B) {
	f := fixture(b)
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	for i := 0; i < 1000; i++ {
		_ = w.Write(&f.records[i])
	}
	_ = w.Flush()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := csv.NewReader(strings.NewReader(lines[i%len(lines)]))
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
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

func benchOptions(f *benchFixture) core.Options {
	return core.Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
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
	opt := benchOptions(f)
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
	p := benchPartition(b, f, benchOptions(f), 256)
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

// BenchmarkSnapshotCut measures one snapshot rebuild of a loaded store
// (hourly buckets, every module) against the shard count. The shards
// fold their partitions concurrently, each into its own engine, and the
// engines are then merged in shard order: shards=1 is the cost of the
// fold alone (no second engine, no extra merge); more shards add merges
// and, given CPUs, overlap the folds. Run it with -cpu 1,2 to see both.
func BenchmarkSnapshotCut(b *testing.B) {
	f := fixture(b)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st, err := serve.NewStore(serve.Config{Options: benchOptions(f), Shards: shards, Bucket: time.Hour, DisableObs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Add(f.records); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Refresh(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An unchanged store skips the rebuild: move it by one record.
				if _, err := st.Add(f.records[i%len(f.records) : i%len(f.records)+1]); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointRoundTrip measures the state codec on a full
// analyzed engine: encode + decode of every metric module's state (the
// per-shard work of a serve.Store checkpoint/restore cycle, before
// gzip). SetBytes is the encoded state size, so the run reports codec
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

// BenchmarkCheckpointEncode isolates the write half (what a periodic
// checkpoint costs the shard goroutine, before gzip).
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

// BenchmarkObsOverhead quantifies what the internal/obs instrumentation
// costs the hot ingest path: the same block ingest into a serve.Store,
// once with the metrics registry wired (the default) and once with
// Config.DisableObs (the zero-value storeMetrics, whose nil counters
// and histograms no-op). The acceptance bar is instrumented within a
// few percent of baseline MB/s.
func BenchmarkObsOverhead(b *testing.B) {
	f := fixture(b)
	var buf bytes.Buffer
	w := logfmt.NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		b.Fatal(err)
	}
	for i := range f.records {
		if err := w.Write(&f.records[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
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
// per batch/shard) and once without (the nil-receiver no-op path). The
// acceptance bar is traced within ~2% of disabled MB/s — tracing is
// always on in production, so this is the price of every byte ingested.
func BenchmarkTraceOverhead(b *testing.B) {
	f := fixture(b)
	var buf bytes.Buffer
	w := logfmt.NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		b.Fatal(err)
	}
	for i := range f.records {
		if err := w.Write(&f.records[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
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
// etag-304 revalidates with If-None-Match — no render, no body. The CI
// bench-smoke gate holds hit to >= 10x cold; byte-identity between the
// arms is pinned by TestDocCacheByteIdentity in internal/serve.
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
