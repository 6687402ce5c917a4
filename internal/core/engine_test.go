package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/categorydb"
	"syriafilter/internal/geoip"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/pipeline"
)

// Metric returns the named module, or nil when it is not registered.
func (e *Engine) Metric(name string) Metric { return e.byName[name] }

// benchKeywords is a fixed blacklist so the bt render does not depend on
// running discovery first.
var btKeywords = []string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"}

// renderUserReport flattens the CDF pointers into deterministic text.
func renderUserReport(rep UserReport) string {
	return fmt.Sprintf("%d %d %v %.9f %.9f %.9f %.9f q50=%.3f/%.3f",
		rep.TotalUsers, rep.CensoredUsers, rep.CensoredPerUser,
		rep.ShareActiveCensored, rep.ShareActiveOthers,
		rep.MeanActivityCensored, rep.MeanActivityOthers,
		rep.ActivityCensored.Quantile(0.5), rep.ActivityOthers.Quantile(0.5))
}

func renderAnonymizers(rep AnonymizerReport) string {
	return fmt.Sprintf("%d %d %d %d q50=%.3f q90=%.3f ratio50=%.3f",
		rep.Hosts, rep.NeverFiltered, rep.Requests, rep.FilteredHosts,
		rep.RequestsCDF.Quantile(0.5), rep.RequestsCDF.Quantile(0.9),
		rep.RatioCDF.Quantile(0.5))
}

// experimentRender produces, per experiment id, a deterministic byte
// rendering of every result that experiment reads — the equivalence
// oracle for subset engines.
var experimentRender = map[string]func(*Analyzer) string{
	"table1":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.Table1()) },
	"table3":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.Table3()) },
	"table4":  func(a *Analyzer) string { al, ce := a.TopDomains(25); return fmt.Sprintf("%#v %#v", al, ce) },
	"table5":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.Table5(aug(3, 6), aug(3, 12), 2*3600, 10)) },
	"table6":  func(a *Analyzer) string { return fmt.Sprintf("%v %v", a.ProxySimilarity(), a.ProxyCategoryLabels()) },
	"table7":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.RedirectHosts(10)) },
	"table8":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.DiscoverFilters(0).Domains) },
	"table9":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.Table9(a.DiscoverFilters(0))) },
	"table10": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.DiscoverFilters(0).Keywords) },
	"table11": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.CountryRatios()) },
	"table12": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.IsraeliSubnets()) },
	"table13": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.SocialNetworks()) },
	"table14": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.FacebookPages()) },
	"table15": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.SocialPlugins(20)) },
	"fig1":    func(a *Analyzer) string { al, ce := a.PortDistribution(); return fmt.Sprintf("%#v %#v", al, ce) },
	"fig2":    func(a *Analyzer) string { return fmt.Sprintf("%#v", a.DomainFreqDistribution()) },
	"fig3": func(a *Analyzer) string {
		return fmt.Sprintf("%#v %#v", a.CensoredCategories(false), a.CensoredCategories(true))
	},
	"fig4": func(a *Analyzer) string { return renderUserReport(a.UserAnalysis()) },
	"fig5": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.TimeSeries(aug(1, 0), aug(7, 0))) },
	"fig6": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.RCV(aug(3, 0), aug(4, 0))) },
	"fig7": func(a *Analyzer) string {
		return fmt.Sprintf("%#v %v", a.ProxyLoads(), a.ProxyShareSeries(aug(3, 0), aug(3, 6), true))
	},
	"fig8": func(a *Analyzer) string {
		return fmt.Sprintf("%#v %#v", a.TorAnalysis(), a.TorHourly(aug(1, 0), aug(7, 0)))
	},
	"fig9":   func(a *Analyzer) string { return fmt.Sprintf("%#v", a.RFilter(aug(1, 0), aug(7, 0))) },
	"fig10":  func(a *Analyzer) string { return renderAnonymizers(a.Anonymizers()) },
	"https":  func(a *Analyzer) string { return fmt.Sprintf("%#v", a.HTTPSAnalysis()) },
	"bt":     func(a *Analyzer) string { return fmt.Sprintf("%#v", a.BitTorrent(btKeywords)) },
	"gcache": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.GoogleCache()) },
	"probing": func(a *Analyzer) string {
		d := a.Dataset(DFull)
		return fmt.Sprintf("%#v %#v", d, a.DiscoverFilters(0))
	},
	"groundtruth": func(a *Analyzer) string { return fmt.Sprintf("%#v", a.DiscoverFilters(0)) },
}

// Every subset engine must reproduce the full Analyzer's results
// byte-for-byte on the shared corpus.
func TestSubsetEnginesMatchFullAnalyzer(t *testing.T) {
	f := corpus(t)
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			render, ok := experimentRender[id]
			if !ok {
				t.Fatalf("no render oracle for experiment %q", id)
			}
			mods, err := ModulesFor(id)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := NewAnalyzerFor(Options{
				Categories: f.gen.CategoryDB(),
				Consensus:  f.gen.Consensus(),
				TitleDB:    bittorrent.NewTitleDB(),
			}, mods...)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sub.Metrics()); got != len(mods) {
				t.Fatalf("subset engine has %d modules, want %d", got, len(mods))
			}
			for i := range f.records {
				sub.Observe(&f.records[i])
			}
			want := render(f.analyzer)
			got := render(sub)
			if got != want {
				t.Errorf("subset result differs from full analyzer\n got: %.300s\nwant: %.300s", got, want)
			}
		})
	}
}

// Parallel per-file ingestion must merge deterministically: the same
// per-proxy file split analyzed with 1 worker and with GOMAXPROCS
// workers yields byte-identical results, which also match the serial
// in-memory reference.
func TestParallelPerFileIngestDeterministic(t *testing.T) {
	f := corpus(t)

	// Split the corpus per proxy, mirroring the real on-disk layout.
	parts := make([][]logfmt.Record, logfmt.NumProxies)
	for i := range f.records {
		pi := f.records[i].Proxy() - logfmt.FirstProxy
		parts[pi] = append(parts[pi], f.records[i])
	}

	opt := Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
	runWith := func(workers int) *Analyzer {
		srcs := make([]*pipeline.BlockSource, 0, len(parts))
		for _, part := range parts {
			srcs = append(srcs, blockSource(t, part))
		}
		an, _, err := pipeline.RunBlockSources(srcs, workers, nil,
			func() *Analyzer { return NewAnalyzer(opt) },
			func(a *Analyzer, r *logfmt.Record) { a.Observe(r) },
			func(dst, src *Analyzer) { dst.Merge(src) },
		)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}

	renderAll := func(a *Analyzer) string {
		var sb strings.Builder
		for _, id := range Experiments() {
			fmt.Fprintf(&sb, "%s: %s\n", id, experimentRender[id](a))
		}
		return sb.String()
	}

	serial := runWith(1)
	parallel := runWith(runtime.GOMAXPROCS(0))
	again := runWith(runtime.GOMAXPROCS(0))

	want := renderAll(f.analyzer)
	if got := renderAll(serial); got != want {
		t.Error("1-worker per-file ingest differs from serial reference")
	}
	if got := renderAll(parallel); got != want {
		t.Error("GOMAXPROCS per-file ingest differs from serial reference")
	}
	if renderAll(parallel) != renderAll(again) {
		t.Error("two GOMAXPROCS runs disagree: merge is not deterministic")
	}
}

func TestEngineRegistry(t *testing.T) {
	names := AllMetrics()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate module name %q", n)
		}
		seen[n] = true
	}
	// Module Name() methods must agree with their registry names.
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Metrics()
	if len(got) != len(names) {
		t.Fatalf("full engine has %d modules, registry has %d", len(got), len(names))
	}
	for i, n := range names {
		if got[i] != n {
			t.Errorf("module %d: Name() = %q, registry name %q", i, got[i], n)
		}
		if e.Metric(n) == nil {
			t.Errorf("Metric(%q) = nil on a full engine", n)
		}
	}
	// Every experiment's declared modules must exist.
	for id, mods := range experimentModules {
		for _, m := range mods {
			if !seen[m] {
				t.Errorf("experiment %q names unknown module %q", id, m)
			}
		}
	}
}

// The default databases are built once: an engine per cut, range window
// and restored segment must not each parse the seed tables again. A
// caller's own database is left alone.
func TestDefaultEnginesShareDatabases(t *testing.T) {
	a, _ := NewEngine(Options{}, "datasets")
	b, _ := NewEngine(Options{})
	if a.opt.GeoDB == nil || a.opt.GeoDB != b.opt.GeoDB {
		t.Errorf("default engines hold GeoDBs %p and %p, want one shared instance", a.opt.GeoDB, b.opt.GeoDB)
	}
	if a.opt.Categories == nil || a.opt.Categories != b.opt.Categories {
		t.Errorf("default engines hold category DBs %p and %p, want one shared instance", a.opt.Categories, b.opt.Categories)
	}
	own := Options{GeoDB: geoip.SyriaEra(), Categories: categorydb.PaperSeed()}
	c, _ := NewEngine(own)
	if c.opt.GeoDB != own.GeoDB || c.opt.Categories != own.Categories {
		t.Error("NewEngine replaced the caller's databases with the defaults")
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine(Options{}, "nope"); err == nil {
		t.Error("unknown module name should error")
	}
	if _, err := NewAnalyzerFor(Options{}, "datasets", "bogus"); err == nil {
		t.Error("unknown module name should error")
	}
	if _, err := ModulesFor("table99"); err == nil {
		t.Error("unknown experiment id should error")
	}

	// Asking a subset engine for a result it was not built for panics
	// with a message naming the module.
	sub, err := NewAnalyzerFor(Options{}, "datasets")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("expected panic from missing module")
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "domains") {
				t.Errorf("panic message should name the missing module: %v", msg)
			}
		}()
		sub.TopDomains(5)
	}()

	// Merging engines with different module sets panics.
	a, _ := NewEngine(Options{}, "datasets")
	b, _ := NewEngine(Options{}, "datasets", "domains")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from mismatched merge")
			}
		}()
		a.Merge(b)
	}()
}

func TestModulesForUnion(t *testing.T) {
	mods, err := ModulesFor("table1", "table4", "fig5", "table8")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"datasets", "domains", "timeseries", "tokens"}
	if len(mods) != len(want) {
		t.Fatalf("modules = %v, want %v", mods, want)
	}
	for i := range want {
		if mods[i] != want[i] {
			t.Fatalf("modules = %v, want %v (canonical order)", mods, want)
		}
	}
}

// A projected fold must read like a subset engine that saw the records
// itself: for every module alone and every pair, folding a full source
// (in two parts, as a range read folds several buckets) into an engine
// built with only those modules encodes the same state bytes.
func TestMergeProjectedMatchesSubsetEngine(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)
	recs := f.records[:20000]
	half1, half2 := NewAnalyzer(opt), NewAnalyzer(opt)
	for i := range recs {
		if i < len(recs)/2 {
			half1.Observe(&recs[i])
		} else {
			half2.Observe(&recs[i])
		}
	}

	names := AllMetrics()
	var subsets [][]string
	for i, m := range names {
		subsets = append(subsets, []string{m})
		for _, n := range names[i+1:] {
			subsets = append(subsets, []string{m, n})
		}
	}
	for _, mods := range subsets {
		want, err := NewEngine(opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			want.Observe(&recs[i])
		}
		got, err := NewEngine(opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		got.MergeProjected(half1.Engine)
		got.MergeProjected(half2.Engine)
		if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
			t.Errorf("%v: projected fold of a full engine differs from a subset engine over the same records", mods)
		}
	}
}

// Projection only narrows: a destination module the source lacks still
// panics, naming both module sets.
func TestMergeProjectedPanicsOnMissingSourceModule(t *testing.T) {
	dst, _ := NewEngine(Options{}, "datasets", "domains")
	src, _ := NewEngine(Options{}, "datasets")
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "different module sets") {
			t.Errorf("MergeProjected from a narrower source: recovered %q, want the module-set panic", msg)
		}
	}()
	dst.MergeProjected(src)
}
