package core

import (
	"testing"
	"time"

	"syriafilter/internal/logfmt"
)

// Every result function must behave on an empty analyzer: no panics, sane
// zero values. This guards cmd/censorlyzer against degenerate inputs
// (e.g. an empty or fully corrupted log file).
func TestEmptyAnalyzerResults(t *testing.T) {
	a := NewAnalyzer(Options{})
	from := time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	to := time.Date(2011, 8, 2, 0, 0, 0, 0, time.UTC).Unix()

	if got := a.Table1(); len(got) != 4 || got[0].Requests != 0 {
		t.Errorf("Table1 = %+v", got)
	}
	if d := a.Dataset(DFull); d.Total != 0 || d.Censored() != 0 || d.Errors() != 0 {
		t.Errorf("Dataset = %+v", d)
	}
	al, ce := a.TopDomains(10)
	if len(al) != 0 || len(ce) != 0 {
		t.Errorf("TopDomains = %v / %v", al, ce)
	}
	if wins := a.Table5(from, to, 7200, 5); len(wins) != 12 {
		t.Errorf("Table5 windows = %d", len(wins))
	}
	m := a.ProxySimilarity()
	if len(m) != 7 || m[0][0] != 0 { // empty profiles: no self-similarity
		t.Errorf("similarity = %v", m)
	}
	if rows := a.RedirectHosts(5); len(rows) != 0 {
		t.Errorf("redirects = %v", rows)
	}
	d := a.DiscoverFilters(0)
	if len(d.Domains) != 0 || len(d.Keywords) != 0 {
		t.Errorf("discovery = %+v", d)
	}
	if rows := a.Table9(d); len(rows) != 0 {
		t.Errorf("table9 = %v", rows)
	}
	if rows := a.CountryRatios(); len(rows) != 0 {
		t.Errorf("countries = %v", rows)
	}
	if rows := a.IsraeliSubnets(); len(rows) != 0 {
		t.Errorf("subnets = %v", rows)
	}
	if rows := a.FacebookPages(); len(rows) != 0 {
		t.Errorf("pages = %v", rows)
	}
	if rows := a.SocialPlugins(10); len(rows) != 0 {
		t.Errorf("plugins = %v", rows)
	}
	rep := a.UserAnalysis()
	if rep.TotalUsers != 0 || rep.CensoredUsers != 0 {
		t.Errorf("users = %+v", rep)
	}
	if pts := a.RCV(from, to); len(pts) != 288 {
		t.Errorf("RCV points = %d", len(pts))
	}
	if pts := a.RFilter(from, to); pts != nil {
		t.Errorf("RFilter should be nil without censored relays, got %d points", len(pts))
	}
	tor := a.TorAnalysis()
	if tor.Total != 0 {
		t.Errorf("tor = %+v", tor)
	}
	anon := a.Anonymizers()
	if anon.Hosts != 0 || anon.NeverFiltered != 0 {
		t.Errorf("anonymizers = %+v", anon)
	}
	https := a.HTTPSAnalysis()
	if https.Total != 0 || https.ShareOfTraffic != 0 {
		t.Errorf("https = %+v", https)
	}
	bt := a.BitTorrent(nil)
	if bt.Announces != 0 || bt.AllowedShare != 0 {
		t.Errorf("bt = %+v", bt)
	}
	if gc := a.GoogleCache(); gc.Total != 0 {
		t.Errorf("gcache = %+v", gc)
	}
}

// Merging an empty analyzer is the identity.
func TestMergeEmptyIsIdentity(t *testing.T) {
	f := corpus(t)
	a := NewAnalyzer(Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()})
	for i := range f.records {
		a.Observe(&f.records[i])
	}
	before := a.Dataset(DFull)
	beforeTor := a.TorAnalysis()
	empty := NewAnalyzer(Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()})
	a.Merge(empty)
	if a.Dataset(DFull) != before {
		t.Error("merge with empty changed dataset counts")
	}
	if a.TorAnalysis() != beforeTor {
		t.Error("merge with empty changed tor counts")
	}
}

// Classification sanity on hand-built records.
func TestObserveSingleRecords(t *testing.T) {
	a := NewAnalyzer(Options{})
	rec := logfmt.Record{
		Time: time.Date(2011, 8, 2, 9, 0, 0, 0, time.UTC).Unix(),
		Host: "www.example.com", Port: 80, Path: "/x",
		Filter: logfmt.Observed, Exception: logfmt.ExNone,
	}
	rec.SetProxy(43)
	a.Observe(&rec)

	rec2 := rec
	rec2.Host = "blocked.example"
	rec2.Filter = logfmt.Denied
	rec2.Exception = logfmt.ExPolicyDenied
	a.Observe(&rec2)

	rec3 := rec
	rec3.Exception = logfmt.ExTCPError
	rec3.Filter = logfmt.Denied
	a.Observe(&rec3)

	d := a.Dataset(DFull)
	if d.Total != 3 || d.Allowed() != 1 || d.Censored() != 1 || d.Errors() != 1 {
		t.Fatalf("counts = %+v", d)
	}
	al, ce := a.TopDomains(5)
	if len(al) != 1 || al[0].Domain != "example.com" {
		t.Errorf("allowed = %v", al)
	}
	if len(ce) != 1 || ce[0].Domain != "blocked.example" {
		t.Errorf("censored = %v", ce)
	}
	loads := a.ProxyLoads()
	if loads[1].Total != 3 || loads[1].Censored != 1 { // SG-43
		t.Errorf("loads = %+v", loads)
	}
}

// The tokenizer drives keyword discovery; pin its behaviour.
func TestTokenizeURL(t *testing.T) {
	toks := TokenizeURL("www.Google.com", "/tbproxy/af/query", "q=israel+news&id=123abc999")
	want := map[string]bool{
		"google": true, "tbproxy": true, "query": true, "israel": true, "news": true,
	}
	got := map[string]bool{}
	for _, tok := range toks {
		got[tok] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing token %q in %v", w, toks)
		}
	}
	// Short runs and digit-broken runs excluded.
	for _, bad := range []string{"af", "q", "id", "abc", "www", "com"} {
		if got[bad] {
			t.Errorf("unexpected token %q", bad)
		}
	}
}

func TestTokenizeLengthBounds(t *testing.T) {
	long := "/" + string(make([]byte, 30))
	for i := range long[1:] {
		_ = i
	}
	toks := TokenizeURL("h.example", "/abcdefghijklmnopqrstuvwxyz", "")
	for _, tok := range toks {
		if len(tok) > 24 {
			t.Errorf("token over bound: %q", tok)
		}
	}
	_ = long
	if toks := TokenizeURL("", "/abc", ""); len(toks) != 0 {
		t.Errorf("3-char token kept: %v", toks)
	}
}

// Dsample membership is deterministic: the same record always lands in or
// out of the sample, so reruns and merges agree.
func TestSampleDeterministic(t *testing.T) {
	rec := logfmt.Record{
		Time: time.Date(2011, 8, 2, 9, 0, 0, 0, time.UTC).Unix(),
		Host: "determinism.example", Path: "/p",
	}
	in1 := sampleHit(&rec)
	for i := 0; i < 100; i++ {
		if sampleHit(&rec) != in1 {
			t.Fatal("sample membership flapped")
		}
	}
}

// Table 6's default label is the most frequent one, the smaller label on
// a tie: a proxy that stamped "none" and "unavailable" once each answers
// "none" whichever it saw first and however its engine is layered.
func TestProxyCategoryLabelTie(t *testing.T) {
	rec := logfmt.Record{
		Time: time.Date(2011, 8, 2, 9, 0, 0, 0, time.UTC).Unix(),
		Host: "www.example.com", Port: 80, Path: "/x",
		Filter: logfmt.Observed, Exception: logfmt.ExNone,
	}
	rec.SetProxy(43)
	none, unavailable := rec, rec
	none.Categories, unavailable.Categories = "none", "unavailable"
	for i := 0; i < 200; i++ {
		first, second := &none, &unavailable
		if i%2 == 1 {
			first, second = second, first
		}
		a := NewAnalyzer(Options{})
		a.Observe(first)
		if i%4 >= 2 {
			a = a.Clone() // the second label lands in an overlay
		}
		a.Observe(second)
		if got := a.ProxyCategoryLabels()[1]; got != "none" {
			t.Fatalf("engine %d: SG-43's label = %q, want %q", i, got, "none")
		}
	}
}
