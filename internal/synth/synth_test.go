package synth

import (
	"strings"
	"testing"
	"time"

	"syriafilter/internal/categorydb"
	"syriafilter/internal/policy"
)

func smallGen(t *testing.T, seed uint64) *Generator {
	t.Helper()
	g, err := New(Config{Seed: seed, TotalRequests: 60000})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func drain(g *Generator) []Request {
	var out []Request
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{Seed: 1, TotalRequests: 0}); err == nil {
		t.Error("zero TotalRequests accepted")
	}
	if _, err := New(Config{Seed: 1, TotalRequests: 100}); err == nil {
		t.Error("tiny corpus accepted")
	}
	cfg := Config{TotalRequests: 50000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Users == 0 || cfg.TailDomains == 0 || cfg.AnonymizerHosts != 821 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestDeterminism(t *testing.T) {
	a := drain(smallGen(t, 7))
	b := drain(smallGen(t, 7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := drain(smallGen(t, 8))
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical corpora")
		}
	}
}

func TestTimeOrderingAndWindow(t *testing.T) {
	reqs := drain(smallGen(t, 3))
	if len(reqs) < 50000 {
		t.Fatalf("only %d requests generated", len(reqs))
	}
	start := time.Date(2011, 7, 22, 0, 0, 0, 0, time.UTC).Unix()
	end := time.Date(2011, 8, 7, 0, 0, 0, 0, time.UTC).Unix()
	prev := int64(0)
	for i, r := range reqs {
		if r.Time < prev {
			t.Fatalf("request %d out of order: %d after %d", i, r.Time, prev)
		}
		prev = r.Time
		if r.Time < start || r.Time >= end {
			t.Fatalf("request %d outside observation window: %s", i, time.Unix(r.Time, 0).UTC())
		}
	}
}

func TestVolumeNearTarget(t *testing.T) {
	reqs := drain(smallGen(t, 5))
	n := len(reqs)
	if n < 54000 || n > 70000 {
		t.Errorf("realized corpus size %d, want ~60000", n)
	}
}

func TestCorpusContainsAllTrafficKinds(t *testing.T) {
	g := smallGen(t, 11)
	cons := g.Consensus()
	reqs := drain(g)
	var hasConnect, hasTor, hasBT, hasPlugin, hasIsraeliIP, hasFBPage,
		hasUpload, hasGCache, hasAnnounceProxyTracker, hasMetacafe, hasAnon bool
	for i := range reqs {
		r := &reqs[i]
		if r.Method == "CONNECT" {
			hasConnect = true
		}
		if _, ok := cons.LookupHost(r.Host, r.Port); ok {
			hasTor = true
		}
		if strings.HasPrefix(r.Query, "info_hash=") {
			hasBT = true
			if r.Host == "tracker-proxy.furk.net" {
				hasAnnounceProxyTracker = true
			}
		}
		if strings.HasPrefix(r.Path, "/plugins/") || strings.HasPrefix(r.Path, "/extern/") {
			hasPlugin = true
		}
		if strings.HasPrefix(r.Host, "84.229.") || strings.HasPrefix(r.Host, "212.150.") {
			hasIsraeliIP = true
		}
		if r.Host == "www.facebook.com" && strings.HasPrefix(r.Path, "/Syrian.") {
			hasFBPage = true
		}
		if r.Host == "upload.youtube.com" {
			hasUpload = true
		}
		if r.Host == "webcache.googleusercontent.com" {
			hasGCache = true
		}
		if r.Host == "www.metacafe.com" {
			hasMetacafe = true
		}
		if strings.Contains(r.Host, "vtunnel-") || strings.Contains(r.Host, "hidebrowse-") {
			hasAnon = true
		}
	}
	checks := map[string]bool{
		"CONNECT":            hasConnect,
		"Tor":                hasTor,
		"BitTorrent":         hasBT,
		"FB plugin":          hasPlugin,
		"Israeli IP":         hasIsraeliIP,
		"targeted FB page":   hasFBPage,
		"upload.youtube.com": hasUpload,
		"Google cache":       hasGCache,
		"censored tracker":   hasAnnounceProxyTracker,
		"metacafe":           hasMetacafe,
		"anonymizer":         hasAnon,
	}
	for name, ok := range checks {
		if !ok {
			t.Errorf("corpus lacks %s traffic", name)
		}
	}
}

func TestGroundTruthCensoredShare(t *testing.T) {
	g := smallGen(t, 13)
	engine := g.Engine()
	total, censored := 0, 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		total++
		preq := policy.Request{Host: r.Host, Port: r.Port, Path: r.Path, Query: r.Query, Scheme: r.Scheme, Method: r.Method}
		if engine.Evaluate(&preq).Action != policy.Allow {
			censored++
		}
	}
	share := float64(censored) / float64(total)
	// The paper's Dfull shows ~0.98% policy-censored traffic.
	if share < 0.004 || share > 0.022 {
		t.Errorf("ground-truth censored share = %v, want ~0.01", share)
	}
}

func TestAug3IMSurge(t *testing.T) {
	g, err := New(Config{Seed: 17, TotalRequests: 250000})
	if err != nil {
		t.Fatal(err)
	}
	aug3 := time.Date(2011, 8, 3, 0, 0, 0, 0, time.UTC).Unix()
	imPeak, imOff := 0, 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Time < aug3 || r.Time >= aug3+24*3600 {
			continue
		}
		isIM := strings.Contains(r.Host, "skype") || r.Host == "messenger.live.com"
		if !isIM {
			continue
		}
		h := float64(r.Time-aug3) / 3600
		switch {
		case h >= 8 && h < 9.5:
			imPeak++
		case h >= 12 && h < 16:
			imOff++
		}
	}
	// Per-hour IM rate in the 8:00–9:30 window must far exceed the
	// afternoon rate (Fig. 6's RCV peak).
	peakRate := float64(imPeak) / 1.5
	offRate := float64(imOff) / 4
	if imPeak == 0 || peakRate < 2*offRate {
		t.Errorf("IM surge missing: peak %.1f/h vs off %.1f/h", peakRate, offRate)
	}
}

func TestFridayDrop(t *testing.T) {
	g, err := New(Config{Seed: 19, TotalRequests: 150000})
	if err != nil {
		t.Fatal(err)
	}
	perDay := map[string]int{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		perDay[time.Unix(r.Time, 0).UTC().Format("2006-01-02")]++
	}
	if perDay["2011-08-05"] >= perDay["2011-08-02"]*3/4 {
		t.Errorf("Friday Aug 5 (%d) should be well below Aug 2 (%d)",
			perDay["2011-08-05"], perDay["2011-08-02"])
	}
	if perDay["2011-07-22"] >= perDay["2011-08-02"]/4 {
		t.Errorf("July days (%d) should be small vs August (%d)",
			perDay["2011-07-22"], perDay["2011-08-02"])
	}
}

func TestRulesetIncludesGeneratedDomains(t *testing.T) {
	g := smallGen(t, 23)
	rs := g.Ruleset()
	// ~105 suspected domains: paper-named + generated.
	if len(rs.Domains) < 90 || len(rs.Domains) > 130 {
		t.Errorf("domain blacklist size = %d, want ~105", len(rs.Domains))
	}
	found := false
	for _, d := range rs.Domains {
		if strings.HasPrefix(d, "syria-news-") {
			found = true
			break
		}
	}
	if !found {
		t.Error("generated news domains missing from ruleset")
	}
}

func TestCategoryDBCoversGeneratedHosts(t *testing.T) {
	g := smallGen(t, 29)
	db := g.CategoryDB()
	if db.Classify("syria-news-01.info") != "General News" {
		t.Error("generated news domain not categorized")
	}
	if db.Classify("vtunnel-000.net") != categorydb.CatAnonymizer {
		t.Error("generated anonymizer not categorized")
	}
}

func TestUserAgentsAndIPsStable(t *testing.T) {
	g := smallGen(t, 31)
	reqs := drain(g)
	agents := map[uint32]string{}
	for i := range reqs {
		r := &reqs[i]
		if prev, ok := agents[r.ClientIP]; ok && prev != r.UserAgent {
			t.Fatalf("client %x changed user agent", r.ClientIP)
		}
		agents[r.ClientIP] = r.UserAgent
	}
	if len(agents) < 300 {
		t.Errorf("only %d distinct clients", len(agents))
	}
}

func BenchmarkGenerate(b *testing.B) {
	newGen := func(seed uint64) *Generator {
		g, err := New(Config{Seed: seed, TotalRequests: 1000000})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	g := newGen(1)
	seed := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			// Corpus exhausted: roll a fresh one (setup cost excluded).
			b.StopTimer()
			seed++
			g = newGen(seed)
			b.StartTimer()
		}
	}
}
