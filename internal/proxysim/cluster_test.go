package proxysim

import (
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/synth"
	"syriafilter/internal/torsim"
)

func augTime(day, hour int) int64 {
	return time.Date(2011, 8, day, hour, 0, 0, 0, time.UTC).Unix()
}

func julyTime(day, hour int) int64 {
	return time.Date(2011, 7, day, hour, 0, 0, 0, time.UTC).Unix()
}

func testReq(host, path, query string, t int64) *synth.Request {
	return &synth.Request{
		Time: t, ClientIP: 0x1f400001, UserAgent: "ua",
		Method: "GET", Scheme: "http", Host: host, Port: 80,
		Path: path, Query: query,
	}
}

func TestProcessCensored(t *testing.T) {
	c := NewCluster(Config{Seed: 1})
	var rec logfmt.Record
	c.Process(testReq("www.metacafe.com", "/watch/123/", "", augTime(3, 10)), &rec)
	if rec.Exception != logfmt.ExPolicyDenied || rec.Filter == logfmt.Observed {
		t.Errorf("metacafe: %+v", rec)
	}
	if rec.Status != 403 || rec.SAction != "TCP_DENIED" {
		t.Errorf("deny rendering: status=%d action=%s", rec.Status, rec.SAction)
	}
	if got := rec.Proxy(); got != 48 && got != 45 {
		t.Errorf("metacafe routed to SG-%d, want 48 (or occasionally 45)", got)
	}
}

func TestProcessAllowed(t *testing.T) {
	c := NewCluster(Config{Seed: 1, Errors: ErrorModel{TCPError: -1}}) // negative: no errors ever drawn
	var rec logfmt.Record
	c.Process(testReq("www.example.com", "/page", "", augTime(2, 12)), &rec)
	if rec.Exception != logfmt.ExNone {
		t.Errorf("exception = %v", rec.Exception)
	}
	if rec.Filter == logfmt.Denied {
		t.Errorf("filter = %v", rec.Filter)
	}
	if rec.Status != 200 {
		t.Errorf("status = %d", rec.Status)
	}
}

func TestProcessRedirectCategories(t *testing.T) {
	c := NewCluster(Config{Seed: 2})
	var rec logfmt.Record
	// Targeted Facebook page: custom category label.
	for i := 0; i < 50; i++ { // sample until we see both label families
		c.Process(testReq("www.facebook.com", "/Syrian.Revolution", "ref=ts", augTime(3, 9)), &rec)
		if rec.Exception != logfmt.ExPolicyRedirect {
			t.Fatalf("page redirect: %+v", rec)
		}
		switch rec.Categories {
		case "Blocked sites", "Blocked sites; unavailable":
		default:
			t.Fatalf("custom category label = %q", rec.Categories)
		}
	}
	// Redirect host (Table 7): keeps the default label.
	c.Process(testReq("upload.youtube.com", "/upload/rupio", "id=1", augTime(3, 9)), &rec)
	if rec.Exception != logfmt.ExPolicyRedirect {
		t.Fatalf("upload redirect: %+v", rec)
	}
	if rec.Categories == "Blocked sites" || rec.Categories == "Blocked sites; unavailable" {
		t.Errorf("redirect host should keep default label, got %q", rec.Categories)
	}
	if rec.SAction != "tcp_policy_redirect" {
		t.Errorf("SAction = %q", rec.SAction)
	}
}

func TestJulyRoutesToSG42Only(t *testing.T) {
	c := NewCluster(Config{Seed: 3})
	var rec logfmt.Record
	for i := 0; i < 200; i++ {
		req := testReq("www.example.com", "/", "", julyTime(22, i%24))
		req.ClientIP = uint32(i) * 977
		c.Process(req, &rec)
		if rec.Proxy() != 42 {
			t.Fatalf("July request on SG-%d", rec.Proxy())
		}
		if rec.ClientIP == "0.0.0.0" || rec.ClientIP == "" {
			t.Fatalf("Duser window should carry hashed IPs, got %q", rec.ClientIP)
		}
	}
	// July 31 is SG-42 but outside the Duser hash window.
	c.Process(testReq("www.example.com", "/", "", julyTime(31, 10)), &rec)
	if rec.Proxy() != 42 || rec.ClientIP != "0.0.0.0" {
		t.Errorf("July 31: proxy=%d ip=%q", rec.Proxy(), rec.ClientIP)
	}
}

func TestAugustSpreadsAcrossProxies(t *testing.T) {
	c := NewCluster(Config{Seed: 4})
	var rec logfmt.Record
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		req := testReq("www.example.com", "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i) * 7919
		req.Host = "www.example.com"
		c.Process(req, &rec)
		seen[rec.Proxy()]++
		if rec.ClientIP != "0.0.0.0" {
			t.Fatalf("August IPs should be zeroed, got %q", rec.ClientIP)
		}
	}
	if len(seen) != logfmt.NumProxies {
		t.Fatalf("only %d proxies used: %v", len(seen), seen)
	}
	for sg, n := range seen {
		if n < 100 {
			t.Errorf("proxy SG-%d underused: %d", sg, n)
		}
	}
}

func TestCategoryLabelsPerProxy(t *testing.T) {
	c := NewCluster(Config{Seed: 5})
	var rec logfmt.Record
	labels := map[int]string{}
	for i := 0; i < 3000; i++ {
		req := testReq("site.example", "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i) * 104729
		c.Process(req, &rec)
		labels[rec.Proxy()] = rec.Categories
	}
	for sg, label := range labels {
		want := "unavailable"
		if sg == 43 || sg == 48 {
			want = "none"
		}
		if label != want {
			t.Errorf("SG-%d default label = %q, want %q", sg, label, want)
		}
	}
}

func TestErrorModelShares(t *testing.T) {
	c := NewCluster(Config{Seed: 6})
	var rec logfmt.Record
	var errors, total int
	perEx := map[logfmt.ExceptionID]int{}
	for i := 0; i < 200000; i++ {
		req := testReq("benign.example", "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
		total++
		if rec.Class() == logfmt.ClassError {
			errors++
			perEx[rec.Exception]++
		}
	}
	share := float64(errors) / float64(total)
	if share < 0.04 || share > 0.07 {
		t.Errorf("error share = %v, want ~0.053", share)
	}
	if perEx[logfmt.ExTCPError] < perEx[logfmt.ExInternalError] {
		t.Errorf("tcp_error (%d) should dominate internal_error (%d)",
			perEx[logfmt.ExTCPError], perEx[logfmt.ExInternalError])
	}
}

func TestProxiedRate(t *testing.T) {
	c := NewCluster(Config{Seed: 7})
	var rec logfmt.Record
	proxied := 0
	const n = 100000
	for i := 0; i < n; i++ {
		req := testReq("benign.example", "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
		if rec.Filter == logfmt.Proxied {
			proxied++
		}
	}
	rate := float64(proxied) / n
	if rate < 0.003 || rate > 0.007 {
		t.Errorf("proxied rate = %v, want ~0.0047", rate)
	}
}

func TestTorBlockingIsolatedToSG44(t *testing.T) {
	cons := torsim.NewConsensus(9, 300)
	c := NewCluster(Config{Seed: 9, Consensus: cons})
	var rec logfmt.Record
	censoredByProxy := map[int]int{}
	torTotal := 0
	for i := 0; i < 60000; i++ {
		relay := cons.Relay(i % cons.Len())
		req := &synth.Request{
			Time: augTime(1+(i%6), i%24), ClientIP: uint32(i) * 31,
			Method: "CONNECT", Scheme: "tcp",
			Host: relay.Host(), Port: relay.ORPort,
		}
		c.Process(req, &rec)
		torTotal++
		if rec.Class() == logfmt.ClassCensored {
			censoredByProxy[rec.Proxy()]++
		}
	}
	censored := 0
	for _, n := range censoredByProxy {
		censored += n
	}
	if censored == 0 {
		t.Fatal("no Tor traffic censored at all")
	}
	if frac := float64(censoredByProxy[44]) / float64(censored); frac < 0.95 {
		t.Errorf("SG-44 share of censored Tor = %v, want ~0.999", frac)
	}
	// Torhttp (dir fetches) must never be censored.
	dirCensored := 0
	for i := 0; i < 10000; i++ {
		relay := cons.Relay(i % cons.Len())
		if relay.DirPort == 0 {
			continue
		}
		req := &synth.Request{
			Time: augTime(1+(i%6), i%24), ClientIP: uint32(i) * 37,
			Method: "GET", Scheme: "http",
			Host: relay.Host(), Port: relay.DirPort,
			Path: "/tor/server/all.z",
		}
		c.Process(req, &rec)
		if rec.Class() == logfmt.ClassCensored {
			dirCensored++
		}
	}
	if dirCensored != 0 {
		t.Errorf("Torhttp censored %d times; paper: only Toronion is blocked", dirCensored)
	}
}

// Counts returns the processing totals so far.
func (c *Cluster) Counts() Counts { return c.counts }

func TestCountsConsistency(t *testing.T) {
	c := NewCluster(Config{Seed: 10})
	var rec logfmt.Record
	for i := 0; i < 5000; i++ {
		host := "ok.example"
		if i%50 == 0 {
			host = "www.metacafe.com"
		}
		req := testReq(host, "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
	}
	got := c.Counts()
	if got.Total != 5000 {
		t.Errorf("total = %d", got.Total)
	}
	if got.Allowed+got.Censored+got.Errors != got.Total {
		t.Errorf("classes don't add up: %+v", got)
	}
	if got.Censored < 80 {
		t.Errorf("censored = %d, want ~100", got.Censored)
	}
}

func TestDefaultEngineIsPaperPolicy(t *testing.T) {
	c := NewCluster(Config{Seed: 11})
	var rec logfmt.Record
	c.Process(testReq("x.il", "/", "", augTime(2, 3)), &rec)
	if rec.Class() != logfmt.ClassCensored {
		t.Error("default cluster engine should block .il")
	}
}

func TestPolicyDecisionIgnoresErrors(t *testing.T) {
	// Censored requests never carry network-error exceptions.
	em := DefaultErrorModel()
	em.TCPError = 0.9 // absurd error rate
	c := NewCluster(Config{Seed: 12, Errors: em})
	var rec logfmt.Record
	for i := 0; i < 500; i++ {
		req := testReq("skype.com", "/go", "", augTime(2, i%24))
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
		if rec.Class() != logfmt.ClassCensored {
			t.Fatalf("censored request got %v", rec.Exception)
		}
	}
}

func BenchmarkClusterProcess(b *testing.B) {
	c := NewCluster(Config{Seed: 1})
	req := testReq("www.facebook.com", "/plugins/like.php", "href=x&fb_proxy=1", augTime(3, 9))
	var rec logfmt.Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Process(req, &rec)
	}
}
