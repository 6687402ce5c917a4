package policy

import (
	"testing"
	"testing/quick"

	"syriafilter/internal/urlx"
)

func paperEngine() *Engine { return Compile(PaperRuleset()) }

func req(host, path, query string) *Request {
	return &Request{Host: host, Path: path, Query: query, Scheme: "http", Method: "GET", Port: 80}
}

func TestKeywordFiltering(t *testing.T) {
	e := paperEngine()
	cases := []struct {
		host, path, query string
		want              Action
		kind              RuleKind
		match             string
	}{
		// The Google toolbar collateral damage of §5.4.
		{"www.google.com", "/tbproxy/af/query", "q=hello", Deny, KindKeyword, "proxy"},
		// Facebook social plugins (Table 15).
		{"www.facebook.com", "/ajax/proxy.php", "x=1", Deny, KindKeyword, "proxy"},
		{"www.facebook.com", "/plugins/like.php", "href=a&proxy=b", Deny, KindKeyword, "proxy"},
		// Keyword in the host itself.
		{"myproxy4u.example", "/", "", Deny, KindKeyword, "proxy"},
		{"www.hotspotshield.com", "/download", "", Deny, KindKeyword, "hotspotshield"},
		{"ultrareach.example", "/", "", Deny, KindKeyword, "ultrareach"},
		{"news.example", "/world/israel-report", "", Deny, KindKeyword, "israel"},
		{"dl.example", "/ultrasurf.zip", "", Deny, KindKeyword, "ultrasurf"},
		// Benign.
		{"www.google.com", "/search", "q=weather", Allow, KindNone, ""},
	}
	for _, tc := range cases {
		v := e.Evaluate(req(tc.host, tc.path, tc.query))
		if v.Action != tc.want || v.Kind != tc.kind || (tc.match != "" && v.Match != tc.match) {
			t.Errorf("Evaluate(%s%s?%s) = %+v, want %v/%v/%q",
				tc.host, tc.path, tc.query, v, tc.want, tc.kind, tc.match)
		}
	}
}

func TestDomainFiltering(t *testing.T) {
	e := paperEngine()
	deny := []string{
		"metacafe.com", "www.metacafe.com", "skype.com", "download.skype.com",
		"wikimedia.org", "upload.wikimedia.org", "panet.co.il", "anything.il",
		"amazon.com", "jumblo.com", "badoo.com", "netlog.com", "ceipmsn.com",
		"messenger.live.com",
	}
	for _, h := range deny {
		v := e.Evaluate(req(h, "/", ""))
		if v.Action != Deny || v.Kind != KindDomain {
			t.Errorf("domain %s: %+v", h, v)
		}
	}
	allow := []string{
		"www.live.com", // only messenger hosts are blocked
		"mail.google.com", "twitter.com", "notmetacafe.com", "ilx.example",
	}
	for _, h := range allow {
		v := e.Evaluate(req(h, "/", ""))
		if v.Action != Allow {
			t.Errorf("host %s should be allowed: %+v", h, v)
		}
	}
}

func TestIPRangeFiltering(t *testing.T) {
	e := paperEngine()
	deny := []string{
		"84.229.0.0", "84.229.255.255", "46.120.1.2", "46.121.200.9",
		"89.138.0.1", "89.139.255.254", "212.235.64.1", "212.235.95.255",
		"212.150.10.1", "212.150.20.2", "212.150.30.3",
		"94.75.200.10", "94.75.200.11",
	}
	for _, h := range deny {
		v := e.Evaluate(req(h, "", ""))
		if v.Action != Deny || v.Kind != KindIPRange {
			t.Errorf("IP %s: %+v", h, v)
		}
	}
	allow := []string{
		"212.150.10.2", // inside the mostly-allowed /16 but not blacklisted
		"212.235.96.0", // just past the /19
		"8.8.8.8",
		"84.228.255.255",
	}
	for _, h := range allow {
		v := e.Evaluate(req(h, "", ""))
		if v.Action != Allow {
			t.Errorf("IP %s should be allowed: %+v", h, v)
		}
	}
	// IP rules must not fire on hostnames that merely contain digits.
	if v := e.Evaluate(req("84.229.fake.example", "/", "")); v.Action != Allow {
		t.Errorf("hostname hit IP rule: %+v", v)
	}
}

func TestRedirectHosts(t *testing.T) {
	e := paperEngine()
	for _, h := range PaperRedirectHosts {
		v := e.Evaluate(req(h, "/any/path", "q=1"))
		if v.Action != Redirect || v.Kind != KindCategory {
			t.Errorf("redirect host %s: %+v", h, v)
		}
	}
	// youtube.com itself is not a redirect host.
	if v := e.Evaluate(req("www.youtube.com", "/watch", "v=abc")); v.Action != Allow {
		t.Errorf("www.youtube.com: %+v", v)
	}
}

func TestCustomCategoryPages(t *testing.T) {
	e := paperEngine()
	// Exact page + narrow query: redirect.
	v := e.Evaluate(req("www.facebook.com", "/Syrian.Revolution", "ref=ts"))
	if v.Action != Redirect || v.Kind != KindCategory {
		t.Fatalf("targeted page: %+v", v)
	}
	v = e.Evaluate(req("www.facebook.com", "/Syrian.Revolution", ""))
	if v.Action != Redirect {
		t.Fatalf("targeted page bare: %+v", v)
	}
	// The paper's observed escape: extra ajax query params slip through.
	v = e.Evaluate(req("www.facebook.com", "/Syrian.Revolution",
		"ref=ts&__a=11&ajaxpipe=1&quickling[version]=414343%3B0"))
	if v.Action != Allow {
		t.Fatalf("ajaxpipe variant should slip through: %+v", v)
	}
	// Pages not in the list are fine.
	v = e.Evaluate(req("www.facebook.com", "/Syrian.Revolution.Army", ""))
	if v.Action != Allow {
		t.Fatalf("untargeted page: %+v", v)
	}
	// Plain facebook browsing is fine.
	v = e.Evaluate(req("www.facebook.com", "/home.php", ""))
	if v.Action != Allow {
		t.Fatalf("facebook home: %+v", v)
	}
}

func TestPrecedencePageOverKeyword(t *testing.T) {
	// A ruleset where a page rule and keyword rule both match: the page
	// (custom category / redirect) must win, as observed in the logs where
	// targeted pages raise policy_redirect, not policy_denied.
	rs := &Ruleset{
		Keywords: []string{"revolution"},
		Pages:    []PageRule{{Host: "fb.example", Path: "/revolution", Queries: []string{""}}},
	}
	e := Compile(rs)
	v := e.Evaluate(req("fb.example", "/revolution", ""))
	if v.Action != Redirect || v.Kind != KindCategory {
		t.Fatalf("precedence: %+v", v)
	}
}

func TestPrecedenceDomainOverKeyword(t *testing.T) {
	rs := &Ruleset{
		Keywords: []string{"proxy"},
		Domains:  []string{"blocked.example"},
	}
	e := Compile(rs)
	v := e.Evaluate(req("blocked.example", "/proxy", ""))
	if v.Kind != KindDomain {
		t.Fatalf("domain should take precedence over keyword: %+v", v)
	}
}

func TestRequestURLSurface(t *testing.T) {
	r := req("h.example", "/p", "q=1")
	if got := r.URL(); got != "h.example/p?q=1" {
		t.Errorf("URL = %q", got)
	}
	r = req("h.example", "", "")
	if got := r.URL(); got != "h.example" {
		t.Errorf("URL = %q", got)
	}
}

func TestRulesetAddErrors(t *testing.T) {
	var rs Ruleset
	if err := rs.AddCIDR("garbage"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := rs.AddCIDR("1.2.3.4/40"); err == nil {
		t.Error("bad prefix accepted")
	}
	if err := rs.AddIP("not-an-ip"); err == nil {
		t.Error("bad IP accepted")
	}
}

// Invariant from the paper's discovery algorithm: the engine must be
// deterministic — the same request always gets the same verdict (NA=0
// criterion only works if a URL can never be both allowed and censored).
func TestEvaluateDeterministic(t *testing.T) {
	e := paperEngine()
	hosts := []string{"metacafe.com", "google.com", "84.229.1.1", "www.facebook.com", "x.il"}
	paths := []string{"", "/", "/tbproxy/af/query", "/Syrian.Revolution", "/watch"}
	queries := []string{"", "ref=ts", "proxy=1", "q=x"}
	if err := quick.Check(func(h, p, q uint8) bool {
		r := req(hosts[int(h)%len(hosts)], paths[int(p)%len(paths)], queries[int(q)%len(queries)])
		v1 := e.Evaluate(r)
		v2 := e.Evaluate(r)
		return v1 == v2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The blocked-subnet seeds must agree with urlx/geoip range math.
func TestBlockedRangesCoverSubnets(t *testing.T) {
	rs := PaperRuleset()
	e := Compile(rs)
	for _, cidr := range PaperBlockedSubnets {
		slash := 0
		for i, c := range cidr {
			if c == '/' {
				slash = i
			}
		}
		base, ok := urlx.ParseIPv4(cidr[:slash])
		if !ok {
			t.Fatalf("bad seed %q", cidr)
		}
		if _, hit := e.lookupRange(base); !hit {
			t.Errorf("subnet base %s not covered", cidr)
		}
	}
}

func BenchmarkEvaluateAllowed(b *testing.B) {
	e := paperEngine()
	r := req("www.example.com", "/some/ordinary/page.html", "id=12345&lang=ar")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Evaluate(r)
	}
}

func BenchmarkEvaluateKeywordHit(b *testing.B) {
	e := paperEngine()
	r := req("www.facebook.com", "/plugins/like.php", "href=x&proxy=1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Evaluate(r)
	}
}
