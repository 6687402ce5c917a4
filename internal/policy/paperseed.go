package policy

// This file encodes the censorship policy the paper recovers from the
// logs, as a ground-truth ruleset. The synthetic corpus is filtered by
// exactly this policy, so the analysis layer's inference algorithms can be
// validated against it.

// PaperKeywords are the five blacklisted keywords of Table 10, in the
// paper's frequency order.
var PaperKeywords = []string{
	"proxy",
	"hotspotshield",
	"ultrareach",
	"israel",
	"ultrasurf",
}

// PaperDomains are the URL-suffix blacklist entries the paper names
// explicitly: the Table 8 top-10 suspected domains, the .il TLD, the
// always-censored social networks of §6 (netlog, badoo), the news and
// opposition sites quoted in §8, and the MSN messenger hosts behind
// live.com's presence in Table 4. The traffic generator extends this list
// with procedurally generated news/forum domains to reach the paper's 105
// suspected domains with Table 9's category mix.
var PaperDomains = []string{
	"metacafe.com",
	"skype.com",
	"wikimedia.org",
	"il", // whole TLD: the paper finds all .il domains blocked
	"amazon.com",
	"aawsat.com",
	"jumblo.com",
	"jeddahbikers.com",
	"badoo.com",
	"islamway.com",
	"netlog.com",
	"ceipmsn.com",
	"all4syria.info",
	"islammemo.cc",
	"alquds.co.uk",
	"new-syria.com",
	"free-syria.com",
	// live.com is "always censored" as an IM service (§4) yet absent from
	// Table 8, implying the messenger hosts were blocked rather than the
	// whole registered domain (other live.com traffic stayed allowed).
	"messenger.live.com",
	"ceip.live.com",
}

// PaperBlockedSubnets are the fully blocked Israeli subnets (Table 12's
// "almost always censored" group).
var PaperBlockedSubnets = []string{
	"84.229.0.0/16",
	"46.120.0.0/15",
	"89.138.0.0/15",
	"212.235.64.0/19",
}

// PaperBlockedIPs are individually blocked addresses: the handful of
// censored hosts inside the mostly-allowed 212.150.0.0/16 (Table 12 shows
// 3 censored IPs there) plus two anonymizer servers (§4: HTTPS IP-literal
// blocking targets Israeli ASes and Anonymizer services).
var PaperBlockedIPs = []string{
	"212.150.10.1",
	"212.150.20.2",
	"212.150.30.3",
	"94.75.200.10", // anonymizer endpoints, NL (synthetic)
	"94.75.200.11", // anonymizer endpoint, NL
	"31.170.160.5", // anonymizer endpoint, GB — gives Table 11 its small
	"93.158.77.9",  // non-IL censored counts (UK/RU rows)
}

// PaperRedirectHosts are the Table 7 hosts whose every request redirects.
var PaperRedirectHosts = []string{
	"upload.youtube.com",
	"competition.mbc.net",
	"sharek.aljazeera.net",
}

// PaperPages are the custom-category Facebook page rules of Table 14. The
// narrow query sets reproduce §6's observation that only specific
// cs-uri-path + cs-uri-query combinations trigger the category (e.g.
// ?ref=ts is caught, the ajaxpipe variant is not).
var PaperPages = []PageRule{
	{Host: "www.facebook.com", Path: "/Syrian.Revolution", Queries: []string{"", "ref=ts", "sk=wall"}},
	{Host: "ar-ar.facebook.com", Path: "/Syrian.Revolution", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/Syrian.revolution", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/syria.news.F.N.N", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/ShaamNews", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/fffm14", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/barada.channel", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/DaysOfRage", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/Syrian.R.V", Queries: []string{"", "ref=ts"}},
	{Host: "www.facebook.com", Path: "/YouthFreeSyria", Queries: []string{""}},
	{Host: "www.facebook.com", Path: "/sooryoon", Queries: []string{""}},
	{Host: "www.facebook.com", Path: "/Freedom.Of.Syria", Queries: []string{""}},
	{Host: "www.facebook.com", Path: "/SyrianDayOfRage", Queries: []string{""}},
}

// PaperRuleset assembles the full ground-truth policy. It panics only on
// programming errors in the seed tables.
func PaperRuleset() *Ruleset {
	rs := &Ruleset{
		Keywords:      append([]string(nil), PaperKeywords...),
		Domains:       append([]string(nil), PaperDomains...),
		RedirectHosts: append([]string(nil), PaperRedirectHosts...),
		Pages:         append([]PageRule(nil), PaperPages...),
	}
	for _, cidr := range PaperBlockedSubnets {
		if err := rs.AddCIDR(cidr); err != nil {
			panic("policy: bad seed subnet " + cidr)
		}
	}
	for _, addr := range PaperBlockedIPs {
		if err := rs.AddIP(addr); err != nil {
			panic("policy: bad seed address " + addr)
		}
	}
	return rs
}
