package core

import (
	"sort"
	"strings"

	"syriafilter/internal/categorydb"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// The result functions live on Engine so both full Analyzers and subset
// engines share them. Each reads only the modules its experiment id
// declares in experimentModules; asking an engine built without those
// modules panics with a message naming the missing module.

// --- Table 1 / Table 3 ---

// DatasetInfo is one Table 1 row.
type DatasetInfo struct {
	ID       DatasetID
	Requests uint64
}

// Table1 returns the dataset sizes.
func (e *Engine) Table1() []DatasetInfo {
	m := mod[*datasetsMetric](e, "datasets", "Table1")
	out := make([]DatasetInfo, 0, int(numDatasets))
	for id := DFull; id < numDatasets; id++ {
		out = append(out, DatasetInfo{ID: id, Requests: m.datasets[id].Total})
	}
	return out
}

// Table3 returns the class × exception counts for every dataset.
func (e *Engine) Table3() [4]ClassCounts {
	return mod[*datasetsMetric](e, "datasets", "Table3").datasets
}

// Dataset returns one dataset's counts.
func (e *Engine) Dataset(id DatasetID) ClassCounts {
	return mod[*datasetsMetric](e, "datasets", "Dataset").datasets[id]
}

// --- Table 4 ---

// DomainShare is a (domain, count, share) row.
type DomainShare struct {
	Domain string
	Count  uint64
	Share  float64 // of the class total
}

// sharesOf returns c's top k keys with their share of c's total.
func sharesOf(c *stats.Counter, k int) []DomainShare {
	top := c.Top(k)
	total := c.Total()
	out := make([]DomainShare, len(top))
	for i, e := range top {
		out[i] = DomainShare{Domain: e.Key, Count: e.Count, Share: frac(e.Count, total)}
	}
	return out
}

// TopDomains returns Table 4: the top-k allowed and censored domains.
func (e *Engine) TopDomains(k int) (allowed, censored []DomainShare) {
	m := mod[*domainsMetric](e, "domains", "TopDomains")
	return sharesOf(m.allowed, k), sharesOf(m.censored, k)
}

// --- Table 5 ---

// Table5Window is the top censored domains in one time window.
type Table5Window struct {
	FromUnix, ToUnix int64
	Top              []DomainShare
}

// Table5 reports the top-k censored domains per window; windows are
// [from, from+width), stepped across [from, to). The paper uses Aug 3,
// 6:00–12:00 in 2-hour windows.
func (e *Engine) Table5(fromUnix, toUnix, widthSec int64, k int) []Table5Window {
	parts := layers[*timeseriesMetric](e, "timeseries", "Table5")
	var out []Table5Window
	for start := fromUnix; start < toUnix; start += widthSec {
		end := start + widthSec
		counts := stats.NewCounter()
		for hour := start / 3600; hour*3600 < end; hour++ {
			if hour*3600 < start {
				continue
			}
			for _, m := range parts {
				if c := m.censHourDomains[hour]; c != nil {
					counts.Merge(c)
				}
			}
		}
		out = append(out, Table5Window{FromUnix: start, ToUnix: end, Top: sharesOf(counts, k)})
	}
	return out
}

// --- Table 6 ---

// ProxySimilarity returns the 7×7 cosine-similarity matrix of censored
// domain profiles (Table 6), indexed by SG-42..48 order.
func (e *Engine) ProxySimilarity() [][]float64 {
	parts := layers[*proxiesMetric](e, "proxies", "ProxySimilarity")
	profiles := make([]*stats.Counter, logfmt.NumProxies)
	for i := range profiles {
		profiles[i] = layered(parts, func(m *proxiesMetric) *stats.Counter { return m.censDomains[i] })
	}
	return stats.SimilarityMatrix(profiles)
}

// ProxyCategoryLabels reports which default cs-categories label each proxy
// stamps (§5.2: "none" on SG-43/48, "unavailable" elsewhere): its most
// frequent label, the smaller label on a tie, and "" for a proxy with
// none.
func (e *Engine) ProxyCategoryLabels() [7]string {
	var out [7]string
	parts := layers[*proxiesMetric](e, "proxies", "ProxyCategoryLabels")
	for i := range out {
		top := layered(parts, func(m *proxiesMetric) *stats.Counter { return m.labels[i] }).Top(1)
		if len(top) > 0 && top[0].Count > 0 {
			out[i] = top[0].Key
		}
	}
	return out
}

// --- Table 7 ---

// RedirectHosts returns the top-k policy_redirect hosts.
func (e *Engine) RedirectHosts(k int) []DomainShare {
	return sharesOf(mod[*redirectsMetric](e, "redirects", "RedirectHosts").hosts, k)
}

// --- Tables 8 and 10: the §5.4 discovery algorithm ---

// SuspectedDomain is a Table 8 row: a domain with censored traffic and no
// allowed traffic.
type SuspectedDomain struct {
	Domain   string
	Censored uint64
	Allowed  uint64 // zero by construction
	Proxied  uint64
}

// Keyword is a Table 10 row.
type Keyword struct {
	Keyword  string
	Censored uint64
	Allowed  uint64 // zero by construction
	Proxied  uint64
}

// Discovery bundles the recovered string-filtering policy.
type Discovery struct {
	Domains  []SuspectedDomain
	Keywords []Keyword
}

// DiscoverFilters implements §5.4's iterative identification of censored
// strings, in two phases:
//
//  1. URL/domain phase: every registered domain with policy_denied
//     traffic and zero allowed traffic is suspected (the NC >> 1, NA = 0
//     criterion). A TLD whose every domain qualifies collapses into one
//     ".tld" entry (the paper's ".il").
//  2. Keyword phase: censored URLs *not* explained by phase 1 (and not
//     IP-literal hosts, which the IP analysis owns) are tokenized; a token
//     is a censored keyword if it appears at least minCount times in that
//     residue and never in allowed URLs.
//
// minCount guards against coincidental singletons (the paper's "NC >> 1").
// Keyword candidates must additionally hit at least three distinct
// registered domains: keyword rules are cross-domain by nature, while a
// token seen on one domain only is better explained by a URL rule.
//
// The engine remembers its last result: while no Observe, Merge or
// UnmarshalState has happened since, a repeated call (same minCount)
// returns the remembered Discovery instead of recomputing it, and
// concurrent callers of one frozen engine — the readers of a published
// serve.Snapshot — wait on a single computation. The returned slices are
// therefore shared between callers and must be treated as read-only.
// Recomputing costs the stored URLs that arrived since the engine's URL
// index last covered the store (see urlIndex, Clone and MergeIndexed),
// plus the rounds themselves.
func (e *Engine) DiscoverFilters(minCount uint64) Discovery {
	own[*domainsMetric](e, "domains", "DiscoverFilters")
	own[*tokensMetric](e, "tokens", "DiscoverFilters")
	if minCount == 0 {
		minCount = 3
	}
	m := &e.disc
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.version != e.version || m.minCount != minCount {
		dm := mod[*domainsMetric](e, "domains", "DiscoverFilters")
		tm := mod[*tokensMetric](e, "tokens", "DiscoverFilters")
		m.d = discoverFilters(dm, tm, minCount, e.refreshIndex(tm))
		m.version, m.minCount = e.version, minCount
		m.runs++
	}
	return m.d
}

// maxKeywords caps the keyword phase: a corpus whose residue keeps
// yielding candidates stops after this many rounds.
const maxKeywords = 64

// discoverFilters computes §5.4 over the stored URLs x indexes, which the
// caller has brought up to date with the store. It reads x's ids
// renumbered to the ones x touches (localIDs), so its tallies and rounds
// cost what the indexed URLs hold, however large x's table is.
func discoverFilters(dm *domainsMetric, tm *tokensMetric, minCount uint64, x *urlIndex) Discovery {
	const minSpread = 3
	var d Discovery

	// Phase 0: TLD collapse. A TLD with censored traffic and no allowed
	// traffic anywhere is one blanket rule (the paper's ".il").
	blockedTLDs := make(map[string]bool)
	dm.tldCensored.Each(func(tld string, n uint64) {
		if tld != "" && n >= minCount && dm.tldAllowed.Count(tld) == 0 {
			blockedTLDs[tld] = true
			d.Domains = append(d.Domains, SuspectedDomain{Domain: "." + tld, Censored: n})
		}
	})

	// Phase 1: keywords, by the paper's iterative elimination over the
	// stored censored URLs: repeatedly take the most frequent cross-domain
	// token that never occurs in allowed URLs, record it, and remove every
	// censored URL it explains. Running keywords *before* domains mirrors
	// the paper's removal step and prevents keyword collateral (e.g. all
	// announces to tracker-proxy.furk.net) from masquerading as
	// domain-blocking.
	//
	// The tallies a round needs — per token, how many residue URLs carry
	// it and across how many registered domains — are built once and
	// then maintained: removing a URL subtracts it from each of its
	// tokens. Every quantity is a function of the residue as a multiset,
	// so the stored URLs are read in whatever order they are held.
	l := x.local()
	blocked := make([]bool, len(l.tlds))
	for i, tld := range l.tlds {
		blocked[i] = blockedTLDs[tld]
	}
	toks := l.toks
	count := make([]uint64, len(toks)) // residue URLs carrying the token
	spread := make([]int, len(toks))   // distinct registered domains among them
	refs := make([]uint64, l.pairs)
	residue := make([]int32, 0, len(x.urls))
	for id := range x.urls {
		u := &x.urls[id]
		if u.ip || blocked[l.tld[id]] {
			continue
		}
		residue = append(residue, int32(id))
		for j := u.off; j < u.end; j++ {
			t, p := l.tok[j], l.pair[j]
			count[t]++
			if refs[p] == 0 {
				spread[t]++
			}
			refs[p]++
		}
	}
	// A token seen in an allowed URL is never a keyword.
	vetoed := make([]bool, len(toks))
	for t, tok := range toks {
		vetoed[t] = tm.allowed.counter.Count(tok) != 0
	}
	for len(d.Keywords) < maxKeywords {
		best := -1
		for t := range toks {
			if vetoed[t] || count[t] < minCount || spread[t] < minSpread {
				continue
			}
			if best < 0 || count[t] > count[best] || count[t] == count[best] && toks[t] < toks[best] {
				best = t
			}
		}
		if best < 0 {
			break
		}
		kw := toks[best]
		d.Keywords = append(d.Keywords, Keyword{
			Keyword:  kw,
			Censored: count[best],
			Proxied:  tm.proxied.counter.Count(kw),
		})
		// Removal is by substring of the lowered URL, not by token
		// membership: a keyword also explains URLs it merely occurs in.
		// A URL missing one of the keyword's byte pairs cannot contain
		// it, which settles most URLs without a substring search.
		kg := bigramsOf(kw)
		keep := residue[:0]
		for _, id := range residue {
			u := &x.urls[id]
			if !u.grams.covers(kg) || !strings.Contains(u.lower, kw) {
				keep = append(keep, id)
				continue
			}
			for j := u.off; j < u.end; j++ {
				t, p := l.tok[j], l.pair[j]
				count[t]--
				if refs[p]--; refs[p] == 0 {
					spread[t]--
				}
			}
		}
		residue = keep
	}

	// Phase 2: URL rules from the unexplained residue — registered
	// domains, then single hosts (messenger.live.com-style entries whose
	// registered domain still has allowed traffic). Counts come from the
	// residue so keyword-explained requests are not re-attributed.
	domCounts := make([]uint64, len(l.doms))
	hostCounts := make([]uint64, len(l.hosts))
	for _, id := range residue {
		domCounts[l.dom[id]]++
		hostCounts[l.host[id]]++
	}
	suspected := make(map[string]bool)
	for i, n := range domCounts {
		dom := l.doms[i]
		if n < minCount || dm.allowed.Count(dom) != 0 {
			continue
		}
		suspected[dom] = true
		d.Domains = append(d.Domains, SuspectedDomain{
			Domain:   dom,
			Censored: dm.censoredDeny.Count(dom),
			Proxied:  dm.proxied.Count(dom),
		})
	}
	for i, n := range hostCounts {
		host := l.hosts[i]
		if n < minCount || suspected[urlx.RegisteredDomain(host)] {
			continue
		}
		if dm.hostAllowed.Count(host) != 0 {
			continue
		}
		d.Domains = append(d.Domains, SuspectedDomain{
			Domain:   host,
			Censored: dm.hostCensoredDeny.Count(host),
		})
	}
	sort.Slice(d.Domains, func(i, j int) bool {
		if d.Domains[i].Censored != d.Domains[j].Censored {
			return d.Domains[i].Censored > d.Domains[j].Censored
		}
		return d.Domains[i].Domain < d.Domains[j].Domain
	})
	return d
}

func pathOf(url, host string) string {
	rest := strings.TrimPrefix(url, host)
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		return rest[:i]
	}
	return rest
}

func queryOf(url string) string {
	if i := strings.IndexByte(url, '?'); i >= 0 {
		return url[i+1:]
	}
	return ""
}

// --- Table 9 ---

// CategoryDomains is a Table 9 row: one category's slice of the suspected
// domains and their censored request volume.
type CategoryDomains struct {
	Category string
	Domains  int
	Requests uint64
}

// Table9 categorizes the suspected (URL-blacklisted) domains.
func (e *Engine) Table9(d Discovery) []CategoryDomains {
	agg := map[string]*CategoryDomains{}
	for _, sd := range d.Domains {
		cat := string(e.opt.Categories.Classify(strings.TrimPrefix(sd.Domain, ".")))
		if strings.HasPrefix(sd.Domain, ".") {
			cat = string(categorydb.CatNA) // a whole TLD has no single category
		}
		row := agg[cat]
		if row == nil {
			row = &CategoryDomains{Category: cat}
			agg[cat] = row
		}
		row.Domains++
		row.Requests += sd.Censored
	}
	out := make([]CategoryDomains, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// --- Table 11 ---

// CountryRatio is a Table 11 row.
type CountryRatio struct {
	Country  string
	Censored uint64
	Allowed  uint64
	Ratio    float64
}

// CountryRatios computes per-country censorship ratios over IP-literal
// destinations, descending by ratio.
func (e *Engine) CountryRatios() []CountryRatio {
	m := mod[*countriesMetric](e, "countries", "CountryRatios")
	all := map[string]*CountryRatio{}
	m.censored.Each(func(c string, n uint64) {
		all[c] = &CountryRatio{Country: c, Censored: n}
	})
	m.allowed.Each(func(c string, n uint64) {
		row := all[c]
		if row == nil {
			row = &CountryRatio{Country: c}
			all[c] = row
		}
		row.Allowed = n
	})
	out := make([]CountryRatio, 0, len(all))
	for _, row := range all {
		if row.Censored+row.Allowed > 0 {
			row.Ratio = float64(row.Censored) / float64(row.Censored+row.Allowed)
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// --- Table 12 ---

// SubnetStat is a Table 12 row.
type SubnetStat struct {
	Subnet                    string
	CensoredReqs, CensoredIPs uint64
	AllowedReqs, AllowedIPs   uint64
	ProxiedReqs, ProxiedIPs   uint64
}

// IsraeliSubnets reports per-subnet censorship over the Israeli address
// ranges, descending by censored requests.
func (e *Engine) IsraeliSubnets() []SubnetStat {
	m := mod[*subnetsMetric](e, "subnets", "IsraeliSubnets")
	out := make([]SubnetStat, 0, len(m.subnets))
	for subnet, st := range m.subnets {
		out = append(out, SubnetStat{
			Subnet:       subnet,
			CensoredReqs: st.Censored, CensoredIPs: uint64(len(st.CensoredIPs)),
			AllowedReqs: st.Allowed, AllowedIPs: uint64(len(st.AllowedIPs)),
			ProxiedReqs: st.Proxied, ProxiedIPs: uint64(len(st.ProxIPs)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CensoredReqs != out[j].CensoredReqs {
			return out[i].CensoredReqs > out[j].CensoredReqs
		}
		return out[i].Subnet < out[j].Subnet
	})
	return out
}

// --- Table 13 ---

// OSNStat is a Table 13 row.
type OSNStat struct {
	Domain                     string
	Censored, Allowed, Proxied uint64
}

// SocialNetworks reports censorship across the §6 watchlist, descending
// by censored count.
func (e *Engine) SocialNetworks() []OSNStat {
	m := mod[*osnMetric](e, "osn", "SocialNetworks")
	out := make([]OSNStat, 0, len(m.osn))
	for dom, ts := range m.osn {
		out = append(out, OSNStat{Domain: dom, Censored: ts.Censored, Allowed: ts.Allowed, Proxied: ts.Proxied})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Censored != out[j].Censored {
			return out[i].Censored > out[j].Censored
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// --- Table 14 ---

// FBPage is a Table 14 row.
type FBPage struct {
	Page                       string
	Censored, Allowed, Proxied uint64
}

// FacebookPages lists the custom-category ("Blocked sites") Facebook
// pages, descending by censored count.
func (e *Engine) FacebookPages() []FBPage {
	m := mod[*facebookMetric](e, "facebook", "FacebookPages")
	out := []FBPage{}
	for path, ps := range m.pages {
		if !ps.CustomCategory {
			continue
		}
		out = append(out, FBPage{
			Page:     strings.TrimPrefix(path, "/"),
			Censored: ps.Censored, Allowed: ps.Allowed, Proxied: ps.Proxied,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Censored != out[j].Censored {
			return out[i].Censored > out[j].Censored
		}
		return out[i].Page < out[j].Page
	})
	return out
}

// --- Table 15 ---

// PluginStat is a Table 15 row.
type PluginStat struct {
	Path                       string
	Censored, Allowed, Proxied uint64
	// ShareOfFBCensored is the element's share of all censored traffic on
	// the facebook.com domain.
	ShareOfFBCensored float64
}

// SocialPlugins reports the top-k censored facebook.com platform elements.
func (e *Engine) SocialPlugins(k int) []PluginStat {
	m := mod[*facebookMetric](e, "facebook", "SocialPlugins")
	out := []PluginStat{}
	for path, ts := range m.paths {
		if ts.Censored == 0 {
			continue
		}
		out = append(out, PluginStat{
			Path:     path,
			Censored: ts.Censored, Allowed: ts.Allowed, Proxied: ts.Proxied,
			ShareOfFBCensored: frac(ts.Censored, m.cens),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Censored != out[j].Censored {
			return out[i].Censored > out[j].Censored
		}
		return out[i].Path < out[j].Path
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
