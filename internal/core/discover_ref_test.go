package core

import (
	"sort"
	"strings"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// TokenizeURL exposes the discovery tokenizer to the reference.
func TokenizeURL(host, path, query string) []string {
	rec := logfmt.Record{Host: host, Path: path, Query: query}
	var out []string
	tokenizeRecord(&rec, func(tok string) { out = append(out, tok) })
	return out
}

// discoverFiltersReference is the pre-incremental §5.4 implementation,
// kept verbatim as the differential oracle for DiscoverFilters: every
// round rebuilds the token counts and per-token domain sets from the
// whole residue, and every call recomputes from scratch (no memo).
func discoverFiltersReference(e *Engine, minCount uint64) Discovery {
	dm := mod[*domainsMetric](e, "domains", "DiscoverFilters")
	tm := mod[*tokensMetric](e, "tokens", "DiscoverFilters")
	if minCount == 0 {
		minCount = 3
	}
	const minSpread = 3
	var d Discovery

	blockedTLDs := make(map[string]bool)
	dm.tldCensored.Each(func(tld string, n uint64) {
		if tld != "" && n >= minCount && dm.tldAllowed.Count(tld) == 0 {
			blockedTLDs[tld] = true
			d.Domains = append(d.Domains, SuspectedDomain{Domain: "." + tld, Censored: n})
		}
	})

	type residueEntry struct {
		url    string
		domain string
		host   string
		tokens []string
	}
	var residue []residueEntry
	for _, cu := range tm.censored() {
		if blockedTLDs[urlx.TLD(cu.Host)] || urlx.IsIPv4(cu.Host) {
			continue
		}
		residue = append(residue, residueEntry{
			url:    strings.ToLower(cu.URL),
			domain: cu.Domain,
			host:   cu.Host,
			tokens: TokenizeURL(cu.Host, pathOf(cu.URL, cu.Host), queryOf(cu.URL)),
		})
	}
	for rounds := 0; rounds < 64; rounds++ {
		counts := stats.NewCounter()
		domainsOf := map[string]map[string]struct{}{}
		for _, re := range residue {
			seen := map[string]bool{}
			for _, tok := range re.tokens {
				if seen[tok] {
					continue
				}
				seen[tok] = true
				counts.Add(tok)
				set := domainsOf[tok]
				if set == nil {
					set = map[string]struct{}{}
					domainsOf[tok] = set
				}
				set[re.domain] = struct{}{}
			}
		}
		best := ""
		var bestN uint64
		counts.Each(func(tok string, n uint64) {
			if n < minCount || tm.allowed.counter.Count(tok) != 0 {
				return
			}
			if len(domainsOf[tok]) < minSpread {
				return
			}
			if n > bestN || (n == bestN && tok < best) {
				best, bestN = tok, n
			}
		})
		if best == "" {
			break
		}
		d.Keywords = append(d.Keywords, Keyword{
			Keyword:  best,
			Censored: bestN,
			Proxied:  tm.proxied.counter.Count(best),
		})
		keep := residue[:0]
		for _, re := range residue {
			if !strings.Contains(re.url, best) {
				keep = append(keep, re)
			}
		}
		residue = keep
	}

	domCounts := stats.NewCounter()
	hostCounts := stats.NewCounter()
	for _, re := range residue {
		domCounts.Add(re.domain)
		hostCounts.Add(re.host)
	}
	suspected := make(map[string]bool)
	domCounts.Each(func(dom string, n uint64) {
		if n < minCount || dm.allowed.Count(dom) != 0 {
			return
		}
		suspected[dom] = true
		d.Domains = append(d.Domains, SuspectedDomain{
			Domain:   dom,
			Censored: dm.censoredDeny.Count(dom),
			Proxied:  dm.proxied.Count(dom),
		})
	})
	hostCounts.Each(func(host string, n uint64) {
		if n < minCount || suspected[urlx.RegisteredDomain(host)] {
			return
		}
		if dm.hostAllowed.Count(host) != 0 {
			return
		}
		d.Domains = append(d.Domains, SuspectedDomain{
			Domain:   host,
			Censored: dm.hostCensoredDeny.Count(host),
		})
	})
	sort.Slice(d.Domains, func(i, j int) bool {
		if d.Domains[i].Censored != d.Domains[j].Censored {
			return d.Domains[i].Censored > d.Domains[j].Censored
		}
		return d.Domains[i].Domain < d.Domains[j].Domain
	})
	return d
}
