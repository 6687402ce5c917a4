// Package policy implements the Blue Coat filtering policy engine whose
// *output* the paper reverse-engineers: the ruleset abstraction (keywords,
// URL/domain suffixes, destination IP ranges, and the custom-category page
// rules behind policy_redirect), and a compiled Engine that evaluates a
// request against all rule families in the documented precedence.
//
// The engine is the ground truth of the reproduction: the traffic
// generator runs every synthetic request through it, the proxy simulator
// logs the verdicts, and the analysis layer (internal/core) must then
// recover the ruleset from the logs alone — which lets us validate the
// paper's §5.4 inference algorithms exactly.
package policy

import (
	"sort"
	"strings"

	"syriafilter/internal/strmatch"
	"syriafilter/internal/urlx"
)

// Action is a filtering decision.
type Action uint8

const (
	// Allow serves the request.
	Allow Action = iota
	// Deny blocks it with a policy_denied exception.
	Deny
	// Redirect answers with a policy_redirect exception, sending the
	// client to an unknown (government-hosted) page.
	Redirect
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	case Redirect:
		return "redirect"
	}
	return "unknown"
}

// RuleKind identifies which rule family produced a verdict, matching the
// paper's taxonomy in §5.4/§6.
type RuleKind uint8

const (
	// KindNone means no rule matched.
	KindNone RuleKind = iota
	// KindKeyword is substring matching over host+path+query.
	KindKeyword
	// KindDomain is URL/domain-suffix matching (incl. the .il TLD).
	KindDomain
	// KindIPRange is destination-IP matching for IP-literal hosts.
	KindIPRange
	// KindCategory is the custom "Blocked sites" category (targeted
	// Facebook pages and the Table 7 redirect hosts).
	KindCategory
)

// String names the rule kind.
func (k RuleKind) String() string {
	switch k {
	case KindKeyword:
		return "keyword"
	case KindDomain:
		return "domain"
	case KindIPRange:
		return "ip-range"
	case KindCategory:
		return "category"
	}
	return "none"
}

// Request is the slice of a request the filtering engine sees. Host must
// be lowercase (the log pipeline normalizes at parse time).
type Request struct {
	Host   string
	Port   uint16
	Path   string
	Query  string
	Scheme string // "http", "https", "tcp"
	Method string // GET/POST/CONNECT/...
}

// URL returns the string-matching surface: host + path + "?" + query,
// the exact field combination §5.4 identifies.
func (q *Request) URL() string {
	var b strings.Builder
	b.Grow(len(q.Host) + len(q.Path) + len(q.Query) + 1)
	b.WriteString(q.Host)
	b.WriteString(q.Path)
	if q.Query != "" {
		b.WriteByte('?')
		b.WriteString(q.Query)
	}
	return b.String()
}

// Verdict is the engine's decision plus provenance for ground-truth
// validation.
type Verdict struct {
	Action Action
	Kind   RuleKind
	Match  string // matched keyword / domain suffix / CIDR / page
}

// Allowed is the zero verdict.
var Allowed = Verdict{Action: Allow, Kind: KindNone}

// PageRule targets one social-media page with the custom category, the §6
// mechanism: only a narrow set of exact path+query combinations triggers
// (e.g. /Syrian.Revolution with query "" or "ref=ts", but not the
// ajax-pipelined variants).
type PageRule struct {
	Host    string   // e.g. "www.facebook.com"
	Path    string   // e.g. "/Syrian.Revolution" (exact match)
	Queries []string // exact queries that trigger; nil means only ""
}

// IPRange is one blocked destination range (inclusive).
type IPRange struct {
	Start uint32
	End   uint32
	Label string // CIDR or address the range came from
}

// Ruleset is the declarative policy. Compile it into an Engine to use.
type Ruleset struct {
	// Keywords are blacklisted substrings of host+path+query.
	Keywords []string
	// Domains are blacklisted URL suffixes; "il" blocks the whole TLD.
	Domains []string
	// Ranges are blocked destination IP ranges (for IP-literal hosts).
	Ranges []IPRange
	// RedirectHosts redirect every request (Table 7: upload.youtube.com,
	// competition.mbc.net, sharek.aljazeera.net, ...).
	RedirectHosts []string
	// Pages are the custom-category page rules (Table 14).
	Pages []PageRule
}

// AddCIDR appends a blocked CIDR to the ruleset.
func (rs *Ruleset) AddCIDR(cidr string) error {
	start, end, err := parseCIDR(cidr)
	if err != nil {
		return err
	}
	rs.Ranges = append(rs.Ranges, IPRange{Start: start, End: end, Label: cidr})
	return nil
}

// AddIP appends a single blocked address.
func (rs *Ruleset) AddIP(addr string) error {
	ip, ok := urlx.ParseIPv4(addr)
	if !ok {
		return errBadAddr(addr)
	}
	rs.Ranges = append(rs.Ranges, IPRange{Start: ip, End: ip, Label: addr})
	return nil
}

// Engine is the compiled policy. It is immutable and safe for concurrent
// use; the proxy cluster shares one engine across all workers.
type Engine struct {
	keywords *strmatch.AhoCorasick
	domains  *strmatch.SuffixSet
	ranges   []IPRange // sorted by Start; may contain overlaps
	redirect map[string]struct{}
	pages    map[string]map[string]struct{} // host+path -> allowed query set
}

// Compile builds an Engine from a ruleset.
func Compile(rs *Ruleset) *Engine {
	e := &Engine{
		keywords: strmatch.NewAhoCorasick(lowerAll(rs.Keywords)),
		domains:  strmatch.NewSuffixSet(rs.Domains),
		redirect: make(map[string]struct{}, len(rs.RedirectHosts)),
		pages:    make(map[string]map[string]struct{}, len(rs.Pages)),
	}
	e.ranges = make([]IPRange, len(rs.Ranges))
	copy(e.ranges, rs.Ranges)
	sort.Slice(e.ranges, func(i, j int) bool { return e.ranges[i].Start < e.ranges[j].Start })
	for _, h := range rs.RedirectHosts {
		e.redirect[strings.ToLower(h)] = struct{}{}
	}
	for _, p := range rs.Pages {
		key := strings.ToLower(p.Host) + p.Path
		qs, ok := e.pages[key]
		if !ok {
			qs = make(map[string]struct{})
			e.pages[key] = qs
		}
		if len(p.Queries) == 0 {
			qs[""] = struct{}{}
		}
		for _, q := range p.Queries {
			qs[q] = struct{}{}
		}
	}
	return e
}

// Evaluate runs a request through all rule families. Precedence follows
// the observed behaviour: custom-category pages and redirect hosts first
// (policy_redirect), then IP ranges, domain suffixes, and keywords
// (policy_denied).
func (e *Engine) Evaluate(req *Request) Verdict {
	// 1. Custom category (targeted pages) -> redirect.
	if len(e.pages) > 0 {
		if qs, ok := e.pages[req.Host+req.Path]; ok {
			if _, ok := qs[req.Query]; ok {
				return Verdict{Action: Redirect, Kind: KindCategory, Match: req.Host + req.Path}
			}
		}
	}
	// 2. Redirect hosts.
	if _, ok := e.redirect[req.Host]; ok {
		return Verdict{Action: Redirect, Kind: KindCategory, Match: req.Host}
	}
	// 3. Destination IP ranges (IP-literal hosts only).
	if ip, ok := urlx.ParseIPv4(req.Host); ok {
		if r, hit := e.lookupRange(ip); hit {
			return Verdict{Action: Deny, Kind: KindIPRange, Match: r.Label}
		}
	}
	// 4. Domain suffixes.
	if suffix, ok := e.domains.Match(req.Host); ok {
		return Verdict{Action: Deny, Kind: KindDomain, Match: suffix}
	}
	// 5. Keywords over the URL surface.
	if idx := e.keywords.First(req.URL()); idx >= 0 {
		return Verdict{Action: Deny, Kind: KindKeyword, Match: e.keywords.Patterns()[idx]}
	}
	return Allowed
}

// lookupRange finds a blocked range containing ip. Blocklists are small
// (a handful of subnets plus individual addresses) and may overlap, so a
// linear scan over the sorted table with early exit is both simplest and
// provably correct; the sort bound lets us stop at the first Start > ip.
func (e *Engine) lookupRange(ip uint32) (IPRange, bool) {
	for _, r := range e.ranges {
		if r.Start > ip {
			break
		}
		if ip <= r.End {
			return r, true
		}
	}
	return IPRange{}, false
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}

type errBadAddr string

func (e errBadAddr) Error() string { return "policy: bad IPv4 address " + string(e) }

func parseCIDR(cidr string) (uint32, uint32, error) {
	slash := strings.IndexByte(cidr, '/')
	if slash < 0 {
		return 0, 0, errBadAddr(cidr)
	}
	base, ok := urlx.ParseIPv4(cidr[:slash])
	if !ok {
		return 0, 0, errBadAddr(cidr)
	}
	bits := 0
	ls := cidr[slash+1:]
	if ls == "" {
		return 0, 0, errBadAddr(cidr)
	}
	for _, c := range ls {
		if c < '0' || c > '9' {
			return 0, 0, errBadAddr(cidr)
		}
		bits = bits*10 + int(c-'0')
		if bits > 32 {
			return 0, 0, errBadAddr(cidr)
		}
	}
	var mask uint32
	if bits > 0 {
		mask = ^uint32(0) << (32 - bits)
	}
	return base & mask, (base & mask) | ^mask, nil
}
