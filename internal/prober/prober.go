// Package prober implements the probing-based censorship measurement
// methodology of the paper's related work (§2 — Nabi, Verkamp & Gupta,
// Dalek et al.): issue requests for a candidate URL list from inside the
// censored network and record which ones are blocked.
//
// The paper's §1 argues this methodology has two inherent limits compared
// with log analysis: (1) it observes only the candidate list, so it cannot
// enumerate keyword rules or unknown blocked domains, and (2) it cannot
// measure the *extent* of censorship (what share of real traffic is
// affected). This package makes those claims quantifiable: run a prober
// against the same policy engine that produced a corpus, then compare its
// recovered blacklist with internal/core's log-based discovery.
package prober

import (
	"sort"
	"strings"

	"syriafilter/internal/policy"
)

// Probe is one candidate URL to test.
type Probe struct {
	Host  string
	Path  string
	Query string
}

// Result is the outcome of one probe, as visible to a prober: blocked or
// not. (A real prober cannot see the rule kind; it is recorded here for
// evaluation only.)
type Result struct {
	Probe
	Blocked bool
	// TrueKind is ground truth, available only because we own the engine.
	TrueKind policy.RuleKind
}

// Report summarizes a probing campaign.
type Report struct {
	Results []Result
	// BlockedHosts is the deduplicated host list found blocked.
	BlockedHosts []string
	// Probes / Blocked are the campaign totals.
	Probes  int
	Blocked int
}

// Prober issues candidate requests against a filtering engine. In the real
// methodology the "engine" is the live network path; here it is the same
// compiled policy the proxy cluster enforces, which makes the comparison
// exact.
type Prober struct {
	engine *policy.Engine
}

// New returns a prober against engine.
func New(engine *policy.Engine) *Prober { return &Prober{engine: engine} }

// Run tests every probe once.
func (p *Prober) Run(probes []Probe) Report {
	rep := Report{Results: make([]Result, 0, len(probes))}
	blockedHosts := map[string]struct{}{}
	for _, pr := range probes {
		req := policy.Request{
			Host: pr.Host, Path: pr.Path, Query: pr.Query,
			Scheme: "http", Method: "GET", Port: 80,
		}
		v := p.engine.Evaluate(&req)
		blocked := v.Action != policy.Allow
		rep.Results = append(rep.Results, Result{Probe: pr, Blocked: blocked, TrueKind: v.Kind})
		rep.Probes++
		if blocked {
			rep.Blocked++
			blockedHosts[pr.Host] = struct{}{}
		}
	}
	for h := range blockedHosts {
		rep.BlockedHosts = append(rep.BlockedHosts, h)
	}
	sort.Strings(rep.BlockedHosts)
	return rep
}

// HomepageProbes builds the classic probing candidate list: the homepage
// of each host ("GET host/").
func HomepageProbes(hosts []string) []Probe {
	out := make([]Probe, len(hosts))
	for i, h := range hosts {
		out[i] = Probe{Host: h, Path: "/"}
	}
	return out
}

// Coverage compares a probing campaign against a reference blacklist
// (e.g. the ground truth, or the log-based discovery output).
type Coverage struct {
	// ReferenceRules is the size of the reference rule set.
	ReferenceRules int
	// FoundRules counts reference rules witnessed by at least one blocked
	// probe.
	FoundRules int
	// MissedRules lists reference rules no probe triggered — the paper's
	// "inability to enumerate all censored keywords".
	MissedRules []string
}

// Recall returns FoundRules / ReferenceRules.
func (c Coverage) Recall() float64 {
	if c.ReferenceRules == 0 {
		return 0
	}
	return float64(c.FoundRules) / float64(c.ReferenceRules)
}

// KeywordCoverage evaluates how many of the reference keywords a campaign
// witnessed: a keyword is witnessed if some blocked probe's URL contains
// it.
func KeywordCoverage(rep Report, keywords []string) Coverage {
	cov := Coverage{ReferenceRules: len(keywords)}
	for _, kw := range keywords {
		found := false
		for _, r := range rep.Results {
			if !r.Blocked {
				continue
			}
			url := r.Host + r.Path
			if r.Query != "" {
				url += "?" + r.Query
			}
			if containsFold(url, kw) {
				found = true
				break
			}
		}
		if found {
			cov.FoundRules++
		} else {
			cov.MissedRules = append(cov.MissedRules, kw)
		}
	}
	return cov
}

// DomainCoverage evaluates how many reference blocked domains a campaign
// found (a domain counts if some blocked probe targeted it or a subdomain).
func DomainCoverage(rep Report, domains []string) Coverage {
	cov := Coverage{ReferenceRules: len(domains)}
	for _, dom := range domains {
		found := false
		for _, h := range rep.BlockedHosts {
			if h == dom || hasSuffixDot(h, dom) {
				found = true
				break
			}
		}
		if found {
			cov.FoundRules++
		} else {
			cov.MissedRules = append(cov.MissedRules, dom)
		}
	}
	return cov
}

func hasSuffixDot(host, dom string) bool {
	return len(host) > len(dom)+1 &&
		host[len(host)-len(dom):] == dom &&
		host[len(host)-len(dom)-1] == '.'
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}
