package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/urlx"
)

// domainsMetric accumulates per-class registered-domain, host and TLD
// counters: Table 4, Figure 2, and the domain-side inputs of the §5.4
// discovery algorithm (Tables 8–10 share it with the tokens module).
type domainsMetric struct {
	cx *recordCtx

	allowed  kcounter // registered domains, allowed
	censored kcounter // registered domains, censored
	denied   kcounter // registered domains, errors
	proxied  kcounter // registered domains, served from cache

	tldCensored kcounter
	tldAllowed  kcounter

	// policy_denied-only domain counts (discovery input; redirects are
	// handled by the custom-category analysis instead), plus host-level
	// counts: URL blacklists can target single hosts (messenger.live.com)
	// whose registered domain stays partly allowed.
	censoredDeny     kcounter
	hostCensoredDeny kcounter
	hostAllowed      kcounter
	declared
}

func newDomainsMetric(e *Engine) *domainsMetric {
	m := &domainsMetric{cx: &e.cx}
	m.declare(e, "domains",
		kcounterField{&m.allowed}, kcounterField{&m.censored},
		kcounterField{&m.denied}, kcounterField{&m.proxied},
		kcounterField{&m.tldCensored}, kcounterField{&m.tldAllowed},
		kcounterField{&m.censoredDeny}, kcounterField{&m.hostCensoredDeny},
		kcounterField{&m.hostAllowed},
	)
	return m
}

func (m *domainsMetric) Observe(rec *logfmt.Record) {
	switch {
	case m.cx.proxied:
		m.proxied.Add(m.cx.Domain())
	case m.cx.censored:
		m.censored.Add(m.cx.Domain())
		m.tldCensored.Add(urlx.TLD(rec.Host))
		if rec.Exception == logfmt.ExPolicyDenied {
			m.censoredDeny.Add(m.cx.Domain())
			m.hostCensoredDeny.Add(rec.Host)
		}
	case m.cx.allowed:
		m.allowed.Add(m.cx.Domain())
		m.hostAllowed.Add(rec.Host)
		m.tldAllowed.Add(urlx.TLD(rec.Host))
	default:
		m.denied.Add(m.cx.Domain())
	}
}
