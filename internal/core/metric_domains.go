package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// domainsMetric accumulates per-class registered-domain, host and TLD
// counters: Table 4, Figure 2, and the domain-side inputs of the §5.4
// discovery algorithm (Tables 8–10 share it with the tokens module).
type domainsMetric struct {
	cx *recordCtx

	allowed  *stats.Counter // registered domains, allowed
	censored *stats.Counter // registered domains, censored
	denied   *stats.Counter // registered domains, errors
	proxied  *stats.Counter // registered domains, served from cache

	tldCensored *stats.Counter
	tldAllowed  *stats.Counter

	// policy_denied-only domain counts (discovery input; redirects are
	// handled by the custom-category analysis instead), plus host-level
	// counts: URL blacklists can target single hosts (messenger.live.com)
	// whose registered domain stays partly allowed.
	censoredDeny     *stats.Counter
	hostCensoredDeny *stats.Counter
	hostAllowed      *stats.Counter
	declared
}

func newDomainsMetric(e *Engine) *domainsMetric {
	m := &domainsMetric{cx: &e.cx}
	m.declare("domains",
		counterField{&m.allowed}, counterField{&m.censored},
		counterField{&m.denied}, counterField{&m.proxied},
		counterField{&m.tldCensored}, counterField{&m.tldAllowed},
		counterField{&m.censoredDeny}, counterField{&m.hostCensoredDeny},
		counterField{&m.hostAllowed},
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
