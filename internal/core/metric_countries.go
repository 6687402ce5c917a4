package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// countriesMetric accumulates per-country censored/allowed counts over
// IP-literal destinations (Table 11).
type countriesMetric struct {
	cx  *recordCtx
	opt *Options

	censored *stats.Counter
	allowed  *stats.Counter
	declared
}

func newCountriesMetric(e *Engine) *countriesMetric {
	m := &countriesMetric{cx: &e.cx, opt: &e.opt}
	m.declare("countries", counterField{&m.censored}, counterField{&m.allowed})
	return m
}

func (m *countriesMetric) Observe(rec *logfmt.Record) {
	ip, isIP := m.cx.IPv4()
	if !isIP {
		return
	}
	country := m.opt.GeoDB.Country(ip)
	if country == "" {
		return
	}
	if m.cx.censored {
		m.censored.Add(country)
	} else if m.cx.allowed {
		m.allowed.Add(country)
	}
}
