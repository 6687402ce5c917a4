package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// redirectsMetric accumulates the policy_redirect host counts of Table 7.
type redirectsMetric struct {
	hosts *stats.Counter
	declared
}

func newRedirectsMetric(e *Engine) *redirectsMetric {
	m := &redirectsMetric{}
	m.declare("redirects", counterField{&m.hosts})
	return m
}

func (m *redirectsMetric) Observe(rec *logfmt.Record) {
	if rec.Exception == logfmt.ExPolicyRedirect {
		m.hosts.Add(rec.Host)
	}
}
