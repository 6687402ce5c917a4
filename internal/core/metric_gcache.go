package core

import (
	"syriafilter/internal/logfmt"
)

// gcacheMetric accumulates webcache.googleusercontent.com traffic (§7.4).
type gcacheMetric struct {
	cx              *recordCtx
	total, censored uint64
	declared
}

func newGCacheMetric(e *Engine) *gcacheMetric {
	m := &gcacheMetric{cx: &e.cx}
	m.declare("gcache", scalarField{&m.total}, scalarField{&m.censored})
	return m
}

func (m *gcacheMetric) Observe(rec *logfmt.Record) {
	if rec.Host != "webcache.googleusercontent.com" {
		return
	}
	m.total++
	if m.cx.censored {
		m.censored++
	}
}
