package core

import (
	"syriafilter/internal/logfmt"
)

// osnMetric accumulates censored/allowed/proxied counts across the §6
// social-network watchlist (Table 13). The map is pre-seeded with the
// whole watchlist so never-seen OSNs still report zero rows.
type osnMetric struct {
	cx  *recordCtx
	osn map[string]*triple
	declared
}

func newOSNMetric(e *Engine) *osnMetric {
	m := &osnMetric{cx: &e.cx}
	m.declare("osn", tripleMapField{&m.osn})
	for _, osn := range OSNWatchlist {
		m.osn[osn] = &triple{}
	}
	return m
}

func (m *osnMetric) Observe(rec *logfmt.Record) {
	if ts, ok := m.osn[m.cx.Domain()]; ok {
		bumpTriple(ts, m.cx.censored, m.cx.allowed, m.cx.proxied)
	}
}
