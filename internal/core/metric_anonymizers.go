package core

import (
	"syriafilter/internal/categorydb"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// anonymizersMetric accumulates the §7.2 anonymizer-service host counts
// (Figure 10).
type anonymizersMetric struct {
	cx *recordCtx

	allowed  *stats.Counter
	censored *stats.Counter
	declared
}

func newAnonymizersMetric(e *Engine) *anonymizersMetric {
	m := &anonymizersMetric{cx: &e.cx}
	m.declare("anonymizers", counterField{&m.allowed}, counterField{&m.censored})
	return m
}

func (m *anonymizersMetric) Observe(rec *logfmt.Record) {
	if m.cx.HostCategory() != categorydb.CatAnonymizer {
		return
	}
	if m.cx.censored {
		m.censored.Add(rec.Host)
	} else if m.cx.allowed {
		m.allowed.Add(rec.Host)
	}
}
