package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// categoriesMetric accumulates the category distribution of censored
// traffic (Figure 3), on the full corpus and on Dsample.
type categoriesMetric struct {
	cx *recordCtx

	censoredSample *stats.Counter
	censoredFull   *stats.Counter
	declared
}

func newCategoriesMetric(e *Engine) *categoriesMetric {
	m := &categoriesMetric{cx: &e.cx}
	m.declare("categories", counterField{&m.censoredSample}, counterField{&m.censoredFull})
	return m
}

func (m *categoriesMetric) Observe(rec *logfmt.Record) {
	if !m.cx.censored {
		return
	}
	cat := string(m.cx.HostCategory())
	if _, isIP := m.cx.IPv4(); isIP {
		cat = "Content Server" // CDNs/raw hosts; the paper's top bucket
	}
	m.censoredFull.Add(cat)
	if m.cx.Sampled() {
		m.censoredSample.Add(cat)
	}
}
