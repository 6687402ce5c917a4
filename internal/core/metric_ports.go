package core

import (
	"syriafilter/internal/logfmt"
)

// portsMetric accumulates the per-port request counts of Figure 1.
type portsMetric struct {
	cx       *recordCtx
	allowed  map[uint16]uint64
	censored map[uint16]uint64
	declared
}

func newPortsMetric(e *Engine) *portsMetric {
	m := &portsMetric{cx: &e.cx}
	m.declare("ports", portCountsField{&m.allowed}, portCountsField{&m.censored})
	return m
}

func (m *portsMetric) Observe(rec *logfmt.Record) {
	switch {
	case m.cx.proxied:
	case m.cx.censored:
		m.censored[rec.Port]++
	case m.cx.allowed:
		m.allowed[rec.Port]++
	}
}
