package core

import (
	"syriafilter/internal/logfmt"
)

// httpsMetric accumulates the §4 HTTPS/CONNECT view. It counts every
// record (grandTotal) so the traffic share is self-contained and a
// subset engine needs no datasets module.
type httpsMetric struct {
	cx *recordCtx

	grandTotal    uint64
	total         uint64
	censored      uint64
	censoredIPLit uint64
	declared
}

func newHTTPSMetric(e *Engine) *httpsMetric {
	m := &httpsMetric{cx: &e.cx}
	m.declare("https",
		scalarField{&m.grandTotal}, scalarField{&m.total},
		scalarField{&m.censored}, scalarField{&m.censoredIPLit},
	)
	return m
}

func (m *httpsMetric) Observe(rec *logfmt.Record) {
	m.grandTotal++
	if rec.Method != "CONNECT" && rec.Scheme != "https" && rec.Scheme != "tcp" {
		return
	}
	m.total++
	if m.cx.censored {
		m.censored++
		if _, isIP := m.cx.IPv4(); isIP {
			m.censoredIPLit++
		}
	}
}
