package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/torsim"
)

// torMetric accumulates the §7.1 Tor view: request volumes by protocol,
// censored relays and the hourly series behind Figures 8 and 9. Without a
// consensus in Options the module observes nothing.
type torMetric struct {
	cx  *recordCtx
	opt *Options

	total, http, onion uint64
	censored, errors   uint64
	censoredByProxy    [logfmt.NumProxies]uint64
	hourly             map[int64]uint64
	censHourly         map[int64]uint64
	censoredIPs        map[uint32]struct{}
	allowedIPsByHour   map[int64]map[uint32]struct{}
	declared
}

func newTorMetric(e *Engine) *torMetric {
	m := &torMetric{cx: &e.cx, opt: &e.opt}
	m.declare("tor",
		scalarField{&m.total}, scalarField{&m.http}, scalarField{&m.onion},
		scalarField{&m.censored}, scalarField{&m.errors},
		proxyCountsField{&m.censoredByProxy},
		hourCountsField{&m.hourly}, hourCountsField{&m.censHourly},
		ipSetField{&m.censoredIPs},
		hourIPSetsField{&m.allowedIPsByHour},
	)
	return m
}

func (m *torMetric) Observe(rec *logfmt.Record) {
	if m.opt.Consensus == nil {
		return
	}
	tc := m.opt.Consensus.ClassifyRequest(rec.Host, rec.Port, rec.Path)
	if tc == torsim.NotTor {
		return
	}
	m.total++
	hour := rec.Time / 3600
	m.hourly[hour]++
	switch tc {
	case torsim.TorHTTP:
		m.http++
	case torsim.TorOnion:
		m.onion++
	}
	ip, _ := m.cx.IPv4()
	switch {
	case m.cx.censored:
		m.censored++
		m.censHourly[hour]++
		m.censoredIPs[ip] = struct{}{}
		if sg := rec.Proxy(); sg >= logfmt.FirstProxy && sg <= logfmt.LastProxy {
			m.censoredByProxy[sg-logfmt.FirstProxy]++
		}
	case m.cx.class == logfmt.ClassError:
		m.errors++
	default:
		set := m.allowedIPsByHour[hour]
		if set == nil {
			set = map[uint32]struct{}{}
			m.allowedIPsByHour[hour] = set
		}
		set[ip] = struct{}{}
	}
}
