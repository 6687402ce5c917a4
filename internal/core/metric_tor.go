package core

import (
	"slices"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/torsim"
)

// torMetric accumulates the §7.1 Tor view: request volumes by protocol,
// censored relays and the hourly series behind Figures 8 and 9. Without a
// consensus in Options the module observes nothing, matching the old
// Analyzer behaviour.
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
}

func newTorMetric(e *Engine) *torMetric {
	return &torMetric{
		cx:               &e.cx,
		opt:              &e.opt,
		hourly:           map[int64]uint64{},
		censHourly:       map[int64]uint64{},
		censoredIPs:      map[uint32]struct{}{},
		allowedIPsByHour: map[int64]map[uint32]struct{}{},
	}
}

func (m *torMetric) Name() string { return "tor" }

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

func (m *torMetric) Merge(other Metric) {
	o := other.(*torMetric)
	m.total += o.total
	m.http += o.http
	m.onion += o.onion
	m.censored += o.censored
	m.errors += o.errors
	for i := 0; i < logfmt.NumProxies; i++ {
		m.censoredByProxy[i] += o.censoredByProxy[i]
	}
	mergeI64(m.hourly, o.hourly)
	mergeI64(m.censHourly, o.censHourly)
	for ip := range o.censoredIPs {
		m.censoredIPs[ip] = struct{}{}
	}
	for hour, set := range o.allowedIPsByHour {
		mine := m.allowedIPsByHour[hour]
		if mine == nil {
			mine = map[uint32]struct{}{}
			m.allowedIPsByHour[hour] = mine
		}
		for ip := range set {
			mine[ip] = struct{}{}
		}
	}
}

func (m *torMetric) EncodeState(w *statecodec.Writer) {
	w.Byte(1)
	w.Uvarint(m.total)
	w.Uvarint(m.http)
	w.Uvarint(m.onion)
	w.Uvarint(m.censored)
	w.Uvarint(m.errors)
	w.Uvarint(logfmt.NumProxies)
	for i := 0; i < logfmt.NumProxies; i++ {
		w.Uvarint(m.censoredByProxy[i])
	}
	encI64Counts(w, m.hourly)
	encI64Counts(w, m.censHourly)
	encIPSet(w, m.censoredIPs)
	hours := make([]int64, 0, len(m.allowedIPsByHour))
	for h := range m.allowedIPsByHour {
		hours = append(hours, h)
	}
	slices.Sort(hours)
	w.Uvarint(uint64(len(hours)))
	for _, h := range hours {
		w.Varint(h)
		encIPSet(w, m.allowedIPsByHour[h])
	}
}

func (m *torMetric) DecodeState(r *statecodec.Reader) {
	checkVersion(r, "tor", 1)
	m.total = r.Uvarint()
	m.http = r.Uvarint()
	m.onion = r.Uvarint()
	m.censored = r.Uvarint()
	m.errors = r.Uvarint()
	if n := r.Count(); r.Err() == nil && n != logfmt.NumProxies {
		r.Failf("core: %d proxies, want %d", n, logfmt.NumProxies)
		return
	}
	for i := 0; i < logfmt.NumProxies; i++ {
		m.censoredByProxy[i] = r.Uvarint()
	}
	m.hourly = decI64Counts(r)
	m.censHourly = decI64Counts(r)
	m.censoredIPs = decIPSet(r)
	n := r.Count()
	m.allowedIPsByHour = make(map[int64]map[uint32]struct{}, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		h := r.Varint()
		m.allowedIPsByHour[h] = decIPSet(r)
	}
}
