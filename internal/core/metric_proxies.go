package core

import (
	"strings"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// proxiesMetric accumulates the per-proxy (SG-42..48) load, censored
// volume, censored-domain profiles and default category labels: Table 6
// and Figure 7.
//
// The per-slot series are stored as one map of per-slot arrays with a
// one-entry cache of the last slot touched (slotTable; see
// timeseriesMetric for the rationale): on a roughly time-sorted corpus
// the hot path is an array increment, not a map insert.
type proxiesMetric struct {
	cx       *recordCtx
	total    [logfmt.NumProxies]uint64
	censored [logfmt.NumProxies]uint64
	slotTable[proxySlot]
	censDomains [logfmt.NumProxies]*stats.Counter
	labels      [logfmt.NumProxies]*stats.Counter // default category label sightings
	declared
}

// proxySlot is one 5-minute bucket of per-proxy counts. Zero entries
// mean "never observed".
type proxySlot struct {
	total    [logfmt.NumProxies]uint64
	censored [logfmt.NumProxies]uint64
}

// series returns the slot's k-th series: each proxy's total, then each
// proxy's censored.
func (s *proxySlot) series(k int) *uint64 {
	if k < logfmt.NumProxies {
		return &s.total[k]
	}
	return &s.censored[k-logfmt.NumProxies]
}

func newProxiesMetric(e *Engine) *proxiesMetric {
	m := &proxiesMetric{cx: &e.cx}
	m.slotTable = slotTable[proxySlot]{n: 2 * logfmt.NumProxies, series: (*proxySlot).series}
	m.declare("proxies", proxyTableField{m})
	return m
}

func (m *proxiesMetric) Observe(rec *logfmt.Record) {
	sg := rec.Proxy()
	if sg < logfmt.FirstProxy || sg > logfmt.LastProxy {
		return
	}
	pi := sg - logfmt.FirstProxy
	m.total[pi]++
	ps := m.slot(m.cx.slot)
	ps.total[pi]++
	if m.cx.censored {
		m.censored[pi]++
		ps.censored[pi]++
		m.censDomains[pi].Add(m.cx.Domain())
	}
	if rec.Categories != "" && !strings.Contains(rec.Categories, "Blocked") {
		m.labels[pi].Add(rec.Categories)
	}
}

// proxyTableField is the module's whole state. Its layout is one group
// per proxy — totals, that proxy's two slot series, its domain and label
// counts — so the slot table the groups share cannot stand as a field of
// its own.
type proxyTableField struct{ m *proxiesMetric }

func (f proxyTableField) init() {
	m := f.m
	m.total, m.censored = [logfmt.NumProxies]uint64{}, [logfmt.NumProxies]uint64{}
	m.slotTable.init()
	for i := range m.censDomains {
		m.censDomains[i] = stats.NewCounter()
		m.labels[i] = stats.NewCounter()
	}
}

func (f proxyTableField) merge(src field) {
	m, o := f.m, src.(proxyTableField).m
	m.slotTable.merge(&o.slotTable)
	for i := range m.total {
		m.total[i] += o.total[i]
		m.censored[i] += o.censored[i]
		m.censDomains[i].Merge(o.censDomains[i])
		m.labels[i].Merge(o.labels[i])
	}
}

func (f proxyTableField) encode(w *statecodec.Writer) {
	m := f.m
	w.Uvarint(logfmt.NumProxies)
	ids := sortedKeys(m.slots)
	for i := range m.total {
		w.Uvarint(m.total[i])
		w.Uvarint(m.censored[i])
		m.encSeries(w, ids, i)
		m.encSeries(w, ids, logfmt.NumProxies+i)
		encCounter(w, m.censDomains[i])
		encCounter(w, m.labels[i])
	}
}

func (f proxyTableField) decode(r *statecodec.Reader) {
	m := f.m
	if !decProxyCount(r) {
		return
	}
	m.slotTable.init()
	for i := 0; i < logfmt.NumProxies && r.Err() == nil; i++ {
		m.total[i] = r.Uvarint()
		m.censored[i] = r.Uvarint()
		m.decSeries(r, i)
		m.decSeries(r, logfmt.NumProxies+i)
		m.censDomains[i] = decCounter(r)
		m.labels[i] = decCounter(r)
	}
}
