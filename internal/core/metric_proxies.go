package core

import (
	"slices"
	"strings"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

// proxiesMetric accumulates the per-proxy (SG-42..48) load, censored
// volume, censored-domain profiles and default category labels: Table 6
// and Figure 7.
//
// The per-slot series are stored as one map of per-slot arrays with a
// one-entry cache of the last slot touched (see timeseriesMetric for the
// rationale): on a roughly time-sorted corpus the hot path is an array
// increment, not a map insert.
type proxiesMetric struct {
	cx          *recordCtx
	total       [logfmt.NumProxies]uint64
	censored    [logfmt.NumProxies]uint64
	slots       map[int64]*proxySlot
	censDomains [logfmt.NumProxies]map[string]uint64
	labels      [logfmt.NumProxies]map[string]uint64 // default category label sightings

	lastSlotID int64
	lastSlot   *proxySlot
}

// proxySlot is one 5-minute bucket of per-proxy counts. Zero entries
// mean "never observed" and are skipped when encoding, keeping the state
// byte-compatible with the historical per-proxy-map layout.
type proxySlot struct {
	total    [logfmt.NumProxies]uint64
	censored [logfmt.NumProxies]uint64
}

func newProxiesMetric(e *Engine) *proxiesMetric {
	m := &proxiesMetric{cx: &e.cx, slots: map[int64]*proxySlot{}}
	for i := 0; i < logfmt.NumProxies; i++ {
		m.censDomains[i] = map[string]uint64{}
		m.labels[i] = map[string]uint64{}
	}
	return m
}

func (m *proxiesMetric) Name() string { return "proxies" }

// slot returns the bucket for id, creating it if needed, through the
// one-entry cache.
func (m *proxiesMetric) slot(id int64) *proxySlot {
	if m.lastSlot != nil && m.lastSlotID == id {
		return m.lastSlot
	}
	s := m.slots[id]
	if s == nil {
		s = &proxySlot{}
		m.slots[id] = s
	}
	m.lastSlotID, m.lastSlot = id, s
	return s
}

// at returns the bucket for id without creating it (zero value when the
// slot was never observed) — the read-side accessor for figures.
func (m *proxiesMetric) at(id int64) *proxySlot {
	return m.slots[id]
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
		m.censDomains[pi][m.cx.Domain()]++
	}
	if rec.Categories != "" && !strings.Contains(rec.Categories, "Blocked") {
		m.labels[pi][rec.Categories]++
	}
}

func (m *proxiesMetric) Merge(other Metric) {
	o := other.(*proxiesMetric)
	for id, os := range o.slots {
		s := m.slots[id]
		if s == nil {
			s = &proxySlot{}
			m.slots[id] = s
		}
		for i := 0; i < logfmt.NumProxies; i++ {
			s.total[i] += os.total[i]
			s.censored[i] += os.censored[i]
		}
	}
	for i := 0; i < logfmt.NumProxies; i++ {
		m.total[i] += o.total[i]
		m.censored[i] += o.censored[i]
		mergeStr(m.censDomains[i], o.censDomains[i])
		mergeStr(m.labels[i], o.labels[i])
	}
}

func (m *proxiesMetric) EncodeState(w *statecodec.Writer) {
	w.Byte(1)
	w.Uvarint(logfmt.NumProxies)
	ids := make([]int64, 0, len(m.slots))
	for id := range m.slots {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// Per proxy, the slot series encode as count maps that skip zero
	// entries — byte-identical to the historical layout of one map per
	// proxy holding only the slots that proxy observed.
	encSeries := func(sel func(*proxySlot) uint64) {
		n := 0
		for _, id := range ids {
			if sel(m.slots[id]) > 0 {
				n++
			}
		}
		w.Uvarint(uint64(n))
		for _, id := range ids {
			if v := sel(m.slots[id]); v > 0 {
				w.Varint(id)
				w.Uvarint(v)
			}
		}
	}
	for i := 0; i < logfmt.NumProxies; i++ {
		i := i
		w.Uvarint(m.total[i])
		w.Uvarint(m.censored[i])
		encSeries(func(s *proxySlot) uint64 { return s.total[i] })
		encSeries(func(s *proxySlot) uint64 { return s.censored[i] })
		encStrCounts(w, m.censDomains[i])
		encStrCounts(w, m.labels[i])
	}
}

func (m *proxiesMetric) DecodeState(r *statecodec.Reader) {
	checkVersion(r, "proxies", 1)
	if n := r.Count(); r.Err() == nil && n != logfmt.NumProxies {
		r.Failf("core: %d proxies, want %d", n, logfmt.NumProxies)
		return
	}
	m.slots = map[int64]*proxySlot{}
	m.lastSlot = nil
	decSeries := func(i int, censored bool) {
		n := r.Count()
		for j := 0; j < n && r.Err() == nil; j++ {
			id := r.Varint()
			v := r.Uvarint()
			s := m.slots[id]
			if s == nil {
				s = &proxySlot{}
				m.slots[id] = s
			}
			if censored {
				s.censored[i] = v
			} else {
				s.total[i] = v
			}
		}
	}
	for i := 0; i < logfmt.NumProxies && r.Err() == nil; i++ {
		m.total[i] = r.Uvarint()
		m.censored[i] = r.Uvarint()
		decSeries(i, false)
		decSeries(i, true)
		m.censDomains[i] = decStrCounts(r)
		m.labels[i] = decStrCounts(r)
	}
}
