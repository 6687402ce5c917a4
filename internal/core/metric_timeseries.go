package core

import (
	"slices"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

// timeseriesMetric accumulates the 5-minute allowed/censored series of
// Figures 5 and 6 plus the per-hour censored-domain counts behind
// Table 5's peak-window breakdown.
//
// Slots are stored as one map of per-slot structs rather than parallel
// maps, with a one-entry cache of the last slot touched: real corpora
// arrive roughly time-sorted, so consecutive records almost always share
// a 5-minute slot and the hot path is two pointer increments instead of
// two map inserts per record.
type timeseriesMetric struct {
	cx    *recordCtx
	slots map[int64]*tsSlot
	// censHourDomains maps hour -> censored domain -> count.
	censHourDomains map[int64]map[string]uint64

	lastSlotID int64
	lastSlot   *tsSlot
	lastHourID int64
	lastHour   map[string]uint64
}

// tsSlot is one 5-minute bucket. A field is zero when that class was
// never observed in the slot (the encoded state skips zero fields, so it
// stays byte-compatible with the historical parallel-map layout).
type tsSlot struct {
	allowed  uint64
	censored uint64
}

func newTimeseriesMetric(e *Engine) *timeseriesMetric {
	return &timeseriesMetric{
		cx:              &e.cx,
		slots:           map[int64]*tsSlot{},
		censHourDomains: map[int64]map[string]uint64{},
	}
}

func (m *timeseriesMetric) Name() string { return "timeseries" }

// slot returns the bucket for id, creating it if needed, through the
// one-entry cache.
func (m *timeseriesMetric) slot(id int64) *tsSlot {
	if m.lastSlot != nil && m.lastSlotID == id {
		return m.lastSlot
	}
	s := m.slots[id]
	if s == nil {
		s = &tsSlot{}
		m.slots[id] = s
	}
	m.lastSlotID, m.lastSlot = id, s
	return s
}

// at returns the bucket for id without creating it (zero value when the
// slot was never observed) — the read-side accessor for figures.
func (m *timeseriesMetric) at(id int64) tsSlot {
	if s := m.slots[id]; s != nil {
		return *s
	}
	return tsSlot{}
}

func (m *timeseriesMetric) Observe(rec *logfmt.Record) {
	switch {
	case m.cx.proxied:
	case m.cx.censored:
		m.slot(m.cx.slot).censored++
		hour := rec.Time / 3600
		hd := m.lastHour
		if hd == nil || m.lastHourID != hour {
			hd = m.censHourDomains[hour]
			if hd == nil {
				hd = map[string]uint64{}
				m.censHourDomains[hour] = hd
			}
			m.lastHourID, m.lastHour = hour, hd
		}
		hd[m.cx.Domain()]++
	case m.cx.allowed:
		m.slot(m.cx.slot).allowed++
	}
}

func (m *timeseriesMetric) Merge(other Metric) {
	o := other.(*timeseriesMetric)
	for id, os := range o.slots {
		s := m.slots[id]
		if s == nil {
			s = &tsSlot{}
			m.slots[id] = s
		}
		s.allowed += os.allowed
		s.censored += os.censored
	}
	for hour, hd := range o.censHourDomains {
		mine := m.censHourDomains[hour]
		if mine == nil {
			mine = map[string]uint64{}
			m.censHourDomains[hour] = mine
		}
		mergeStr(mine, hd)
	}
}

// sortedSlotIDs returns the slot ids in ascending order.
func (m *timeseriesMetric) sortedSlotIDs() []int64 {
	ids := make([]int64, 0, len(m.slots))
	for id := range m.slots {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *timeseriesMetric) EncodeState(w *statecodec.Writer) {
	w.Byte(1)
	// Encode the allowed and censored series as two separate count maps,
	// skipping zero fields — byte-identical to the historical layout
	// where each series was its own map holding only observed slots.
	ids := m.sortedSlotIDs()
	for _, sel := range []func(*tsSlot) uint64{
		func(s *tsSlot) uint64 { return s.allowed },
		func(s *tsSlot) uint64 { return s.censored },
	} {
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
	hours := make([]int64, 0, len(m.censHourDomains))
	for h := range m.censHourDomains {
		hours = append(hours, h)
	}
	slices.Sort(hours)
	w.Uvarint(uint64(len(hours)))
	for _, h := range hours {
		w.Varint(h)
		encStrCounts(w, m.censHourDomains[h])
	}
}

func (m *timeseriesMetric) DecodeState(r *statecodec.Reader) {
	checkVersion(r, "timeseries", 1)
	m.slots = map[int64]*tsSlot{}
	m.lastSlot, m.lastHour = nil, nil
	for pass := 0; pass < 2; pass++ {
		n := r.Count()
		for i := 0; i < n && r.Err() == nil; i++ {
			id := r.Varint()
			v := r.Uvarint()
			s := m.slots[id]
			if s == nil {
				s = &tsSlot{}
				m.slots[id] = s
			}
			if pass == 0 {
				s.allowed = v
			} else {
				s.censored = v
			}
		}
	}
	n := r.Count()
	m.censHourDomains = make(map[int64]map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		h := r.Varint()
		m.censHourDomains[h] = decStrCounts(r)
	}
}
