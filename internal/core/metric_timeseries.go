package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// timeseriesMetric accumulates the 5-minute allowed/censored series of
// Figures 5 and 6 plus the per-hour censored-domain counts behind
// Table 5's peak-window breakdown.
//
// Slots are stored as one map of per-slot structs rather than parallel
// maps, with a one-entry cache of the last slot touched (slotTable): real
// corpora arrive roughly time-sorted, so consecutive records almost
// always share a 5-minute slot and the hot path is two pointer increments
// instead of two map inserts per record.
type timeseriesMetric struct {
	cx *recordCtx
	slotTable[tsSlot]
	// censHourDomains maps hour -> censored domain -> count.
	censHourDomains map[int64]*stats.Counter

	lastHourID int64
	lastHour   *stats.Counter
	declared
}

// tsSlot is one 5-minute bucket. A field is zero when that class was
// never observed in the slot.
type tsSlot struct {
	allowed  uint64
	censored uint64
}

// series returns the slot's k-th series: allowed, then censored.
func (s *tsSlot) series(k int) *uint64 {
	if k == 0 {
		return &s.allowed
	}
	return &s.censored
}

func newTimeseriesMetric(e *Engine) *timeseriesMetric {
	m := &timeseriesMetric{cx: &e.cx}
	m.slotTable = slotTable[tsSlot]{n: 2, series: (*tsSlot).series}
	m.declare("timeseries", &m.slotTable, tsHourDomainsField{m})
	return m
}

// tsAt returns the bucket for id over the module's layers without
// creating it (zero when the slot was never observed) — the read-side
// accessor for figures.
func tsAt(parts []*timeseriesMetric, id int64) tsSlot {
	var s tsSlot
	for _, m := range parts {
		if o := m.slots[id]; o != nil {
			s.allowed += o.allowed
			s.censored += o.censored
		}
	}
	return s
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
				hd = stats.NewCounter()
				m.censHourDomains[hour] = hd
			}
			m.lastHourID, m.lastHour = hour, hd
		}
		hd.Add(m.cx.Domain())
	case m.cx.allowed:
		m.slot(m.cx.slot).allowed++
	}
}

// tsHourDomainsField is hour -> censored domain -> count, with the
// one-entry cache over it.
type tsHourDomainsField struct{ m *timeseriesMetric }

func (f tsHourDomainsField) init() {
	f.m.censHourDomains, f.m.lastHour = map[int64]*stats.Counter{}, nil
}

func (f tsHourDomainsField) merge(src field) {
	dst := f.m.censHourDomains
	for hour, c := range src.(tsHourDomainsField).m.censHourDomains {
		if dst[hour] == nil {
			dst[hour] = stats.NewCounter()
		}
		dst[hour].Merge(c)
	}
}

func (f tsHourDomainsField) encode(w *statecodec.Writer) {
	encHourly(w, f.m.censHourDomains, encCounter)
}

func (f tsHourDomainsField) decode(r *statecodec.Reader) {
	f.m.censHourDomains, f.m.lastHour = decHourly(r, decCounter), nil
}

// slotTable is a map of per-slot structs S (5-minute buckets, each a few
// uint64 series) with a one-entry cache of the last slot touched. The
// timeseries and proxies modules embed it; as a field it is the n series
// in order, each encoded as its own count map holding only the slots
// where that series is non-zero — byte-identical to the historical
// layout of one map per series.
type slotTable[S any] struct {
	slots      map[int64]*S
	lastSlotID int64
	lastSlot   *S

	// series reaches the k-th of a slot's n series.
	n      int
	series func(*S, int) *uint64
}

// slot returns the bucket for id, creating it if needed, through the
// one-entry cache.
func (t *slotTable[S]) slot(id int64) *S {
	if t.lastSlot != nil && t.lastSlotID == id {
		return t.lastSlot
	}
	t.lastSlotID, t.lastSlot = id, entry(t.slots, id)
	return t.lastSlot
}

func (t *slotTable[S]) init() { t.slots, t.lastSlot = map[int64]*S{}, nil }

// merge copies the slots t lacks whole, into one block allocated for
// them, and adds the rest series by series. A clone copying an overlay
// and a fold of hourly segments, whose slots never overlap, only copy.
func (t *slotTable[S]) merge(src field) {
	from := src.(*slotTable[S]).slots
	if len(t.slots) == 0 {
		t.slots = make(map[int64]*S, len(from))
	}
	var fresh []S
	for id, o := range from {
		s := t.slots[id]
		if s == nil {
			if fresh == nil {
				fresh = make([]S, 0, len(from))
			}
			fresh = append(fresh, *o)
			t.slots[id] = &fresh[len(fresh)-1]
			continue
		}
		for k := 0; k < t.n; k++ {
			*t.series(s, k) += *t.series(o, k)
		}
	}
}

func (t *slotTable[S]) encode(w *statecodec.Writer) {
	ids := sortedKeys(t.slots)
	for k := 0; k < t.n; k++ {
		t.encSeries(w, ids, k)
	}
}

func (t *slotTable[S]) decode(r *statecodec.Reader) {
	t.init()
	for k := 0; k < t.n; k++ {
		t.decSeries(r, k)
	}
}

// encSeries writes series k over the slots in ids (ascending).
func (t *slotTable[S]) encSeries(w *statecodec.Writer, ids []int64, k int) {
	n := 0
	for _, id := range ids {
		if *t.series(t.slots[id], k) > 0 {
			n++
		}
	}
	w.Uvarint(uint64(n))
	for _, id := range ids {
		if v := *t.series(t.slots[id], k); v > 0 {
			w.Varint(id)
			w.Uvarint(v)
		}
	}
}

// decSeries reads series k, creating the slots it names.
func (t *slotTable[S]) decSeries(r *statecodec.Reader, k int) {
	n := r.Count()
	var prev int64
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Varint()
		if !ascending(r, i, prev, id) {
			break
		}
		*t.series(entry(t.slots, id), k), prev = r.Uvarint(), id
	}
}
