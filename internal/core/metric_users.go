package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// usersMetric accumulates per-user totals over the Duser window: Figure 4
// and the §4 headline user numbers.
//
// In sketch mode the per-user map is replaced by two HyperLogLogs (distinct
// users / distinct censored users) and two Space-Saving sketches (per-user
// total and censored request counts), so memory stays bounded no matter how
// many distinct user keys the corpus holds. The headline counts become HLL
// estimates and the Fig 4 histogram/CDFs are computed over the retained
// top-k heavy users only.
type usersMetric struct {
	cx *recordCtx

	// Exact mode.
	users map[string]*userStat

	// Sketch mode.
	sketched    bool
	hllTotal    *stats.HyperLogLog
	hllCensored *stats.HyperLogLog
	topTotal    *stats.TopK
	topCensored *stats.TopK
	declared
}

func newUsersMetric(e *Engine) *usersMetric {
	m := &usersMetric{cx: &e.cx, sketched: e.Sketched()}
	m.declare(e, "users", userTableField{m})
	return m
}

func (m *usersMetric) Observe(rec *logfmt.Record) {
	key := m.cx.UserKey()
	if key == "" {
		return
	}
	if m.sketched {
		m.hllTotal.Add(key)
		m.topTotal.Add(key)
		if m.cx.censored {
			m.hllCensored.Add(key)
			m.topCensored.Add(key)
		}
		return
	}
	us := m.users[key]
	if us == nil {
		us = &userStat{}
		m.users[key] = us
	}
	us.Total++
	if m.cx.censored {
		us.Censored++
	}
}

// report computes the Fig 4 / §4 user view in the metric's counting mode.
func (m *usersMetric) report() UserReport {
	rep := UserReport{CensoredPerUser: make([]uint64, 16)}
	var actC, actO []float64
	if m.sketched {
		rep.TotalUsers = int(m.hllTotal.Estimate())
		rep.CensoredUsers = int(m.hllCensored.Estimate())
		// Histogram and activity CDFs over the retained heavy users: a
		// user is "censored" when the censored sketch still tracks it.
		m.topTotal.EachEntry(func(key string, total, _ uint64) {
			if cens, _, ok := m.topCensored.Estimate(key); ok {
				bucket := int(cens) - 1
				if bucket >= len(rep.CensoredPerUser) {
					bucket = len(rep.CensoredPerUser) - 1
				}
				rep.CensoredPerUser[bucket]++
				actC = append(actC, float64(total))
			} else {
				actO = append(actO, float64(total))
			}
		})
	} else {
		for _, us := range m.users {
			rep.TotalUsers++
			if us.Censored > 0 {
				rep.CensoredUsers++
				bucket := int(us.Censored) - 1
				if bucket >= len(rep.CensoredPerUser) {
					bucket = len(rep.CensoredPerUser) - 1
				}
				rep.CensoredPerUser[bucket]++
				actC = append(actC, float64(us.Total))
			} else {
				actO = append(actO, float64(us.Total))
			}
		}
	}
	rep.ActivityCensored = stats.NewCDF(actC)
	rep.ActivityOthers = stats.NewCDF(actO)
	rep.ShareActiveCensored = 1 - rep.ActivityCensored.P(100)
	rep.ShareActiveOthers = 1 - rep.ActivityOthers.P(100)
	rep.MeanActivityCensored = mean(actC)
	rep.MeanActivityOthers = mean(actO)
	return rep
}

// userTableField is the per-user table in the engine's counting mode:
// the exact map, or the two HyperLogLogs and two Space-Saving sketches.
type userTableField struct{ m *usersMetric }

func (f userTableField) init(e *Engine) {
	m := f.m
	if !m.sketched {
		m.users = map[string]*userStat{}
		return
	}
	so := e.opt.Sketches
	m.hllTotal = stats.NewHyperLogLog(so.Precision)
	m.hllCensored = stats.NewHyperLogLog(so.Precision)
	m.topTotal = stats.NewTopK(so.TopK)
	m.topCensored = stats.NewTopK(so.TopK)
}

func (f userTableField) merge(src field) {
	m, o := f.m, src.(userTableField).m
	if m.sketched {
		m.hllTotal.Merge(o.hllTotal)
		m.hllCensored.Merge(o.hllCensored)
		m.topTotal.Merge(o.topTotal)
		m.topCensored.Merge(o.topCensored)
		return
	}
	for k, v := range o.users {
		if mine, ok := m.users[k]; ok {
			mine.Total += v.Total
			mine.Censored += v.Censored
		} else {
			cp := *v
			m.users[k] = &cp
		}
	}
}

func (f userTableField) sketchSizes() SketchSizes {
	m := f.m
	return SketchSizes{
		TopKEntries:  m.topTotal.Len() + m.topCensored.Len(),
		TopKCapacity: m.topTotal.Capacity() + m.topCensored.Capacity(),
		HLLs:         2,
	}
}

func (f userTableField) encode(w *statecodec.Writer) {
	m := f.m
	if m.sketched {
		encHLL(w, m.hllTotal)
		encHLL(w, m.hllCensored)
		encTopK(w, m.topTotal)
		encTopK(w, m.topCensored)
		return
	}
	w.Uvarint(uint64(len(m.users)))
	for _, k := range sortedKeys(m.users) {
		us := m.users[k]
		w.StringRef(k)
		w.Uvarint(us.Total)
		w.Uvarint(us.Censored)
	}
}

func (f userTableField) decode(r *statecodec.Reader, layout byte, e *Engine) {
	m := f.m
	if layout == layoutSketch {
		m.hllTotal = decHLL(r)
		m.hllCensored = decHLL(r)
		m.topTotal = decTopK(r)
		m.topCensored = decTopK(r)
		return
	}
	// Exact state: load verbatim, or replay each user's totals into
	// fresh sketches when this engine runs sketched.
	n := r.Count()
	if m.sketched {
		f.init(e)
	} else {
		m.users = make(map[string]*userStat, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		total := r.Uvarint()
		censored := r.Uvarint()
		if r.Err() != nil {
			return
		}
		if !m.sketched {
			m.users[k] = &userStat{Total: total, Censored: censored}
			continue
		}
		m.hllTotal.Add(k)
		m.topTotal.AddN(k, total)
		if censored > 0 {
			m.hllCensored.Add(k)
			m.topCensored.AddN(k, censored)
		}
	}
}
