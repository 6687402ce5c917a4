package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// usersMetric accumulates per-user totals over the Duser window: Figure 4
// and the §4 headline user numbers.
type usersMetric struct {
	cx    *recordCtx
	users map[string]*userStat
	declared
}

func newUsersMetric(e *Engine) *usersMetric {
	m := &usersMetric{cx: &e.cx}
	m.declare("users", userTableField{m})
	return m
}

func (m *usersMetric) Observe(rec *logfmt.Record) {
	key := m.cx.UserKey()
	if key == "" {
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

// report computes the Fig 4 / §4 user view.
func (m *usersMetric) report() UserReport {
	rep := UserReport{CensoredPerUser: make([]uint64, 16)}
	var actC, actO []float64
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
	rep.ActivityCensored = stats.NewCDF(actC)
	rep.ActivityOthers = stats.NewCDF(actO)
	rep.ShareActiveCensored = 1 - rep.ActivityCensored.P(100)
	rep.ShareActiveOthers = 1 - rep.ActivityOthers.P(100)
	rep.MeanActivityCensored = mean(actC)
	rep.MeanActivityOthers = mean(actO)
	return rep
}

// userTableField is the per-user table: total and censored requests per
// user key.
type userTableField struct{ m *usersMetric }

func (f userTableField) init() { f.m.users = map[string]*userStat{} }

func (f userTableField) merge(src field) {
	m, o := f.m, src.(userTableField).m
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

func (f userTableField) encode(w *statecodec.Writer) {
	m := f.m
	w.Uvarint(uint64(len(m.users)))
	for _, k := range sortedKeys(m.users) {
		us := m.users[k]
		w.StringRef(k)
		w.Uvarint(us.Total)
		w.Uvarint(us.Censored)
	}
}

func (f userTableField) decode(r *statecodec.Reader) {
	n := r.Count()
	users := make(map[string]*userStat, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		users[k] = &userStat{Total: r.Uvarint(), Censored: r.Uvarint()}
	}
	f.m.users = users
}
