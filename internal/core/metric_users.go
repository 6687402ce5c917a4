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

// userReport computes the Fig 4 / §4 user view over the module's
// layers (see layers): a user's totals are the sum of its entries in
// each.
func userReport(parts []*usersMetric) UserReport {
	rep := UserReport{CensoredPerUser: make([]uint64, 16)}
	var actC, actO []float64
	add := func(us userStat) {
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
	top := parts[len(parts)-1].users
	for k, us := range top {
		u := *us
		if len(parts) == 2 {
			if b := parts[0].users[k]; b != nil {
				u.Total += b.Total
				u.Censored += b.Censored
			}
		}
		add(u)
	}
	if len(parts) == 2 {
		for k, us := range parts[0].users {
			if top[k] == nil {
				add(*us)
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

// userTableField is the per-user table: total and censored requests per
// user key.
type userTableField struct{ m *usersMetric }

func (f userTableField) init() { f.m.users = map[string]*userStat{} }

// merge copies the users m lacks into one block allocated for them.
func (f userTableField) merge(src field) {
	m, o := f.m, src.(userTableField).m
	if len(m.users) == 0 {
		m.users = make(map[string]*userStat, len(o.users))
	}
	var fresh []userStat
	for k, v := range o.users {
		if mine, ok := m.users[k]; ok {
			mine.Total += v.Total
			mine.Censored += v.Censored
		} else {
			if fresh == nil {
				fresh = make([]userStat, 0, len(o.users))
			}
			fresh = append(fresh, *v)
			m.users[k] = &fresh[len(fresh)-1]
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
