package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// usersMetric accumulates per-user totals over the Duser window: Figure 4
// and the §4 headline user numbers. Every user seen is a key of total;
// censored holds the users with a censored request.
type usersMetric struct {
	cx              *recordCtx
	total, censored *stats.Counter
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
	m.total.Add(key)
	if m.cx.censored {
		m.censored.Add(key)
	}
}

// userReport computes the Fig 4 / §4 user view.
func userReport(m *usersMetric) UserReport {
	rep := UserReport{CensoredPerUser: make([]uint64, 16)}
	var actC, actO []float64
	m.total.Each(func(key string, total uint64) {
		rep.TotalUsers++
		if c := m.censored.Count(key); c > 0 {
			rep.CensoredUsers++
			bucket := min(int(c), len(rep.CensoredPerUser)) - 1
			rep.CensoredPerUser[bucket]++
			actC = append(actC, float64(total))
		} else {
			actO = append(actO, float64(total))
		}
	})
	rep.ActivityCensored = stats.NewCDF(actC)
	rep.ActivityOthers = stats.NewCDF(actO)
	rep.ShareActiveCensored = 1 - rep.ActivityCensored.P(100)
	rep.ShareActiveOthers = 1 - rep.ActivityOthers.P(100)
	rep.MeanActivityCensored = mean(actC)
	rep.MeanActivityOthers = mean(actO)
	return rep
}

// userTableField is the per-user table: one entry per user key, in key
// order, holding its total and censored requests.
type userTableField struct{ m *usersMetric }

func (f userTableField) init() { f.m.total, f.m.censored = stats.NewCounter(), stats.NewCounter() }

func (f userTableField) merge(src field) {
	m, o := f.m, src.(userTableField).m
	m.total.Merge(o.total)
	m.censored.Merge(o.censored)
}

func (f userTableField) view(base, own field) {
	b, o := base.(userTableField).m, own.(userTableField).m
	f.m.total, f.m.censored = o.total.Over(b.total), o.censored.Over(b.censored)
}

func (f userTableField) encode(w *statecodec.Writer) {
	m := f.m
	users := sortedEntries(m.total)
	w.Uvarint(uint64(len(users)))
	for _, u := range users {
		w.StringRef(u.Key)
		w.Uvarint(u.Count)
		w.Uvarint(m.censored.Count(u.Key))
	}
}

// decode refuses a repeated or out-of-order user key, as decCounter
// does. An entry is at least three bytes.
func (f userTableField) decode(r *statecodec.Reader) {
	n := r.Count()
	size := min(n, r.Remaining()/3)
	keys, totals := make([]string, 0, size), make([]uint64, 0, size)
	var ckeys []string
	var ccounts []uint64
	for i := 0; i < n; i++ {
		k, total, censored := r.StringRef(), r.Uvarint(), r.Uvarint()
		if r.Err() != nil || i > 0 && !ascending(r, i, keys[i-1], k) {
			break
		}
		keys, totals = append(keys, k), append(totals, total)
		if censored > 0 {
			ckeys, ccounts = append(ckeys, k), append(ccounts, censored)
		}
	}
	f.m.total, f.m.censored = stats.CounterOf(keys, totals), stats.CounterOf(ckeys, ccounts)
}
