package timewin

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
)

// rollupMetrics adds the §5.4 inputs to testMetrics, so that a rollup's
// joined URL index and a replay's store growth are exercised too.
var rollupMetrics = append(append([]string(nil), testMetrics...), "tokens")

// A range read that merges a day from its rollup returns what merging
// the day's buckets returns, through every way a rollup goes stale or
// away: after each step every day window, and a few windows across and
// inside days, encode byte for byte as on a partition without rollups
// over the same records.
func TestDayRollupsMatchHours(t *testing.T) {
	const days = 5
	day := func(d int) int64 { return base + int64(d)*86400 }
	at := func(d, h int) int64 { return day(d) + int64(h)*3600 }
	rec := func(ts int64, i int) logfmt.Record {
		r := mkRec(ts, fmt.Sprintf("site-%d.example.com", i%7), i%4 == 0)
		r.Path = fmt.Sprintf("/p%d/q%d", i%11, i%5)
		return r
	}
	build := func(width, retain time.Duration) (p, q *Partition) {
		var err error
		for _, x := range []**Partition{&p, &q} {
			if *x, err = New(Config{Metrics: rollupMetrics, Bucket: width, Retain: retain}); err != nil {
				t.Fatal(err)
			}
		}
		q.dayBuckets = 0 // the reference: every read merges buckets
		return p, q
	}
	n := 0
	observe := func(ps []*Partition, ts ...int64) {
		for _, tm := range ts {
			r := rec(tm, n)
			n++
			for _, p := range ps {
				p.Observe(&r)
			}
		}
	}
	// corpus is days 0–4, three records an hour, hour 5 of each day left
	// out so that a late record can open it.
	corpus := func(ps ...*Partition) {
		for d := 0; d < days; d++ {
			for h := 0; h < 24; h++ {
				if h != 5 {
					observe(ps, at(d, h), at(d, h)+600, at(d, h)+1800)
				}
			}
		}
	}
	windows := func(last int) []Window {
		ws := []Window{
			{From: day(0), To: day(3)},
			{From: at(1, 6), To: at(3, 2)},
			{From: at(2, 0), To: at(2, 12)},
			{},
		}
		for d := -1; d <= last; d++ {
			ws = append(ws, Window{From: day(d), To: day(d + 1)})
		}
		return ws
	}
	engine := func() *core.Engine {
		e, err := core.NewEngine(core.Options{}, rollupMetrics...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	check := func(step string, p, q *Partition, last int) {
		t.Helper()
		for _, w := range windows(last) {
			got, want := engine(), engine()
			gc, gerr := p.RangeInto(got, w)
			wc, werr := q.RangeInto(want, w)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: window %s: err %v, reference err %v", step, w, gerr, werr)
			}
			if gc != wc {
				t.Errorf("%s: window %s: coverage %+v, reference %+v", step, w, gc, wc)
			}
			if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
				t.Errorf("%s: window %s: state differs from the buckets' merge", step, w)
			}
		}
	}
	served := func(p *Partition) uint64 { d, _ := p.Rollups(); return d }

	p, q := build(time.Hour, 0)
	both := []*Partition{p, q}
	corpus(both...)
	check("built", p, q, days)
	if served(p) == 0 {
		t.Fatal("no day was read from a rollup")
	}
	if len(p.rollups) != days-1 {
		t.Errorf("%d rollups, want %d: every day but the newest is sealed", len(p.rollups), days-1)
	}
	if d, _ := q.Rollups(); d != 0 || q.rollups != nil {
		t.Fatal("the reference partition built rollups")
	}

	// A replayed rollup is the one built before, not a rebuild.
	kept := func(step string, want map[int64]*rollup) {
		t.Helper()
		for d, r := range want {
			if p.rollups[d] != r {
				t.Errorf("%s: day %d's rollup was rebuilt, not replayed", step, d)
			}
		}
	}
	rollups := maps.Clone(p.rollups)
	observe(both, at(1, 3)+7, at(2, 23)+59)
	check("late record into a rolled-up hour", p, q, days)
	if _, r := p.Rollups(); r != 2 {
		t.Errorf("replayed %d late records, want 2", r)
	}
	kept("late record into a rolled-up hour", rollups)

	observe(both, at(3, 5)+1)
	check("late record opening an hour of a sealed day", p, q, days)
	if _, r := p.Rollups(); r != 3 {
		t.Errorf("replayed %d late records, want 3", r)
	}
	kept("late record opening an hour of a sealed day", rollups)

	before := len(p.rollups)
	observe(both, at(days, 0))
	check("a newer bucket seals the newest day", p, q, days)
	if len(p.rollups) != before+1 {
		t.Errorf("%d rollups, want %d: the newest day is sealed now", len(p.rollups), before+1)
	}

	d2 := p.dayOf(floorDiv(day(2), p.bucketSecs))
	for i := 0; i <= maxLate; i++ {
		observe(both, at(2, i%24)+int64(i%3600))
	}
	if p.rollups[d2] != nil {
		t.Error("a queue past its bound kept its rollup")
	}
	check("a queue past its bound", p, q, days)
	if p.rollups[d2] == nil || len(p.rollups[d2].late) != 0 {
		t.Error("the next read did not build the dropped rollup again")
	}

	a, b := build(time.Hour, 0)
	corpus(a, b)
	observe([]*Partition{a, b}, at(0, 2)+30, at(3, 5)+30)
	p.Absorb(Staged{a.segments})
	q.Absorb(Staged{b.segments})
	if p.rollups != nil {
		t.Error("Absorb kept the rollups")
	}
	check("absorb", p, q, days)

	p, q = build(time.Hour, 60*time.Hour)
	both = []*Partition{p, q}
	corpus(both...)
	check("retained", p, q, days)
	if len(p.rollups) == 0 {
		t.Fatal("no rollups to compact")
	}
	observe(both, at(days+1, 12)) // the horizon moves to day 4, 01:00
	for d := range p.rollups {
		if d*p.dayBuckets <= p.tail.hi {
			t.Errorf("day %d's rollup survived compaction past it", d)
		}
	}
	check("compaction across a rolled-up day", p, q, days+1)
	observe(both, at(days, 3)+1)
	check("late record after compaction", p, q, days+1)

	p, q = build(7*time.Hour, 0)
	corpus(p, q)
	if p.dayBuckets != 0 {
		t.Fatalf("a 7h width has %d buckets a day, want rollups off", p.dayBuckets)
	}
	check("a width that does not divide a day", p, q, days)
	if served(p) != 0 || p.rollups != nil {
		t.Error("rollups on a width that does not divide a day")
	}
}
