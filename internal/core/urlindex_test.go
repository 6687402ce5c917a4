package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// segmentSet is a store's hourly segments split over two shards by
// host, each shard's in time order: what a range read merges.
type segmentSet struct {
	opt    Options
	shards [2][]*Engine
	hours  [2][]int64
}

func newSegmentSet(t testing.TB, opt Options, recs []logfmt.Record) *segmentSet {
	t.Helper()
	s := &segmentSet{opt: opt}
	for i := range recs {
		s.observe(t, &recs[i])
	}
	return s
}

// observe folds rec into its shard's segment for its hour, making the
// segment when the hour is new.
func (s *segmentSet) observe(t testing.TB, rec *logfmt.Record) {
	sh, h := int(stats.Hash64(rec.Host)%2), rec.Time/3600
	at, ok := slices.BinarySearch(s.hours[sh], h)
	if !ok {
		s.hours[sh] = slices.Insert(s.hours[sh], at, h)
		s.shards[sh] = slices.Insert(s.shards[sh], at, discoveryEngine(t, s.opt))
	}
	s.shards[sh][at].Observe(rec)
}

// span is a window of hours [from, to); the zero span is every hour.
type span struct{ from, to int64 }

func (w span) has(h int64) bool { return w == span{} || w.from <= h && h < w.to }

// shard returns shard sh's segments the window covers, in time order.
func (s *segmentSet) shard(sh int, w span) []*Engine {
	var out []*Engine
	for i, h := range s.hours[sh] {
		if w.has(h) {
			out = append(out, s.shards[sh][i])
		}
	}
	return out
}

// timeOrder is every segment the window covers by hour, shard 0 first
// within an hour.
func (s *segmentSet) timeOrder(w span) []*Engine {
	var out []*Engine
	i, j := 0, 0
	for i < len(s.shards[0]) || j < len(s.shards[1]) {
		if j == len(s.shards[1]) || i < len(s.shards[0]) && s.hours[0][i] <= s.hours[1][j] {
			if w.has(s.hours[0][i]) {
				out = append(out, s.shards[0][i])
			}
			i++
			continue
		}
		if w.has(s.hours[1][j]) {
			out = append(out, s.shards[1][j])
		}
		j++
	}
	return out
}

// window folds the segments the span covers into an empty engine in one
// of three orders, through MergeIndexed when index is set and
// MergeProjected otherwise: time order in one call, the two shards
// interleaved one segment per call (a range series' shards taking
// turns), or reversed in one call.
func (s *segmentSet) window(t *testing.T, order string, w span, index bool) *Engine {
	t.Helper()
	e := discoveryEngine(t, s.opt)
	merge := e.MergeProjected
	if index {
		merge = e.MergeIndexed
	}
	switch order {
	case "time":
		merge(s.timeOrder(w)...)
	case "interleaved":
		a, b := s.shard(0, w), s.shard(1, w)
		for i := 0; i < max(len(a), len(b)); i++ {
			for _, segs := range [][]*Engine{a, b} {
				if i < len(segs) {
					merge(segs[i])
				}
			}
		}
	case "reversed":
		segs := s.timeOrder(w)
		slices.Reverse(segs)
		merge(segs...)
	default:
		t.Fatalf("no merge order %q", order)
	}
	return e
}

var mergeOrders = []string{"time", "interleaved", "reversed"}

// checkWindow pins w's discovery to the reference and to a cold index of
// the same store: an engine of no shared table that merged w, so it
// indexes every URL itself.
func checkWindow(t *testing.T, what string, w *Engine) {
	t.Helper()
	unshared := w.opt
	unshared.urlIDs = nil
	cold := discoveryEngine(t, unshared)
	cold.Merge(w)
	for _, minCount := range []uint64{0, 1, 4} {
		got, want := w.DiscoverFilters(minCount), discoverFiltersReference(w, minCount)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, minCount %d: joined index differs from the reference:\n got  %+v\n want %+v", what, minCount, got, want)
		}
		if c := cold.DiscoverFilters(minCount); !reflect.DeepEqual(got, c) {
			t.Fatalf("%s, minCount %d: joined index differs from a cold one:\n got  %+v\n cold %+v", what, minCount, got, c)
		}
	}
	if d := w.DiscoverFilters(0); len(d.Keywords)+len(d.Domains) == 0 {
		t.Fatalf("%s: nothing discovered; the check is vacuous", what)
	}
}

// A range window's URL index put together from its segments' indexes
// answers §5.4 exactly as a cold index of the same store and as the
// reference loop, whatever order the segments merge in — and no URL is
// indexed twice: the window computes its rounds over the joined index
// as it stands, and a segment indexes only what it stored since its
// last read. The segments include IP-literal and IDN hosts, an hour
// with no censored URL, segments that grew after they were indexed and
// a decoded one that has no index; a store pushed past its cap by the
// merge starts its index over.
func TestWindowIndexJoinsSegments(t *testing.T) {
	f := corpus(t)
	opt := ShareURLIDs(Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()})

	// Every seventh record spreads the store over every hour; a sixth
	// of them is held back to grow segments that were already indexed.
	var recs, later []logfmt.Record
	for i := 0; i < len(f.records); i += 7 {
		if i%6 == 0 {
			later = append(later, f.records[i])
		} else {
			recs = append(recs, f.records[i])
		}
	}
	t0 := recs[0].Time
	planted := func(host, path string, hour int64, allowed bool) logfmt.Record {
		rec := logfmt.Record{
			Time: t0 + hour*3600, ClientIP: "10.0.0.1", Method: "GET", Scheme: "http", Port: 80,
			Host: host, Path: path, Filter: logfmt.Denied, Exception: logfmt.ExPolicyDenied,
		}
		if allowed {
			rec.Filter, rec.Exception = logfmt.Observed, logfmt.ExNone
		}
		rec.SetProxy(42)
		return rec
	}
	for h := int64(0); h < 12; h++ {
		recs = append(recs,
			planted("10.9.8.7", "/ipkeyword/x", h, false),
			planted(fmt.Sprintf("%d.0.2.1", 190+h), "/ipkeyword", h, false),
			planted("bücher.de", "/idnkeyword/kaufen", h, false),
			planted(fmt.Sprintf("xn--mgbh0a%d.xn--ngbrx", h), "/idnkeyword", h, false),
			// A host rule: its registered domain has allowed traffic.
			planted("chat.hostrule.com", "/room", h, false),
			planted("www.hostrule.com", "/", h, true))
	}
	set := newSegmentSet(t, opt, recs)
	// An hour with traffic but no censored URL.
	quiet := planted("quiet.example.com", "/", 10_000, true)
	set.observe(t, &quiet)

	// Every hour, whose index reads the table's ids as they are; then
	// the first day and the first six hours, which touch a fraction of
	// the table by then and read their ids renumbered.
	h0 := t0 / 3600
	spans := []span{{}, {h0, h0 + 24}, {h0, h0 + 6}}
	windows := func(what string, index bool, check func(what string, w *Engine)) {
		t.Helper()
		for _, sp := range spans {
			for _, order := range mergeOrders {
				what := fmt.Sprintf("%shours %v, %s", what, sp, order)
				w := set.window(t, order, sp, index)
				check(what, w)
				checkWindow(t, what, w)
			}
		}
	}
	renumbered := 0
	windows("", true, func(what string, w *Engine) {
		if !w.exact() {
			t.Fatalf("%s: the window's index does not hold its store after the merge", what)
		}
		if x := w.disc.idx; len(x.tokArena) < len(x.ids.pairs) {
			renumbered++
		}
		if w.DiscoverFilters(0); w.disc.extended+w.disc.rebuilt != 0 {
			t.Fatalf("%s: the window indexed URLs itself (%d extends, %d rebuilds)", what, w.disc.extended, w.disc.rebuilt)
		}
	})
	if renumbered == 0 {
		t.Fatal("no window read its ids renumbered")
	}

	// Grow segments that are indexed, and swap one for a decoded copy
	// with no index.
	for i := range later {
		set.observe(t, &later[i])
	}
	decoded := discoveryEngine(t, opt)
	if err := decoded.UnmarshalState(set.shards[1][3].MarshalState()); err != nil {
		t.Fatal(err)
	}
	set.shards[1][3] = decoded
	windows("grown, ", true, func(what string, w *Engine) {
		if !w.exact() {
			t.Fatalf("%s: the window's index does not hold its store after the merge", what)
		}
	})
	grown := 0
	for _, seg := range slices.Concat(set.shards[:]...) {
		if seg.disc.rebuilt != 0 {
			t.Fatal("a grown segment started its index over")
		}
		grown += seg.disc.extended
	}
	if grown == 0 {
		t.Fatal("no segment extended its index after growing")
	}

	// Carry-only (a fold cut's merge) over segments that grew since
	// their last index: the carry stops at the first such segment and
	// the window's discovery indexes the rest.
	for i := range later[:len(later)/2] {
		set.observe(t, &later[i])
	}
	windows("carried, ", false, func(what string, w *Engine) {
		if w.exact() {
			t.Fatalf("%s: the index claims a store it did not see grow", what)
		}
	})

	// Past the cap, the merge compacts the window's store, which
	// reorders it: the joined index is no prefix of it any more, and
	// starts over.
	capped := opt
	capped.maxStoredCensoredURLs = storedLen(set.window(t, "time", span{}, false)) * 3 / 4
	small := newSegmentSet(t, ShareURLIDs(capped), recs)
	for _, order := range mergeOrders {
		w := small.window(t, order, span{}, true)
		if w.exact() {
			t.Fatalf("capped, %s: the index claims a store the merge compacted", order)
		}
		checkWindow(t, "capped, "+order, w)
		if w.disc.rebuilt != 1 {
			t.Fatalf("capped, %s: the index started over %d times, want 1", order, w.disc.rebuilt)
		}
	}
}
