package core

import "testing"

// BenchmarkDiscoverFilters times one §5.4 computation on a {domains,
// tokens} engine holding the first 200,000 records of the shared
// fixture. Only the DiscoverFilters call is timed.
//
//   - cold: a clone of an engine that never ran discovery, so the URL
//     index is built from nothing (a fold cut, a range read, a restore,
//     censorlyzer).
//   - carried: a clone of an engine whose discovery was computed, with
//     1,200 more records observed — the extend cut's shape, a refresh
//     round's 256 KB body — so the clone extends the index it took over
//     by the URLs those records stored.
//   - window: a range window's shape — an empty engine folded from the
//     same records' hourly segments, whose URL indexes are current and
//     share one table — so discovery runs over their joined indexes.
//     The join is a copy made by the fold, which BenchmarkRangeSeries
//     (internal/serve) times with the rest of a range read's merge.
//
// Each arm also reports ns/url: its time per stored censored URL.
func BenchmarkDiscoverFilters(b *testing.B) {
	f := corpus(b)
	const base, round = 200_000, 1_200
	if len(f.records) < base+round {
		b.Fatalf("fixture holds %d records, want %d", len(f.records), base+round)
	}
	src := discoveryEngine(b, Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()})
	for i := range f.records[:base] {
		src.Observe(&f.records[i])
	}
	more := f.records[base : base+round]
	perURL := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storedLen(src)), "ns/url")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := src.Clone()
			b.StartTimer()
			e.DiscoverFilters(0)
		}
		perURL(b)
	})
	b.Run("carried", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prev := src.Clone()
			prev.DiscoverFilters(0)
			e := prev.Clone()
			for j := range more {
				e.Observe(&more[j])
			}
			b.StartTimer()
			e.DiscoverFilters(0)
		}
		perURL(b)
	})
	b.Run("window", func(b *testing.B) {
		opt := ShareURLIDs(src.opt)
		segs := newSegmentSet(b, opt, f.records[:base]).timeOrder(span{})
		discoveryEngine(b, opt).MergeIndexed(segs...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := discoveryEngine(b, opt)
			e.MergeProjected(segs...)
			b.StartTimer()
			e.DiscoverFilters(0)
		}
		perURL(b)
	})
}
