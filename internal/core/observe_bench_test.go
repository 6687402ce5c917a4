package core

import (
	"runtime"
	"testing"
)

// BenchmarkObserve measures Observe over the fixture corpus, one op = every
// record into a fresh engine: the in-package twin of the ledger's
// core.observe rows. all is every module, each other arm one module on
// its own (core.observe.<module>). ns/rec, allocs/rec and B/rec are per
// record observed.
func BenchmarkObserve(b *testing.B) {
	f := corpus(b)
	opt := fixtureOptions(f)
	arm := func(mods ...string) func(b *testing.B) {
		return func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(opt, mods...)
				if err != nil {
					b.Fatal(err)
				}
				for j := range f.records {
					e.Observe(&f.records[j])
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			recs := float64(b.N * len(f.records))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/recs, "allocs/rec")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/recs, "B/rec")
		}
	}
	b.Run("all", arm())
	for _, m := range AllMetrics() {
		b.Run(m, arm(m))
	}
}
