package core

import "testing"

// hourlyEngines splits the shared fixture into one full engine per hour
// of log time — the shape of a timewin partition's buckets, which is
// what a snapshot cut or a range read merges and what a checkpoint
// encodes and a restore decodes.
func hourlyEngines(tb testing.TB) (Options, []*Engine) {
	tb.Helper()
	f := corpus(tb)
	opt := fixtureOptions(f)
	var engines []*Engine
	byHour := map[int64]*Engine{}
	for i := range f.records {
		hour := f.records[i].Time / 3600
		e := byHour[hour]
		if e == nil {
			var err error
			if e, err = NewEngine(opt); err != nil {
				tb.Fatal(err)
			}
			byHour[hour] = e
			engines = append(engines, e)
		}
		e.Observe(&f.records[i])
	}
	return opt, engines
}

// BenchmarkEngineFold measures the three walks the engine makes over a
// module's declared state, one op = every hourly engine of the fixture:
// merge folds them into one fresh engine (the cut's shape: many small
// engines into one), marshal encodes each, unmarshal decodes each into a
// fresh engine. ns/engine is the per-engine mean.
func BenchmarkEngineFold(b *testing.B) {
	opt, engines := hourlyEngines(b)
	states := make([][]byte, len(engines))
	for i, e := range engines {
		states[i] = e.MarshalState()
	}
	perEngine := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(engines)), "ns/engine")
	}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, err := NewEngine(opt)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range engines {
				dst.Merge(e)
			}
		}
		perEngine(b)
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			for _, e := range engines {
				n += len(e.MarshalState())
			}
		}
		b.SetBytes(int64(n / b.N))
		perEngine(b)
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			for _, s := range states {
				e, err := NewEngine(opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.UnmarshalState(s); err != nil {
					b.Fatal(err)
				}
				n += len(s)
			}
		}
		b.SetBytes(int64(n / b.N))
		perEngine(b)
	})
}
