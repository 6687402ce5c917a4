package core

import (
	"fmt"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

// BenchmarkEngineClone times Engine.Clone of a published engine — what
// internal/serve's extend cut pays before it replays — against the size
// of the state, on every module. The published engine is the live
// store's shape after one refresh round: an engine folded over the
// corpus, then cloned and replayed 1,200 records into (the ledger's
// 256 KB round), so it holds a frozen base and a small overlay.
//
//   - clone: the clone alone. It copies the overlay and shares the base,
//     so its ns/op should not follow the records.
//   - clone+replay: the clone, then 1,200 more records observed into it:
//     the whole in-memory cost of an extend cut. ns/rec is the replay's
//     share per record, on the clone's own empty host-category cache.
//
// Each size's corpus is generated and folded once, outside the timer.
func BenchmarkEngineClone(b *testing.B) {
	const round = 1_200
	for _, size := range []int{50_000, 200_000, 1_000_000} {
		var published *Engine
		var more []logfmt.Record
		setup := func(b *testing.B) {
			if published != nil {
				return
			}
			b.StopTimer()
			defer b.StartTimer()
			gen, err := synth.New(synth.Config{Seed: 7, TotalRequests: size})
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine(Options{Categories: gen.CategoryDB(), Consensus: gen.Consensus(), TitleDB: bittorrent.NewTitleDB()})
			if err != nil {
				b.Fatal(err)
			}
			// Records spread over the whole corpus are held back for the
			// rounds.
			stride, n := size/(4*round), 0
			proxysim.Emit(gen, func(rec *logfmt.Record) {
				if n++; n%stride == 0 && len(more) < 2*round {
					more = append(more, *rec)
					return
				}
				e.Observe(rec)
			})
			if len(more) < 2*round {
				b.Fatalf("corpus of %d requests held back %d records, want %d", size, len(more), 2*round)
			}
			published = e.Clone()
			for i := range more[:round] {
				published.Observe(&more[i])
			}
			more = more[round:]
		}
		b.Run(fmt.Sprintf("clone/records=%d", size), func(b *testing.B) {
			setup(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				published.Clone()
			}
		})
		b.Run(fmt.Sprintf("clone+replay/records=%d", size), func(b *testing.B) {
			setup(b)
			b.ReportAllocs()
			var replay time.Duration
			for i := 0; i < b.N; i++ {
				n := published.Clone()
				t0 := time.Now()
				for j := range more {
					n.Observe(&more[j])
				}
				replay += time.Since(t0)
			}
			b.ReportMetric(float64(replay.Nanoseconds())/float64(b.N*len(more)), "ns/rec")
		})
	}
}
