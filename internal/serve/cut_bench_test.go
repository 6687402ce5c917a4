package serve

import (
	"fmt"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
	"syriafilter/internal/timewin"
)

// BenchmarkSnapshotCut measures one snapshot cut of a loaded store
// (hourly buckets, every module) on each of its two paths, the in-package
// twin of the ledger's serve.store.refresh, and one that finds nothing
// new. Each iteration of the two paths first adds records and lets the
// shards apply them, outside the timer, then cuts:
//
//   - extend: 1,200 records since the last cut, the ledger's refresh
//     round. The cut clones the published snapshot's engine — sharing
//     its frozen base, copying its overlay — and replays the batches the
//     shards kept into it, on the cutting goroutine, so its cost follows
//     the records since the base, not the state or the shard count.
//     Every extendBudget records the cut also compacts the overlay into
//     a new base, a merge of the whole state; the mean includes it.
//     ns/rec is the cut's time per record replayed.
//
//   - fold: 20,000 records since the last cut, past the store's extend
//     budget, so the shards keep none and the cut folds every partition,
//     all shards at once, each into its own engine, merged in shard
//     order: shards=1 is the fold alone, more shards add merges and,
//     given CPUs, overlap the folds.
//
//   - noop: nothing since the last cut, the twin of
//     serve.store.refresh_noop. The cut is one op round in which every
//     shard reports an unchanged record count, and it returns the
//     published snapshot, Seq unchanged.
//
// records= is the size of the loaded corpus; the 1,000,000-record arm
// is the ledger's full workload. Run it with -cpu 1,2 to see both sides
// of the fan-out.
func BenchmarkSnapshotCut(b *testing.B) {
	for _, arm := range []struct {
		name    string
		records int
		added   int
		shards  []int
	}{
		{name: "extend", records: 200_000, added: 1200, shards: []int{1, 2, 4}},
		{name: "fold", records: 200_000, added: 20_000, shards: []int{1, 2, 4}},
		{name: "extend", records: 1_000_000, added: 1200, shards: []int{1}},
	} {
		for _, shards := range arm.shards {
			b.Run(fmt.Sprintf("%s/records=%d/shards=%d", arm.name, arm.records, shards), func(b *testing.B) {
				c := cutCorpus(b, arm.records)
				st, err := NewStore(Config{Options: c.opt, Shards: shards, Bucket: time.Hour, DisableObs: true})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if _, err := st.add(c.loaded, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Refresh(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					at := (i * arm.added) % (len(c.rounds) - arm.added)
					if _, err := st.add(c.rounds[at:at+arm.added], nil); err != nil {
						b.Fatal(err)
					}
					// A range read is a shard op: it returns once every
					// shard has applied what was added before it.
					if _, _, err := st.Range(timewin.Window{From: 1, To: 2}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := st.Refresh(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*arm.added), "ns/rec")
			})
		}
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("noop/records=200000/shards=%d", shards), func(b *testing.B) {
			c := cutCorpus(b, 200_000)
			st, err := NewStore(Config{Options: c.opt, Shards: shards, Bucket: time.Hour, DisableObs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := st.add(c.loaded, nil); err != nil {
				b.Fatal(err)
			}
			published, err := st.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := st.Refresh()
				if err != nil {
					b.Fatal(err)
				}
				if snap != published || snap.Seq != published.Seq {
					b.Fatalf("a cut with nothing new returned seq %d, not the published %d", snap.Seq, published.Seq)
				}
			}
		})
	}
}

// cutFixture is a generated corpus split in two: the records a store is
// loaded with, and a pool spread over the same time span that the cut
// benchmark's rounds add from.
type cutFixture struct {
	opt    core.Options
	loaded []logfmt.Record
	rounds []logfmt.Record
}

var cutFixtures = map[int]*cutFixture{}

// cutCorpus generates the corpus of the given size once per process.
func cutCorpus(b *testing.B, size int) *cutFixture {
	b.Helper()
	if c := cutFixtures[size]; c != nil {
		return c
	}
	gen, err := synth.New(synth.Config{Seed: 99, TotalRequests: size})
	if err != nil {
		b.Fatal(err)
	}
	c := &cutFixture{opt: core.Options{
		Categories: gen.CategoryDB(),
		Consensus:  gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}}
	// One record in ten goes to the pool, up to what 20 fold rounds add.
	n := 0
	proxysim.Emit(gen, func(rec *logfmt.Record) {
		if n++; n%10 == 0 && len(c.rounds) < 400_000 {
			c.rounds = append(c.rounds, *rec)
			return
		}
		c.loaded = append(c.loaded, *rec)
	})
	cutFixtures[size] = c
	return c
}
