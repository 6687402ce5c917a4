package timewin

import (
	"fmt"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

// BenchmarkRangeInto measures what a full-range query costs: one
// transient engine plus one merge per covered bucket, the in-package
// twin of the ledger's timewin.range_into row. The corpus is fixed. The
// buckets= arms vary only the partition width, and so the bucket count,
// with every module folded: the merge cost curve that sizes censord's
// -bucket flag. The id= arms hold the ring at its widest and build the
// destination from core.ModulesFor(id), which is what /v1/range/{id}
// folds; id=all is the unprojected cost they are read against. ns/rec
// is per record the range covers.
func BenchmarkRangeInto(b *testing.B) {
	gen, err := synth.New(synth.Config{Seed: 99, TotalRequests: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Categories: gen.CategoryDB(), Consensus: gen.Consensus(), TitleDB: bittorrent.NewTitleDB()}
	var recs []logfmt.Record
	proxysim.Emit(gen, func(rec *logfmt.Record) { recs = append(recs, *rec) })
	lo, hi := recs[0].Time, recs[0].Time
	for i := range recs {
		lo, hi = min(lo, recs[i].Time), max(hi, recs[i].Time)
	}
	// partition spreads the corpus over at most nb buckets.
	partition := func(nb int) *Partition {
		width := (hi - lo + int64(nb)) / int64(nb)
		p, err := New(Config{Options: opt, Bucket: time.Duration(width) * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		for i := range recs {
			p.Observe(&recs[i])
		}
		return p
	}
	rangeInto := func(p *Partition, mods []string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, err := core.NewEngine(opt, mods...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.RangeInto(dst, Window{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
		}
	}
	var p *Partition
	for _, nb := range []int{8, 64, 256} {
		p = partition(nb)
		b.Run(fmt.Sprintf("buckets=%d", p.Buckets()), rangeInto(p, nil))
	}
	for _, id := range []string{"table1", "table4", "table8"} {
		mods, err := core.ModulesFor(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("id="+id, rangeInto(p, mods))
	}
	b.Run("id=all", rangeInto(p, nil))
}
