package timewin

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
)

// Whatever order records and states arrive in, the partition ends as if
// it had seen the records in time order: the routes that are not the
// newest-bucket fast path — a late record below the horizon, a new bucket
// that joins the ring already behind the horizon, an absorbed tail that
// overlaps the live ring — leave the same canonical state.
func TestOutOfOrderArrivalsEqualTimeOrder(t *testing.T) {
	const retain = 4 * time.Hour
	hour := func(h int) int64 { return base + int64(h)*3600 }
	observe := func(p *Partition, recs ...logfmt.Record) {
		for i := range recs {
			p.Observe(&recs[i])
		}
	}
	cases := []struct {
		name  string
		build func(p *Partition)
		want  []logfmt.Record // the same records, in time order
	}{
		{
			name: "late record below the horizon",
			build: func(p *Partition) {
				recs := spread(12)
				observe(p, recs[1:]...)
				observe(p, recs[0]) // hour 0, long compacted
			},
			want: spread(12),
		},
		{
			name: "new bucket joining below the horizon",
			build: func(p *Partition) {
				// Hours 0–2 are compacted when hour 30 arrives, which leaves
				// the tail ending at 2 and the horizon at 27: hour 10 is a
				// bucket of its own, and behind the horizon the moment it
				// exists.
				observe(p, spread(3)...)
				observe(p, mkRec(hour(30), "news.example.com", false))
				observe(p, mkRec(hour(10), "late.example.com", true), mkRec(hour(10)+5, "late.example.com", false))
			},
			want: append(append(spread(3),
				mkRec(hour(10), "late.example.com", true), mkRec(hour(10)+5, "late.example.com", false)),
				mkRec(hour(30), "news.example.com", false)),
		},
		{
			name: "absorbed tail overlapping the live ring",
			build: func(p *Partition) {
				// p holds hours 3–7 (tail 3, ring 4–7); other holds 0–9 (tail
				// 0–5, ring 6–9), so its tail swallows p's buckets 4 and 5.
				other := newPartition(t, time.Hour, retain)
				for i, rec := range spread(10) {
					if h := i / 3; i%3 == 0 && h >= 3 && h <= 7 {
						observe(p, rec)
					} else {
						observe(other, rec)
					}
				}
				if p.tail.hi >= other.tail.hi || p.live[0].lo > other.tail.hi {
					t.Fatalf("tail [%d,%d] does not overlap the ring starting at %d", other.tail.lo, other.tail.hi, p.live[0].lo)
				}
				p.Absorb(Staged{other.segments})
			},
			want: spread(10),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := newPartition(t, time.Hour, retain), newPartition(t, time.Hour, retain)
			tc.build(got)
			observe(want, tc.want...)
			if got.tail == nil || want.tail == nil {
				t.Fatal("no compacted tail: the case does not reach the horizon")
			}
			if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
				t.Errorf("state differs from time order: got %+v, want %+v", got.Meta(), want.Meta())
			}
		})
	}
}

// observeStream is the partition's own cost on the ingest path: one cheap
// module, so routing a record to its segment is not lost under folding it.
func observeStream(tb testing.TB, retain time.Duration) (*Partition, logfmt.Record) {
	tb.Helper()
	p, err := New(Config{Metrics: []string{"datasets"}, Bucket: time.Hour, Retain: retain})
	if err != nil {
		tb.Fatal(err)
	}
	return p, mkRec(base, "news.example.com", false)
}

// The per-record path of an existing bucket, and the fingerprint a reader
// takes before and after every range query, allocate nothing.
func TestObserveAndFingerprintAllocateNothing(t *testing.T) {
	p, rec := observeStream(t, 6*time.Hour)
	for h := 0; h < 12; h++ { // a tail and a ring
		rec.Time = base + int64(h)*3600
		p.Observe(&rec)
	}
	if p.tail == nil || p.Buckets() < 2 {
		t.Fatalf("want a tail and a ring, have tail %v and %d buckets", p.tail != nil, p.Buckets())
	}
	newest, older, late := rec.Time, rec.Time-2*3600, base
	for name, ts := range map[string]int64{"newest bucket": newest, "older bucket": older, "tail": late} {
		rec.Time = ts
		if n := testing.AllocsPerRun(100, func() { p.Observe(&rec) }); n != 0 {
			t.Errorf("Observe into the %s allocates %v times", name, n)
		}
	}
	for name, w := range map[string]Window{"all": {}, "ring": {From: older}, "inside the tail": {From: base + 3600}} {
		if n := testing.AllocsPerRun(100, func() { p.Fingerprint(w) }); n != 0 {
			t.Errorf("Fingerprint(%s) allocates %v times", name, n)
		}
	}
}

// BenchmarkPartitionObserve times Observe on three streams: time-ordered
// (a new hourly bucket every 900 records, nothing compacted), the same
// with a 24 h horizon compacting behind it, and records landing anywhere
// in a ring of 216 buckets.
func BenchmarkPartitionObserve(b *testing.B) {
	inorder := func(retain time.Duration) func(*testing.B) {
		return func(b *testing.B) {
			p, rec := observeStream(b, retain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Time = base + int64(i)*4
				p.Observe(&rec)
			}
		}
	}
	b.Run("inorder", inorder(0))
	b.Run("retained", inorder(24*time.Hour))
	b.Run("shuffled", func(b *testing.B) {
		p, rec := observeStream(b, 0)
		rng := rand.New(rand.NewSource(1))
		times := make([]int64, 4096)
		for i := range times {
			times[i] = base + rng.Int63n(216*3600)
		}
		for h := int64(0); h < 216; h++ {
			rec.Time = base + h*3600
			p.Observe(&rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Time = times[i%len(times)]
			p.Observe(&rec)
		}
	})
}
