package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/timewin"
)

// A cut that extends the published snapshot must publish the state a
// fold of every segment would. A seeded schedule mixes every way the
// shards' partitions change — Add under and over the keep cap, block
// ingest, Restore into the live store — with Range reads and Checkpoints,
// which change nothing, and after every Refresh compares the snapshot's
// state byte for byte with a cold fold, and checks that every batch the
// cut was handed went back to the free list. On a seeded half of the
// snapshots it also compares §5.4 discovery with the cold fold's, which
// computes it without a carried URL index. Both paths must have run.
func TestExtendedCutEqualsFold(t *testing.T) {
	f := corpus(t)
	// Every other record of the capture's first day: two dozen hourly
	// buckets a shard, and a state small enough to fold and encode twice
	// per cut.
	lo := f.records[0].Time
	for i := range f.records {
		lo = min(lo, f.records[i].Time)
	}
	hi := lo + 24*3600
	var pool []logfmt.Record
	for i := 0; i < len(f.records); i += 2 {
		if f.records[i].Time < hi {
			pool = append(pool, f.records[i])
		}
	}
	// Block bodies, encoded once: small ones and one past the budget.
	var bodies [][]byte
	for _, n := range []int{1, 40, 400, extendBudget + 1} {
		bodies = append(bodies, encodeCSV(t, wrapSlice(pool, (n*7919)%len(pool), n), false))
	}
	// The generation Restore absorbs into the live store: a small one, so
	// that restores do not double the state.
	small := t.TempDir()
	{
		st, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.add(pool[:300], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := st.CloseAndCheckpoint(small); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := trace.New(trace.Config{Slow: -1})
			st, err := NewStore(Config{Options: f.opt, Shards: shards, Bucket: time.Hour, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			dir := t.TempDir()
			seed := int64(1000 + shards)
			rng := rand.New(rand.NewSource(seed))
			discover := rand.New(rand.NewSource(seed + 1))
			modes := map[string]int{}
			add := func(recs []logfmt.Record) {
				t.Helper()
				if n, err := st.add(recs, nil); err != nil || n != uint64(len(recs)) {
					t.Fatalf("seed %d: Add(%d) = %d, %v", seed, len(recs), n, err)
				}
			}
			for step := 0; step < 200; step++ {
				switch r := rng.Intn(100); {
				case r < 55: // Add under the cap
					add(wrapSlice(pool, rng.Intn(len(pool)), 1+rng.Intn(200)))
				case r < 56: // Add over the cap, in one call
					add(wrapSlice(pool, rng.Intn(len(pool)), extendBudget+1+rng.Intn(pipeline.BatchSize)))
				case r < 57: // Add over the cap, in many small calls, whose batches the shards pack
					for n := 0; n <= extendBudget; {
						k := 1 + rng.Intn(300)
						add(wrapSlice(pool, rng.Intn(len(pool)), k))
						n += k
					}
				case r < 73:
					body := bodies[rng.Intn(len(bodies)-1)]
					if rng.Intn(16) == 0 {
						body = bodies[len(bodies)-1]
					}
					if _, _, err := st.IngestBlocks(logfmt.NewBlockReaderSize(bytes.NewReader(body), 16<<10), 2); err != nil {
						t.Fatalf("seed %d step %d: IngestBlocks: %v", seed, step, err)
					}
				case r < 83:
					from := lo + rng.Int63n(hi-lo)
					w := timewin.Window{From: from, To: from + 1 + rng.Int63n(12*3600)}
					if rng.Intn(4) == 0 {
						w = timewin.Window{}
					}
					if _, _, err := st.Range(w); err != nil {
						t.Fatalf("seed %d step %d: Range(%s): %v", seed, step, w, err)
					}
				case r < 84:
					if _, err := st.Checkpoint(dir); err != nil {
						t.Fatalf("seed %d step %d: Checkpoint: %v", seed, step, err)
					}
				case r < 87:
					if _, err := st.Restore(small); err != nil {
						t.Fatalf("seed %d step %d: Restore: %v", seed, step, err)
					}
				default:
					snap, err := st.Refresh()
					if err != nil {
						t.Fatalf("seed %d step %d: Refresh: %v", seed, step, err)
					}
					if out := st.batches.out.Load(); out != 0 {
						t.Fatalf("seed %d step %d: %d batches not back on the free list after the cut", seed, step, out)
					}
					cold, _, err := st.Range(timewin.Window{})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(snap.An.MarshalState(), cold.MarshalState()) {
						t.Fatalf("seed %d step %d: snapshot %d (%d records) differs from a fold of every segment",
							seed, step, snap.Seq, snap.Records)
					}
					// Discovery on some snapshots only, so that the URL index
					// an extend cut hands over is sometimes passed along
					// several snapshots before one extends it.
					if discover.Intn(2) == 0 {
						if got, want := snap.An.DiscoverFilters(0), cold.DiscoverFilters(0); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: snapshot %d's discovery differs from a cold fold's:\n got  %+v\n want %+v",
								seed, step, snap.Seq, got, want)
						}
					}
				}
			}
			for _, tc := range tr.Recorder().Snapshot(0, 0) {
				for _, sp := range tc.Spans {
					if sp.Name == "snapshot.cut" {
						mode, _ := sp.Attrs["mode"].(string)
						modes[mode]++
					}
				}
			}
			if modes["extend"] == 0 || modes["fold"] < 2 {
				t.Errorf("seed %d: cuts by mode %v, want both paths, and more than the first cut folding", seed, modes)
			}
			t.Logf("cuts by mode: %v", modes)
		})
	}
}

// wrapSlice returns n records of recs from at, wrapping to the start.
func wrapSlice(recs []logfmt.Record, at, n int) []logfmt.Record {
	out := make([]logfmt.Record, 0, n)
	for len(out) < n {
		end := min(len(recs), at+n-len(out))
		out = append(out, recs[at:end]...)
		at = 0
	}
	return out
}
