package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/timewin"
)

// Day-step series read sealed days from their shards' day rollups, and
// late records reach a rollup by replay on the read that next uses it.
// Posts of records taken at a stride across the whole capture — late for
// every day but the newest — alternate with step=24h reads, and every
// window of every read renders as a batch run over the records ingested
// so far that fall in it.
func TestRangeRollupsMatchBatchUnderStridedPosts(t *testing.T) {
	f := corpus(t)
	const stride = 5 // one record in five is held back for the posts
	var loaded, pool []logfmt.Record
	for i := range f.records {
		if i%stride == 0 {
			pool = append(pool, f.records[i])
		} else {
			loaded = append(loaded, f.records[i])
		}
	}
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.add(loaded, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, f.gen)
	ingested := loaded
	span := timewin.Window{
		From: time.Date(2011, 7, 22, 0, 0, 0, 0, time.UTC).Unix(),
		To:   time.Date(2011, 8, 7, 0, 0, 0, 0, time.UTC).Unix(),
	}

	const rounds = 3
	var rollups int
	var replayed uint64
	for round := 0; ; round++ {
		for _, id := range []string{"table1", "table4", "table8", "fig5"} {
			mods, err := core.ModulesFor(id)
			if err != nil {
				t.Fatal(err)
			}
			wins, err := store.read(context.Background(), span, 86400, mods...)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, id, err)
			}
			if len(wins) != 16 {
				t.Fatalf("round %d: %s: %d windows, want 16", round, id, len(wins))
			}
			for _, w := range wins {
				rollups += w.Coverage.Rollups
				replayed += w.Coverage.Replayed
				ref := core.NewAnalyzer(f.opt)
				var n uint64
				for i := range ingested {
					if ts := ingested[i].Time; ts >= w.Window.From && ts < w.Window.To {
						ref.Observe(&ingested[i])
						n++
					}
				}
				if got, want := docJSON(t, id, w.An), docJSON(t, id, ref); w.Coverage.Records != n || !bytes.Equal(got, want) {
					t.Errorf("round %d: %s window %s of %d records differs from the batch run of %d\n got: %.300s\nwant: %.300s",
						round, id, w.Window, w.Coverage.Records, n, got, want)
				}
			}
		}
		if round == rounds {
			break
		}
		var post []logfmt.Record
		for i := round; i < len(pool); i += rounds {
			post = append(post, pool[i])
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(encodeCSV(t, post, false))))
		if rw.Code != http.StatusOK {
			t.Fatalf("round %d: ingest status %d: %.200s", round, rw.Code, rw.Body.Bytes())
		}
		ingested = append(ingested, post...)
	}
	if rollups == 0 || replayed == 0 {
		t.Errorf("reads merged %d days from rollups and replayed %d late records; want both above 0", rollups, replayed)
	}
}

// Each shard's range.shard span carries the buckets and records of its
// part of the read, the days it merged from a rollup and the late
// records it replayed into them, and each snapshot.shard span of a fold
// cut its shard's whole layout and no rollup. The expected values come
// from the shards' bucket layouts, not from the read: a covered day is
// merged from a rollup when it is sealed (a later bucket is live) and
// has at least two live buckets, and a late record is replayed when its
// day had a rollup at the previous read.
func TestRangeShardSpansCountRollups(t *testing.T) {
	f := corpus(t)
	tr := trace.New(trace.Config{Slow: -1}) // keep every trace
	const shards = 2
	store, err := NewStore(Config{Options: f.opt, Shards: shards, Bucket: time.Hour, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var loaded, late []logfmt.Record
	for i := range f.records {
		if i%7 == 0 {
			late = append(late, f.records[i])
		} else {
			loaded = append(loaded, f.records[i])
		}
	}
	if _, err := store.add(loaded, nil); err != nil {
		t.Fatal(err)
	}
	from := time.Date(2011, 7, 22, 0, 0, 0, 0, time.UTC).Unix()
	to := time.Date(2011, 8, 7, 0, 0, 0, 0, time.UTC).Unix()

	// spans runs op under a root span of its own and lists the attrs of
	// its spans called name, by shard.
	traced := 0
	spans := func(name string, op func(ctx context.Context) error) []string {
		t.Helper()
		traced++
		root := fmt.Sprintf("test.read.%d", traced)
		sp := tr.Root(root)
		if err := op(trace.NewContext(context.Background(), sp)); err != nil {
			t.Fatal(err)
		}
		sp.End()
		got := make([]string, shards)
		for _, tc := range tr.Recorder().Snapshot(0, 0) {
			for _, s := range tc.Spans {
				if tc.Root == root && s.Name == name {
					got[s.Attrs["shard"].(int64)] = fmt.Sprintf("buckets=%v records=%v rollups=%v replayed=%v",
						s.Attrs["buckets"], s.Attrs["records"], s.Attrs["rollups"], s.Attrs["replayed"])
				}
			}
		}
		return got
	}
	layouts := func() []timewin.Meta {
		t.Helper()
		metas := make([]timewin.Meta, shards)
		if err := store.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
			metas[i] = p.Meta()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return metas
	}
	// rolled lists the days of [from, to) a read merges from m's rollups.
	rolled := func(m timewin.Meta) map[int64]bool {
		perDay := map[int64]int{}
		for _, b := range m.Buckets {
			perDay[b.StartUnix/86400]++
		}
		newest := m.Buckets[len(m.Buckets)-1].StartUnix
		days := map[int64]bool{}
		for d, n := range perDay {
			if n >= 2 && (d+1)*86400 <= newest && d*86400 >= from && (d+1)*86400 <= to {
				days[d] = true
			}
		}
		return days
	}
	prev := make([]map[int64]bool, shards) // the days each shard's last read merged from rollups
	var posted []logfmt.Record             // since the last read
	want := func() []string {
		out := make([]string, shards)
		for i, m := range layouts() {
			var buckets int
			var records uint64
			for _, b := range m.Buckets {
				if b.StartUnix >= from && b.StartUnix < to {
					buckets++
					records += b.Records
				}
			}
			var replayed int
			for j := range posted {
				if shardKey(&posted[j])%shards == uint64(i) && prev[i][posted[j].Time/86400] {
					replayed++
				}
			}
			prev[i] = rolled(m)
			out[i] = fmt.Sprintf("buckets=%d records=%d rollups=%d replayed=%d", buckets, records, len(prev[i]), replayed)
		}
		posted = nil
		return out
	}
	post := func(recs []logfmt.Record) {
		t.Helper()
		if _, err := store.add(recs, nil); err != nil {
			t.Fatal(err)
		}
		posted = append(posted, recs...)
	}
	read := func(step int64) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := store.read(ctx, timewin.Window{From: from, To: to}, step)
			return err
		}
	}

	half := len(late) / 2
	for k, r := range []struct {
		name string
		post []logfmt.Record
		step int64
	}{
		{"day-step read", nil, 86400},
		{"window read after late records", late[:half], 0},
		{"day-step read after late records", late[half:], 86400},
		{"day-step read with nothing new", nil, 86400},
	} {
		post(r.post)
		exp := want()
		got := spans("range.shard", read(r.step))
		if !slices.Equal(got, exp) {
			t.Errorf("%d: %s: range.shard spans %q, want %q", k, r.name, got, exp)
		}
		if all := strings.Join(exp, " "); strings.Contains(all, "rollups=0") || len(r.post) > 0 && strings.Contains(all, "replayed=0") {
			t.Errorf("%d: %s: a shard merged no rollup or replayed nothing, so the case checks little: %q", k, r.name, exp)
		}
	}

	exp := make([]string, shards)
	for i, m := range layouts() {
		var records uint64
		for _, b := range m.Buckets {
			records += b.Records
		}
		exp[i] = fmt.Sprintf("buckets=%d records=%d rollups=0 replayed=0", len(m.Buckets), records)
	}
	if got := spans("snapshot.shard", func(ctx context.Context) error { _, err := store.refresh(ctx); return err }); !slices.Equal(got, exp) {
		t.Errorf("fold cut: snapshot.shard spans %q, want %q", got, exp)
	}
}
