package serve

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

// discoveryDocs are the experiments whose renderers call
// core.Engine.DiscoverFilters.
var discoveryDocs = []string{"table8", "table9", "table10", "bt", "probing", "groundtruth"}

// discoveryRuns reads how many times e computed §5.4 discovery: the
// engine's unexported memo counter, reached by reflection so that core
// grows no exported surface for a test. A renamed field panics here.
func discoveryRuns(e *core.Engine) int64 {
	return reflect.ValueOf(e).Elem().FieldByName("disc").FieldByName("runs").Int()
}

// Racing readers of one fresh snapshot, with the doc cache off so every
// GET renders: all six discovery docs equal a fresh-engine render and
// the discovery itself ran once. A second cut computes its own, once.
func TestDiscoveryComputedOncePerSnapshot(t *testing.T) {
	f := corpus(t)
	half := len(f.records) / 2
	store, srv := newTestServer(t, half, docCacheBytes(0))

	for _, upTo := range []int{half, len(f.records)} {
		if upTo > half {
			if _, err := store.add(f.records[half:], nil); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		snap := store.current()
		if got := discoveryRuns(snap.An.Engine); got != 0 {
			t.Fatalf("fresh snapshot %d already computed discovery %d times", snap.Seq, got)
		}

		fresh := core.NewAnalyzer(f.opt)
		for i := range f.records[:upTo] {
			fresh.Observe(&f.records[i])
		}
		want := map[string][]byte{}
		for _, id := range discoveryDocs {
			doc, err := render.Render(id, render.Context{An: fresh, Gen: f.gen})
			if err != nil {
				t.Fatal(err)
			}
			if want[id], err = render.EncodeJSON(doc); err != nil {
				t.Fatal(err)
			}
		}

		const readers = 8
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range discoveryDocs {
					id := discoveryDocs[(g+i)%len(discoveryDocs)] // readers start on different docs
					rw := get(srv, "/v1/experiments/"+id)
					if rw.Code != 200 {
						t.Errorf("%s: status %d", id, rw.Code)
					} else if !bytes.Equal(rw.Body.Bytes(), want[id]) {
						t.Errorf("%s: body differs from a fresh-engine render", id)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := discoveryRuns(snap.An.Engine); got != 1 {
			t.Errorf("snapshot %d: %d readers x %d docs computed discovery %d times, want 1",
				snap.Seq, readers, len(discoveryDocs), got)
		}
	}
}

// indexHeld reads whether e's §5.4 URL index holds exactly its store —
// the window's index was put together from its segments' — through the
// engine's unexported memo, as discoveryRuns does.
func indexHeld(e *core.Engine) bool {
	return reflect.ValueOf(e).Elem().FieldByName("disc").FieldByName("exact").Bool()
}

// Range reads index the segments they merge, on every shard at once,
// into the store's one URL id table, while ingest grows those segments,
// cuts extend or fold the snapshot and readers compute its discovery
// through the same table. Every window of a step=24h series and every
// single-window read must hold its segments' joined index and compute
// the discovery an engine with an index of its own computes over the
// same store.
func TestRangeDiscoveryUnderIngest(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	mods, err := core.ModulesFor("table8")
	if err != nil {
		t.Fatal(err)
	}
	half := len(f.records) / 2
	if _, err := store.add(f.records[:half], nil); err != nil {
		t.Fatal(err)
	}
	// check pins a range read's discovery to that of an engine that
	// merged it with no shared table, and so indexed every URL itself.
	check := func(what string, an *core.Analyzer) bool {
		t.Helper()
		if !indexHeld(an.Engine) {
			t.Errorf("%s: the index was not carried through the merge", what)
			return false
		}
		cold, err := core.NewAnalyzerFor(f.opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		cold.Merge(an)
		if got, want := an.DiscoverFilters(0), cold.DiscoverFilters(0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: joined index discovers\n %+v\nan index of its own\n %+v", what, got, want)
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	var reads [3]atomic.Int64 // cuts, series, single windows
	loop := func(n *atomic.Int64, body func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; body(); n.Add(1) {
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	loop(&reads[0], func() bool { // the cutter, and the snapshot's reader
		snap, err := store.Refresh()
		if err != nil {
			t.Error(err)
			return false
		}
		snap.An.DiscoverFilters(0)
		return true
	})
	loop(&reads[1], func() bool { // the series reader
		wins, err := store.rangeSeries(timewin.Window{}, 86400, mods...)
		if err != nil {
			t.Error(err)
			return false
		}
		for _, rw := range wins {
			if !check("series window "+rw.Window.String(), rw.An) {
				return false
			}
		}
		return true
	})
	loop(&reads[2], func() bool { // the single-window reader
		an, _, err := store.Range(timewin.Window{}, mods...)
		if err != nil {
			t.Error(err)
			return false
		}
		return check("all-time window", an)
	})
	// Ingest in small batches until every reader has run a few times, or
	// one has failed and stopped.
	for i := half; (i < len(f.records) || min(reads[0].Load(), reads[1].Load(), reads[2].Load()) < 3) && !t.Failed(); i += 64 {
		if i >= len(f.records) {
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := store.add(f.records[i:min(i+64, len(f.records))], nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d cuts, %d series, %d single-window reads under ingest", reads[0].Load(), reads[1].Load(), reads[2].Load())
	an, _, err := store.Range(timewin.Window{}, mods...)
	if err != nil {
		t.Fatal(err)
	}
	check("final all-time window", an)
}
