package serve

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"syriafilter/internal/core"
	"syriafilter/internal/render"
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
		snap := store.Current()
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
