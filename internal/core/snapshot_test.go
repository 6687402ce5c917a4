package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"syriafilter/internal/bittorrent"
)

func renderEverything(a *Analyzer) string {
	var sb strings.Builder
	for _, id := range Experiments() {
		fmt.Fprintf(&sb, "%s: %s\n", id, experimentRender[id](a))
	}
	return sb.String()
}

// A clone must reproduce every experiment byte-for-byte, and must stay
// frozen while the source engine keeps observing — the copy-on-swap
// property internal/serve snapshots depend on.
func TestCloneEquivalenceAndIsolation(t *testing.T) {
	f := corpus(t)
	opt := Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}

	// Feed the first half, snapshot, then keep feeding the live engine.
	half := len(f.records) / 2
	live := NewAnalyzer(opt)
	for i := 0; i < half; i++ {
		live.Observe(&f.records[i])
	}
	snap := live.Clone()
	wantHalf := renderEverything(snap)

	for i := half; i < len(f.records); i++ {
		live.Observe(&f.records[i])
	}

	// Isolation: the snapshot did not move.
	if got := renderEverything(snap); got != wantHalf {
		t.Error("snapshot changed while the source engine kept observing")
	}

	// Equivalence: a batch run over the same first half matches the
	// snapshot byte-for-byte.
	batch := NewAnalyzer(opt)
	for i := 0; i < half; i++ {
		batch.Observe(&f.records[i])
	}
	if got := renderEverything(batch); got != wantHalf {
		t.Error("snapshot differs from a batch run over the same records")
	}

	// The live engine caught the full corpus: it matches the package
	// fixture (which observed every record).
	if got, want := renderEverything(live), renderEverything(f.analyzer); got != want {
		t.Error("live engine after cloning differs from the batch fixture")
	}
}

// Clones of subset engines carry the subset, not the full registry.
func TestCloneSubset(t *testing.T) {
	sub, err := NewAnalyzerFor(Options{}, "datasets", "domains")
	if err != nil {
		t.Fatal(err)
	}
	c := sub.Clone()
	if got := fmt.Sprint(c.Metrics()); got != fmt.Sprint(sub.Metrics()) {
		t.Errorf("clone modules = %v, want %v", c.Metrics(), sub.Metrics())
	}
}

// Readers render a published engine while the next cut clones it and
// replays into the clone — the live store's shape: the clone shares the
// published engine's base and copies its overlay, takes its URL index,
// and every few cuts compacts. Each reader checks
// every render against the one taken before the engine was published.
// Run under -race, this is the check that Clone and Compact only read
// what they share.
func TestCloneWhileReadersRender(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)
	const head, round, cuts, readers = 10_000, 400, 8, 3
	type published struct {
		an   *Analyzer
		want string
	}
	publish := func(an *Analyzer) *published { return &published{an, renderEverything(an)} }
	first := NewAnalyzer(opt)
	for i := range f.records[:head] {
		first.Observe(&f.records[i])
	}
	var cur atomic.Pointer[published]
	cur.Store(publish(first))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := cur.Load()
				if got := renderEverything(p.an); got != p.want {
					t.Errorf("reader %d: a published engine rendered differently while it was cloned", g)
					return
				}
			}
		}(g)
	}
	for c := 0; c < cuts; c++ {
		next := cur.Load().an.Clone()
		recs := f.records[head+c*round : head+(c+1)*round]
		for i := range recs {
			next.Observe(&recs[i])
		}
		if c%4 == 3 {
			next.Compact()
		}
		cur.Store(publish(next))
	}
	close(stop)
	wg.Wait()

	want := NewAnalyzer(opt)
	for i := range f.records[:head+cuts*round] {
		want.Observe(&f.records[i])
	}
	if renderEverything(cur.Load().an) != renderEverything(want) {
		t.Error("the last published engine differs from one engine observing the same records")
	}
}
