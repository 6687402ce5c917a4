package core

import (
	"bytes"
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
)

var lawsSeed = flag.Int64("laws.seed", 0, "seed of TestModuleLaws' random splits and merge trees (0 = from the clock)")

// lawsStream is what the laws observe: the head of the fixture (every
// user key sits in its first few thousand records, tokens and domains
// everywhere) plus a thin slice of the rest, so every module ends up
// holding state without the test costing a full corpus per engine.
func lawsStream(f *fixture) []logfmt.Record {
	const head = 6000
	recs := slices.Clone(f.records[:head])
	for i := head; i < len(f.records); i += 12 {
		recs = append(recs, f.records[i])
	}
	return recs
}

func lawsEngine(t *testing.T, opt Options, recs []logfmt.Record, modules ...string) *Engine {
	t.Helper()
	e, err := NewEngine(opt, modules...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		e.Observe(&recs[i])
	}
	return e
}

// foldTree deals recs onto k engines at random and merges them pairwise
// in a random order until one is left. The same seed deals and merges
// identically.
func foldTree(t *testing.T, opt Options, recs []logfmt.Record, module string, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	parts := make([]*Engine, 2+rng.Intn(7))
	for i := range parts {
		parts[i] = lawsEngine(t, opt, nil, module)
	}
	for i := range recs {
		parts[rng.Intn(len(parts))].Observe(&recs[i])
	}
	for len(parts) > 1 {
		i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
		if j >= i {
			j++
		}
		parts[i].Merge(parts[j])
		parts = slices.Delete(parts, j, j+1)
	}
	return parts[0]
}

// TestModuleLaws holds every module, alone in its engine, exact and
// sketched, to what the rest of the system assumes of mergeable state:
// folding is order-free, the codec is a bijection on what it writes, a
// decode replaces, and copies share nothing. A failure prints the seed;
// rerun with -laws.seed.
func TestModuleLaws(t *testing.T) {
	f := corpus(t)
	recs := lawsStream(f)
	seed := *lawsSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (-laws.seed)", seed)

	exactOpt := fixtureOptions(f)
	// Small sketches, so the stream overflows them and evictions are
	// part of what is held to the laws.
	sketchOpt := exactOpt.WithSketches(8, 64)
	for _, mode := range []struct {
		name string
		opt  Options
	}{{"exact", exactOpt}, {"sketch", sketchOpt}} {
		full := lawsEngine(t, mode.opt, recs)
		for _, module := range AllMetrics() {
			opt := mode.opt
			sketched := mode.name == "sketch" && slices.Contains(SketchedModules, module)
			t.Run(module+"/"+mode.name, func(t *testing.T) {
				seq := lawsEngine(t, opt, recs, module)
				state := seq.MarshalState()
				fresh := func() *Engine { return lawsEngine(t, opt, nil, module) }
				// used has state of its own, from the head of the stream
				// where every module sees something.
				used := func() *Engine { return lawsEngine(t, opt, recs[:4000], module) }
				if bytes.Equal(state, fresh().MarshalState()) {
					t.Fatal("the stream leaves the module empty: the laws would hold vacuously")
				}

				// Fold: any split, any merge tree. Exact state equals
				// sequential Observe byte for byte; sketches are
				// order-sensitive once full, so they owe only
				// determinism: the same tree twice, the same bytes.
				tree := foldTree(t, opt, recs, module, seed).MarshalState()
				if !sketched && !bytes.Equal(tree, state) {
					t.Error("merge tree differs from sequential Observe")
				}
				if !bytes.Equal(foldTree(t, opt, recs, module, seed).MarshalState(), tree) {
					t.Error("the same merge tree twice gave different states")
				}

				// Codec: encode -> decode -> encode is the identity.
				dec := fresh()
				if err := dec.UnmarshalState(state); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dec.MarshalState(), state) {
					t.Error("encode -> decode -> encode is not byte-identical")
				}

				// Decode replaces: into an engine with state of its own
				// it gives what it gives into a fresh one. In sketch mode
				// also for an exact (v1) state, which must load into the
				// sketched engine, by replay.
				inputs := map[string][]byte{"own": state}
				if mode.name == "sketch" {
					inputs["exact"] = lawsEngine(t, exactOpt, recs, module).MarshalState()
				}
				for name, in := range inputs {
					a, b := fresh(), used()
					if err := a.UnmarshalState(in); err != nil {
						t.Fatalf("%s state into a fresh engine: %v", name, err)
					}
					if err := b.UnmarshalState(in); err != nil {
						t.Fatalf("%s state into a used engine: %v", name, err)
					}
					if !bytes.Equal(a.MarshalState(), b.MarshalState()) {
						t.Errorf("%s state: decode into a used engine differs from decode into a fresh one", name)
					}
					if name == "exact" && !sketched && !bytes.Equal(a.MarshalState(), in) {
						t.Error("exact state of a module sketch mode leaves alone changed on its way through a sketched engine")
					}
				}

				// Clone is isolated, both ways.
				orig := used()
				before := orig.MarshalState()
				clone := orig.Clone()
				for i := 4000; i < 6000; i++ {
					clone.Observe(&recs[i])
				}
				if !bytes.Equal(orig.MarshalState(), before) {
					t.Error("observing into a clone changed the original")
				}
				after := clone.MarshalState()
				for i := 4000; i < 5000; i++ {
					orig.Observe(&recs[i])
				}
				if !bytes.Equal(clone.MarshalState(), after) {
					t.Error("observing into the original changed its clone")
				}

				// Projection: the module taken out of a full engine is
				// the module observed alone.
				sub := fresh()
				sub.MergeProjected(full)
				alone := fresh()
				alone.Merge(seq)
				if !bytes.Equal(sub.MarshalState(), alone.MarshalState()) {
					t.Error("MergeProjected from a full engine differs from the subset engine")
				}
				if !sketched && !bytes.Equal(sub.MarshalState(), state) {
					t.Error("MergeProjected from a full engine differs from sequential Observe")
				}
			})
		}
	}
}
