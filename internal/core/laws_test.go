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

// TestModuleLaws holds every module, alone in its engine, to what the
// rest of the system assumes of mergeable state: folding is order-free,
// the codec is a bijection on what it writes, a decode replaces, and
// copies share nothing. A failure prints the seed; rerun with
// -laws.seed.
func TestModuleLaws(t *testing.T) {
	f := corpus(t)
	recs := lawsStream(f)
	seed := *lawsSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (-laws.seed)", seed)

	opt := fixtureOptions(f)
	full := lawsEngine(t, opt, recs)
	for _, module := range AllMetrics() {
		t.Run(module+"/exact", func(t *testing.T) {
			seq := lawsEngine(t, opt, recs, module)
			state := seq.MarshalState()
			fresh := func() *Engine { return lawsEngine(t, opt, nil, module) }
			// used has state of its own, from the head of the stream
			// where every module sees something.
			used := func() *Engine { return lawsEngine(t, opt, recs[:4000], module) }
			if bytes.Equal(state, fresh().MarshalState()) {
				t.Fatal("the stream leaves the module empty: the laws would hold vacuously")
			}

			// Fold: any split, any merge tree equals sequential Observe
			// byte for byte.
			if !bytes.Equal(foldTree(t, opt, recs, module, seed).MarshalState(), state) {
				t.Error("merge tree differs from sequential Observe")
			}

			// Codec: encode -> decode -> encode is the identity.
			dec := fresh()
			if err := dec.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec.MarshalState(), state) {
				t.Error("encode -> decode -> encode is not byte-identical")
			}

			// Decode replaces: into an engine with state of its own it
			// gives what it gives into a fresh one.
			reused := used()
			if err := reused.UnmarshalState(state); err != nil {
				t.Fatalf("state into a used engine: %v", err)
			}
			if !bytes.Equal(reused.MarshalState(), state) {
				t.Error("decode into a used engine differs from decode into a fresh one")
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

			// Projection: the module taken out of a full engine is the
			// module observed alone.
			sub := fresh()
			sub.MergeProjected(full)
			if !bytes.Equal(sub.MarshalState(), state) {
				t.Error("MergeProjected from a full engine differs from sequential Observe")
			}
		})
	}
}
