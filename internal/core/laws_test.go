package core

import (
	"bytes"
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/torsim"
)

var lawsSeed = flag.Int64("laws.seed", 0, "seed of TestModuleLaws' random splits and merge trees (0 = from the clock)")

// lawsStream is what the laws observe: the head of the fixture (every
// user key sits in its first few thousand records, tokens and domains
// everywhere) plus a thin slice of the rest, so every module ends up
// holding state without the test costing a full corpus per engine. The
// fixture's few censored Tor requests, none of which the head or the
// slice holds, are spread over the head, so that the layered laws' base
// and overlay each hold some.
func lawsStream(f *fixture) []logfmt.Record {
	const head = 6000
	recs := slices.Clone(f.records[:head])
	var tor []logfmt.Record
	for i := head; i < len(f.records); i++ {
		rec := &f.records[i]
		if (i-head)%12 == 0 {
			recs = append(recs, *rec)
		} else if rec.Class() == logfmt.ClassCensored && f.gen.Consensus().ClassifyRequest(rec.Host, rec.Port, rec.Path) != torsim.NotTor {
			tor = append(tor, *rec)
		}
	}
	for k, rec := range tor {
		recs = slices.Insert(recs, (k+1)*head/(len(tor)+1)+k, rec)
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
	if full.TorAnalysis().Censored == 0 {
		t.Fatal("the stream holds no censored Tor request: the tor laws would not reach its censored relays")
	}
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

			layeredLaws(t, opt, recs, module)
		})
	}
	// Every module at once, through every render, on the whole fixture:
	// the results that read two layers side by side (unions, sums,
	// per-hour lookups) see a base and an overlay that share keys and
	// hours, since each holds every other record.
	t.Run("all/layered", func(t *testing.T) {
		a := lawsEngine(t, opt, nil)
		for i := 0; i < len(f.records); i += 2 {
			a.Observe(&f.records[i])
		}
		c := a.Clone()
		for i := 1; i < len(f.records); i += 2 {
			c.Observe(&f.records[i])
		}
		if !bytes.Equal(c.MarshalState(), f.analyzer.MarshalState()) {
			t.Error("a clone that observed the other half of the corpus differs from one engine's state")
		}
		if got, want := renderEverything(&Analyzer{c}), renderEverything(f.analyzer); got != want {
			t.Error("a clone that observed the other half of the corpus renders differently from one engine")
		}
	})
	// The token cap admits in observation order, over both layers of a
	// clone: with a cap the stream crosses, a clone that observes the
	// rest of the stream admits what one engine observing all of it does.
	t.Run("tokens/capped", func(t *testing.T) {
		capped := opt
		capped.maxTokens = 200
		seq := lawsEngine(t, capped, recs, "tokens")
		head := lawsEngine(t, capped, recs[:2000], "tokens")
		if n := mod[*tokensMetric](head, "tokens", "test").allowed.len(); n >= capped.maxTokens {
			t.Fatalf("the head alone fills the cap (%d keys): the law would not cross it", n)
		}
		if n := mod[*tokensMetric](seq, "tokens", "test").allowed.len(); n != capped.maxTokens {
			t.Fatalf("the stream leaves %d keys under a cap of %d: the law would hold vacuously", n, capped.maxTokens)
		}
		c := head.Clone()
		for i := 2000; i < 4000; i++ {
			c.Observe(&recs[i])
		}
		cc := c.Clone()
		for i := 4000; i < len(recs); i++ {
			cc.Observe(&recs[i])
		}
		sameModule(t, "a clone of a clone under the token cap", cc, seq, "tokens")
	})
}

// layeredLaws holds one module to what an engine over a frozen base
// (Clone) must give: whatever the layers, its state and renders are
// those of one engine observing the same records.
func layeredLaws(t *testing.T, opt Options, recs []logfmt.Record, module string) {
	t.Helper()
	upTo := func(n int) *Engine { return lawsEngine(t, opt, recs[:n], module) }
	observe := func(e *Engine, from, to int) *Engine {
		for i := from; i < to; i++ {
			e.Observe(&recs[i])
		}
		return e
	}

	// Freeze, clone, observe B: equals observing A+B into one engine.
	a := upTo(3000)
	sameModule(t, "a clone that observed B", observe(a.Clone(), 3000, 5000), upTo(5000), module)

	// Two clones of one base diverge independently, and the engine they
	// were cloned from keeps its own state, then moves on alone.
	c1, c2 := a.Clone(), a.Clone()
	observe(c1, 3000, 4000)
	observe(c2, 4000, 6000)
	b := lawsEngine(t, opt, nil, module)
	for i := 0; i < 3000; i++ {
		b.Observe(&recs[i])
	}
	sameModule(t, "the source after two clones", a, upTo(3000), module)
	observe(b, 4000, 6000)
	sameModule(t, "the second of two clones", c2, b, module)
	sameModule(t, "the first of two clones", c1, upTo(4000), module)
	observe(a, 3000, 5000)
	sameModule(t, "the source observing after its clones", a, upTo(5000), module)
	sameModule(t, "the first clone after its source moved on", c1, upTo(4000), module)

	// A clone of a clone reads the shared base through its own copy of
	// the overlay; the middle clone keeps its state.
	cc := c1.Clone()
	observe(cc, 4000, 6000)
	sameModule(t, "a clone of a clone", cc, upTo(6000), module)
	sameModule(t, "a clone after its own clone observed", c1, upTo(4000), module)

	// Compaction equals fold: the compacted engine, and its clones, are
	// the engine that observed everything.
	cc.Compact()
	if cc.base != nil {
		t.Error("a compacted engine still reads a base")
	}
	sameModule(t, "a compacted clone", cc, upTo(6000), module)
	sameModule(t, "a clone of a compacted clone", observe(cc.Clone(), 6000, len(recs)), upTo(len(recs)), module)
}

// sameModule fails unless got holds want's state for module, byte for
// byte, and renders every experiment that reads module alone the same.
func sameModule(t *testing.T, what string, got, want *Engine, module string) {
	t.Helper()
	if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
		t.Errorf("%s: state differs from one engine's", what)
		return
	}
	for _, id := range Experiments() {
		if mods := experimentModules[id]; len(mods) == 1 && mods[0] == module {
			if g, w := experimentRender[id](&Analyzer{got}), experimentRender[id](&Analyzer{want}); g != w {
				t.Errorf("%s: %s renders differently:\n got  %.300s\n want %.300s", what, id, g, w)
			}
		}
	}
}
