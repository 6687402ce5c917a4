package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sketchedCorpus builds a sketch-mode analyzer over the shared fixture
// records (default precision/capacity unless overridden).
func sketchedCorpus(t testing.TB, precision uint8, k int) *Analyzer {
	t.Helper()
	f := corpus(t)
	an := NewAnalyzer(fixtureOptions(f).WithSketches(precision, k))
	for i := range f.records {
		an.Observe(&f.records[i])
	}
	return an
}

// Sketch mode must not perturb anything outside the four sketched
// modules: every experiment that reads only exact modules renders
// byte-identically to the exact engine.
func TestSketchNonSketchedExperimentsByteIdentical(t *testing.T) {
	f := corpus(t)
	sk := sketchedCorpus(t, 0, 0)
	for _, id := range Experiments() {
		if UsesSketchedModules(id) {
			continue
		}
		want := experimentRender[id](f.analyzer)
		if got := experimentRender[id](sk); got != want {
			t.Errorf("%s: sketch-mode result differs from exact mode\n got: %.300s\nwant: %.300s", id, got, want)
		}
	}
}

// The headline user counts must stay within the HLL's 3-sigma error of
// the exact engine's counts.
func TestSketchUserEstimatesWithinBound(t *testing.T) {
	f := corpus(t)
	sk := sketchedCorpus(t, 0, 0)
	exact := f.analyzer.UserAnalysis()
	approx := sk.UserAnalysis()
	bound := 3 * 1.04 / math.Sqrt(float64(uint64(1)<<DefaultSketchPrecision))
	check := func(name string, got, want int) {
		if want == 0 {
			t.Fatalf("%s: exact corpus has 0 users; fixture too small", name)
		}
		if relErr := math.Abs(float64(got)-float64(want)) / float64(want); relErr > bound {
			t.Errorf("%s: sketch estimate %d vs exact %d (rel err %.4f > bound %.4f)",
				name, got, want, relErr, bound)
		}
	}
	check("TotalUsers", approx.TotalUsers, exact.TotalUsers)
	check("CensoredUsers", approx.CensoredUsers, exact.CensoredUsers)
}

// With sketches, tracked-entry counts stay bounded by the configured
// capacity no matter how many distinct keys the corpus holds. The
// fixture's distinct-user count is >= 10x the capacity used here, so the
// exact engine provably could not fit in the same footprint.
func TestSketchBoundedEntries(t *testing.T) {
	f := corpus(t)
	exactUsers := f.analyzer.UserAnalysis().TotalUsers
	const k = 64
	if exactUsers < 10*k {
		t.Fatalf("fixture has %d distinct users, need >= %d for a meaningful bound", exactUsers, 10*k)
	}
	sk := sketchedCorpus(t, 10, k)
	um := mod[*usersMetric](sk.Engine, "users", "test")
	if got := um.topTotal.Len(); got > k {
		t.Errorf("users topTotal tracks %d entries, capacity %d", got, k)
	}
	if got := um.topCensored.Len(); got > k {
		t.Errorf("users topCensored tracks %d entries, capacity %d", got, k)
	}
	dm := mod[*domainsMetric](sk.Engine, "domains", "test")
	for _, f := range dm.state() {
		scc, ok := (*f.(kcounterField).p).(*sketchCounter)
		if !ok {
			t.Fatal("sketched engine holds a non-sketch domains counter")
		}
		if got := scc.topk.Len(); got > k {
			t.Errorf("domains counter tracks %d entries, capacity %d", got, k)
		}
	}
	// The HLL estimate still sees the full population the top-k dropped.
	if est := um.hllTotal.Estimate(); float64(est) < 0.8*float64(exactUsers) {
		t.Errorf("users HLL estimate %d way below exact %d", est, exactUsers)
	}
}

// restore(checkpoint(S)) == S, byte-identically, in sketch mode: every
// experiment renders the same and the re-encoded state matches the first
// encoding.
func TestSketchStateRoundTrip(t *testing.T) {
	f := corpus(t)
	sk := sketchedCorpus(t, 0, 0)
	state := sk.MarshalState()

	fresh := NewAnalyzer(fixtureOptions(f).WithSketches(0, 0))
	if err := fresh.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	for _, id := range Experiments() {
		want := experimentRender[id](sk)
		if got := experimentRender[id](fresh); got != want {
			t.Errorf("%s: restored sketch analyzer renders differently", id)
		}
	}
	if again := fresh.MarshalState(); !bytes.Equal(again, state) {
		t.Errorf("re-encoded sketch state differs: %d vs %d bytes", len(again), len(state))
	}
}

// Sketch-mode engines merge deterministically, like exact ones: a serial
// engine and a merge of two halves encode identical state bytes.
func TestSketchMergeDeterministic(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f).WithSketches(0, 0)
	half1, half2 := NewAnalyzer(opt), NewAnalyzer(opt)
	for i := range f.records {
		if i%2 == 0 {
			half1.Observe(&f.records[i])
		} else {
			half2.Observe(&f.records[i])
		}
	}
	half1.Merge(half2)
	if !bytes.Equal(half1.MarshalState(), half1.MarshalState()) {
		t.Error("two MarshalState calls on the merged sketch engine disagree")
	}
}

// An exact (v1) checkpoint loads into a sketched engine by replay: the
// distinct-count estimates land within the HLL bound of the exact counts.
func TestSketchLoadsExactState(t *testing.T) {
	f := corpus(t)
	state := f.analyzer.MarshalState()
	sk := NewAnalyzer(fixtureOptions(f).WithSketches(0, 0))
	if err := sk.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	exact := f.analyzer.UserAnalysis()
	approx := sk.UserAnalysis()
	bound := 3 * 1.04 / math.Sqrt(float64(uint64(1)<<DefaultSketchPrecision))
	relErr := math.Abs(float64(approx.TotalUsers)-float64(exact.TotalUsers)) / float64(exact.TotalUsers)
	if relErr > bound {
		t.Errorf("replayed TotalUsers %d vs exact %d (rel err %.4f > %.4f)",
			approx.TotalUsers, exact.TotalUsers, relErr, bound)
	}
	// Replayed totals are exact (scalars survive replay losslessly).
	skDm := mod[*domainsMetric](sk.Engine, "domains", "test")
	exDm := mod[*domainsMetric](f.analyzer.Engine, "domains", "test")
	if skDm.allowed.Total() != exDm.allowed.Total() {
		t.Errorf("replayed allowed-domains total %d != exact %d",
			skDm.allowed.Total(), exDm.allowed.Total())
	}
}

// A sketch (v2) checkpoint must refuse to load into an exact engine with
// an error that names the fix.
func TestExactEngineRefusesSketchState(t *testing.T) {
	f := corpus(t)
	sk := sketchedCorpus(t, 0, 0)
	exact := NewAnalyzer(fixtureOptions(f))
	err := exact.UnmarshalState(sk.MarshalState())
	if err == nil {
		t.Fatal("exact engine loaded sketch state without error")
	}
	if !strings.Contains(err.Error(), "-sketch") {
		t.Errorf("error %q does not point at -sketch", err)
	}
}
