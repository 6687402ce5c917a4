package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

func fixtureOptions(f *fixture) Options {
	return Options{
		Categories: f.gen.CategoryDB(),
		Consensus:  f.gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
}

// renderAllExperiments is the byte-level equivalence oracle: every
// experiment's full result rendering.
func renderAllExperiments(a *Analyzer) string {
	var sb strings.Builder
	for _, id := range Experiments() {
		fmt.Fprintf(&sb, "%s: %s\n", id, experimentRender[id](a))
	}
	return sb.String()
}

// restore(marshal(S)) must reproduce S exactly: every experiment result
// byte-identical, and the re-encoded state byte-identical to the first
// encoding.
func TestEngineStateRoundTrip(t *testing.T) {
	f := corpus(t)
	state := f.analyzer.MarshalState()

	fresh := NewAnalyzer(fixtureOptions(f))
	if err := fresh.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	want := renderAllExperiments(f.analyzer)
	if got := renderAllExperiments(fresh); got != want {
		t.Error("restored analyzer renders differently from the original")
	}
	if again := fresh.MarshalState(); !bytes.Equal(again, state) {
		t.Errorf("re-encoded state differs: %d vs %d bytes", len(again), len(state))
	}
}

// Marshaling must be deterministic across equivalent engines: a
// serially observed engine and a merge of two halves encode the same
// state bytes (map iteration order must not leak into the encoding).
func TestEngineStateDeterministic(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)

	half1, half2 := NewAnalyzer(opt), NewAnalyzer(opt)
	for i := range f.records {
		if i%2 == 0 {
			half1.Observe(&f.records[i])
		} else {
			half2.Observe(&f.records[i])
		}
	}
	half1.Merge(half2)
	if !bytes.Equal(half1.MarshalState(), f.analyzer.MarshalState()) {
		t.Error("merged-engine state bytes differ from serial engine state bytes")
	}
	// Nor may arrival order: a counter keeps its keys in insertion order,
	// and the same records observed backwards insert every table's keys
	// the other way round.
	reversed := NewAnalyzer(opt)
	for i := len(f.records) - 1; i >= 0; i-- {
		reversed.Observe(&f.records[i])
	}
	if !bytes.Equal(reversed.MarshalState(), f.analyzer.MarshalState()) {
		t.Error("state bytes of the corpus observed backwards differ from serial engine state bytes")
	}
	// And repeated marshaling of the same engine is stable.
	if !bytes.Equal(f.analyzer.MarshalState(), f.analyzer.MarshalState()) {
		t.Error("two MarshalState calls on the same engine disagree")
	}
}

// A subset engine round-trips through its own state, and a full
// checkpoint loads into a subset engine (extra sections skipped).
func TestEngineStateSubsets(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)
	fullState := f.analyzer.MarshalState()

	for _, id := range []string{"table4", "fig8", "table12", "bt"} {
		mods, err := ModulesFor(id)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := NewAnalyzerFor(opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.records {
			sub.Observe(&f.records[i])
		}
		want := experimentRender[id](sub)

		// Subset state -> subset engine.
		restored, err := NewAnalyzerFor(opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalState(sub.MarshalState()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := experimentRender[id](restored); got != want {
			t.Errorf("%s: subset state round-trip changed the result", id)
		}

		// Full checkpoint -> subset engine.
		fromFull, err := NewAnalyzerFor(opt, mods...)
		if err != nil {
			t.Fatal(err)
		}
		if err := fromFull.UnmarshalState(fullState); err != nil {
			t.Fatalf("%s: loading full state: %v", id, err)
		}
		if got := experimentRender[id](fromFull); got != want {
			t.Errorf("%s: full checkpoint loaded into subset engine changed the result", id)
		}
	}
}

// Loading a subset checkpoint into an engine that needs more modules
// must fail loudly, not serve silently-empty results.
func TestEngineStateMissingModules(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)
	sub, err := NewAnalyzerFor(opt, "datasets")
	if err != nil {
		t.Fatal(err)
	}
	full := NewAnalyzer(opt)
	err = full.UnmarshalState(sub.MarshalState())
	if err == nil {
		t.Fatal("full engine accepted a datasets-only checkpoint")
	}
	if !strings.Contains(err.Error(), "domains") {
		t.Errorf("error should name a missing module: %v", err)
	}
}

// stateSection is one module section of an engine state stream.
type stateSection struct {
	name    string
	payload []byte
}

// splitState reparses an engine state stream's outer framing.
func splitState(t *testing.T, state []byte) []stateSection {
	t.Helper()
	r := statecodec.NewReader(state[len(engineStateMagic)+1:])
	n := r.Count()
	secs := make([]stateSection, 0, n)
	for i := 0; i < n; i++ {
		secs = append(secs, stateSection{r.String(), r.Blob()})
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return secs
}

// joinState frames secs as an engine state stream.
func joinState(secs []stateSection) []byte {
	w := statecodec.NewWriter()
	w.Raw([]byte(engineStateMagic))
	w.Byte(engineStateVersion)
	w.Uvarint(uint64(len(secs)))
	for _, s := range secs {
		w.String(s.name)
		w.Blob(s.payload)
	}
	return w.Bytes()
}

// Sections are paired by name, not position: a stream with its module
// sections reordered decodes to the same state.
func TestEngineStateSectionOrderIndependent(t *testing.T) {
	f := corpus(t)
	secs := splitState(t, f.analyzer.MarshalState())
	slices.Reverse(secs)

	fresh := NewAnalyzer(fixtureOptions(f))
	if err := fresh.UnmarshalState(joinState(secs)); err != nil {
		t.Fatal(err)
	}
	if renderAllExperiments(fresh) != renderAllExperiments(f.analyzer) {
		t.Error("section-reversed state decodes to a different analyzer")
	}
}

// State written by the removed -sketch mode is refused by name, and the
// refusal leaves an engine that still observes and renders.
func TestExactEngineRefusesSketchState(t *testing.T) {
	f := corpus(t)
	// The fixture's state with its users section relabelled layout 2, the
	// form the removed mode wrote. Only the layout byte is read before the
	// refusal, so the payload behind it does not matter.
	secs := splitState(t, f.analyzer.MarshalState())
	for i := range secs {
		if secs[i].name == "users" {
			secs[i].payload = append([]byte{2}, secs[i].payload[1:]...)
		}
	}
	an := NewAnalyzer(fixtureOptions(f))
	err := an.UnmarshalState(joinState(secs))
	if err == nil || !strings.Contains(err.Error(), "written by the removed -sketch mode; re-ingest the logs") {
		t.Fatalf("layout-2 users section: err = %v, want the -sketch refusal", err)
	}
	for i := range f.records[:5000] {
		an.Observe(&f.records[i])
	}
	if an.UserAnalysis().TotalUsers == 0 {
		t.Error("the engine counts no users after the refusal")
	}
	renderAllExperiments(an)
}

// Keys arrive strictly ascending, as every keyed encoder writes them. A
// key that repeats, or arrives out of order, is corruption: the decode
// fails naming the module instead of keeping one of the entries or
// summing them, and the engine stays usable.
func TestEngineStateRefusesUnorderedCounterKeys(t *testing.T) {
	f := corpus(t)
	num := func(k string) int64 {
		n, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// held is the size of a module's section: what it observes grows it.
	held := func(a *Analyzer, module string) int {
		for _, s := range splitState(t, a.MarshalState()) {
			if s.name == module {
				return len(s.payload)
			}
		}
		return 0
	}
	for _, tc := range []struct {
		module string
		// lead and trail are the empty fields around the keyed table; a
		// key's entry is its key and values as entry writes them.
		lead, trail int
		entry       func(w *statecodec.Writer, key string)
	}{
		{"domains", 0, len(newDomainsMetric(&Engine{}).state()) - 1, func(w *statecodec.Writer, k string) { w.StringRef(k); w.Uvarint(1) }},
		{"users", 0, 0, func(w *statecodec.Writer, k string) { w.StringRef(k); w.Uvarint(1); w.Uvarint(0) }},
		{"osn", 0, 0, func(w *statecodec.Writer, k string) { w.StringRef(k); w.Uvarint(1); w.Uvarint(0); w.Uvarint(0) }},
		{"facebook", 1, 1, func(w *statecodec.Writer, k string) {
			w.StringRef(k)
			w.Uvarint(1)
			w.Uvarint(0)
			w.Uvarint(0)
			w.Bool(false)
		}},
		{"subnets", 0, 0, func(w *statecodec.Writer, k string) {
			w.StringRef(k)
			for range 6 { // three counts, three empty IP sets
				w.Uvarint(0)
			}
		}},
		{"ports", 0, 1, func(w *statecodec.Writer, k string) { w.Uvarint(uint64(num(k))); w.Uvarint(1) }},
		// A 5-minute slot of the first series, then an hour of the
		// censored-domain counters.
		{"timeseries", 0, 2, func(w *statecodec.Writer, k string) { w.Varint(num(k)); w.Uvarint(1) }},
		{"timeseries", 2, 0, func(w *statecodec.Writer, k string) {
			w.Varint(num(k))
			w.Uvarint(1)
			w.StringRef("example.com")
			w.Uvarint(1)
		}},
	} {
		// The keys read as names and as numbers alike: "8080" follows
		// "80" both as a string and as a number.
		for _, keys := range [][2]string{{"80", "80"}, {"8080", "80"}} {
			w := statecodec.NewWriter()
			w.Byte(layoutExact)
			for range tc.lead {
				w.Uvarint(0)
			}
			w.Uvarint(uint64(len(keys)))
			for _, k := range keys {
				tc.entry(w, k)
			}
			for range tc.trail {
				w.Uvarint(0)
			}
			secs := splitState(t, f.analyzer.MarshalState())
			for i := range secs {
				if secs[i].name == tc.module {
					secs[i].payload = w.Bytes()
				}
			}
			an := NewAnalyzer(fixtureOptions(f))
			err := an.UnmarshalState(joinState(secs))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("module %q", tc.module)) || !strings.Contains(err.Error(), "does not follow") {
				t.Fatalf("%s keyed %q: err = %v, want an out-of-order refusal naming the module", tc.module, keys, err)
			}
			before := held(an, tc.module)
			for i := range f.records[:5000] {
				an.Observe(&f.records[i])
			}
			if held(an, tc.module) <= before {
				t.Errorf("%s keyed %q: the module observes nothing after the refusal", tc.module, keys)
			}
			renderAllExperiments(an)
		}
	}
}

// Corrupted and truncated state must fail with an error — never panic,
// and never quietly succeed on a prefix.
func TestEngineStateCorruption(t *testing.T) {
	f := corpus(t)
	state := f.analyzer.MarshalState()
	fresh := func() *Analyzer { return NewAnalyzer(fixtureOptions(f)) }

	if err := fresh().UnmarshalState(nil); err == nil {
		t.Error("empty state accepted")
	}
	if err := fresh().UnmarshalState([]byte("BOGUS-not-a-state")); err == nil {
		t.Error("garbage state accepted")
	}
	// A flipped version byte must be rejected.
	bad := append([]byte(nil), state...)
	bad[len(engineStateMagic)] = 99
	if err := fresh().UnmarshalState(bad); err == nil {
		t.Error("unknown format version accepted")
	}
	// Truncations at various points (every point would be slow at this
	// corpus size; step through a spread).
	step := len(state)/97 + 1
	for n := 0; n < len(state); n += step {
		if err := fresh().UnmarshalState(state[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(state))
		}
	}
	// Trailing garbage is rejected too.
	if err := fresh().UnmarshalState(append(append([]byte(nil), state...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// A decoded engine keeps no reference into the bytes it was decoded
// from: timewin inflates checkpoint frames into one buffer it reuses
// from frame to frame, so the caller may overwrite the input the moment
// UnmarshalState returns.
func TestUnmarshalStateDoesNotAliasInput(t *testing.T) {
	f := corpus(t)
	state := f.analyzer.MarshalState()
	input := bytes.Clone(state)
	restored := NewAnalyzer(fixtureOptions(f))
	if err := restored.UnmarshalState(input); err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] = 0xAA
	}
	if !bytes.Equal(restored.MarshalState(), state) {
		t.Error("engine state changed when its decode input was overwritten")
	}
}

// StateLayout names what an engine writes, not what it holds: equal for
// an empty and a loaded engine of one configuration, different across
// module sets — including a full state loaded into a subset engine.
func TestStateLayout(t *testing.T) {
	f := corpus(t)
	opt := fixtureOptions(f)
	layout := func(b []byte) string {
		t.Helper()
		l, err := StateLayout(b)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	full := layout(f.analyzer.MarshalState())
	if empty := layout(NewAnalyzer(opt).MarshalState()); empty != full {
		t.Error("an empty and a loaded engine of one configuration report different layouts")
	}
	subset, err := NewEngine(opt, "datasets", "domains")
	if err != nil {
		t.Fatal(err)
	}
	if err := subset.UnmarshalState(f.analyzer.MarshalState()); err != nil {
		t.Fatal(err)
	}
	if layout(subset.MarshalState()) == full {
		t.Error("a module-subset engine reports the full layout")
	}
	state := f.analyzer.MarshalState()
	for _, bad := range [][]byte{nil, []byte("NOPE"), state[:len(state)/2]} {
		if _, err := StateLayout(bad); err == nil {
			t.Errorf("StateLayout accepted a %d-byte malformed stream", len(bad))
		}
	}
}

// FuzzStateRoundTrip feeds arbitrary log lines through the engine and
// pins the codec invariant: encode → decode → re-encode is
// byte-identical, and every experiment renders identically.
func FuzzStateRoundTrip(f *testing.F) {
	f.Add([]byte("2011-08-03 11:01:02 1.2.3.4 200 OBSERVED - http://example.com/x.html GET example.com 80 /x.html html - 1234 56 - Mozilla news \"News\" SG-42 - - - - - -\n"))
	f.Add([]byte("garbage\nmore garbage\n"))
	f.Add([]byte{})
	fz := corpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		an := NewAnalyzer(fixtureOptions(fz))
		// Parse fuzz bytes as log lines; malformed lines are skipped, so
		// arbitrary input still drives Observe with whatever parses.
		p := logfmt.NewParser()
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec logfmt.Record
			if err := p.ParseBytes(line, &rec); err == nil {
				an.Observe(&rec)
			}
		}
		// Mix in a slice of the realistic corpus so the state is never
		// trivially empty.
		off := 0
		if len(data) > 0 {
			off = int(data[0]) * 37 % len(fz.records)
		}
		for i := off; i < len(fz.records) && i < off+500; i++ {
			an.Observe(&fz.records[i])
		}

		state := an.MarshalState()
		restored := NewAnalyzer(fixtureOptions(fz))
		if err := restored.UnmarshalState(state); err != nil {
			t.Fatalf("decode of freshly encoded state failed: %v", err)
		}
		if again := restored.MarshalState(); !bytes.Equal(again, state) {
			t.Fatalf("re-encode differs: %d vs %d bytes", len(again), len(state))
		}
		if renderAllExperiments(restored) != renderAllExperiments(an) {
			t.Fatal("restored analyzer renders differently")
		}
	})
}
