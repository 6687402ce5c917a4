package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

// discoveryEngine builds a {domains, tokens} engine, the module pair
// §5.4 reads.
func discoveryEngine(t testing.TB, opt Options) *Engine {
	t.Helper()
	e, err := NewEngine(opt, "domains", "tokens")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAgainstReference pins DiscoverFilters (fresh and remembered) to
// the pre-incremental loop for several minCounts.
func checkAgainstReference(t *testing.T, e *Engine) {
	t.Helper()
	for _, minCount := range []uint64{0, 1, 2, 5} {
		want := discoverFiltersReference(e, minCount)
		for _, call := range []string{"computed", "remembered"} {
			if got := e.DiscoverFilters(minCount); !reflect.DeepEqual(got, want) {
				t.Errorf("minCount %d (%s):\n got  %+v\n want %+v", minCount, call, got, want)
			}
		}
	}
}

func TestDiscoverFiltersMatchesReferenceOnSynth(t *testing.T) {
	f := corpus(t)
	opt := Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()}
	capped := opt
	capped.maxStoredCensoredURLs = 400 // read through the k-smallest selection
	variants := map[string]Options{
		"exact":  opt,
		"capped": capped,
	}
	for _, n := range []int{15_000, 60_000, len(f.records)} {
		for name, o := range variants {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				e := discoveryEngine(t, o)
				for i := range f.records[:n] {
					e.Observe(&f.records[i])
				}
				if d := e.DiscoverFilters(0); len(d.Domains) == 0 || (name != "capped" && len(d.Keywords) == 0) {
					t.Fatalf("degenerate corpus: %d keywords, %d domains", len(d.Keywords), len(d.Domains))
				}
				checkAgainstReference(t, e)
			})
		}
	}
	// Other worlds: different seeds move the blocked TLDs, the keyword
	// mix and the tie structure.
	for _, seed := range []uint64{7, 8} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			gen, err := synth.New(synth.Config{Seed: seed, TotalRequests: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			e := discoveryEngine(t, Options{Categories: gen.CategoryDB()})
			proxysim.Emit(gen, e.Observe)
			checkAgainstReference(t, e)
		})
	}
}

// store feeds hand-built records into a discovery engine. Hosts are
// d<N>.com: no label is a token (digits break runs, "com" is short), so
// the only candidates are the ones a case plants in paths and queries.
type store struct {
	e *Engine
}

func newStore(t *testing.T, opt Options) store {
	s := store{discoveryEngine(t, opt)}
	// Allowed traffic under .com, or phase 0 would collapse the whole
	// TLD and leave no residue.
	s.allowed("ok.com", "/", "")
	return s
}

func (s store) observe(ex logfmt.ExceptionID, filter logfmt.FilterResult, host, path, query string, times int) {
	rec := logfmt.Record{
		Time: 1312380000, ClientIP: "10.0.0.1", Method: "GET", Scheme: "http", Port: 80,
		Host: host, Path: path, Query: query, Filter: filter, Exception: ex,
	}
	rec.SetProxy(42)
	for i := 0; i < times; i++ {
		s.e.Observe(&rec)
	}
}

func (s store) censored(host, path, query string, times int) {
	s.observe(logfmt.ExPolicyDenied, logfmt.Denied, host, path, query, times)
}

func (s store) allowed(host, path, query string) {
	s.observe(logfmt.ExNone, logfmt.Observed, host, path, query, 1)
}

// spread plants path once on each of d<from>.com .. d<from+n-1>.com.
func (s store) spread(from, n int, path string) {
	for i := 0; i < n; i++ {
		s.censored(fmt.Sprintf("d%d.com", from+i), path, "", 1)
	}
}

func keywordsOf(d Discovery) []string {
	out := make([]string, len(d.Keywords))
	for i, kw := range d.Keywords {
		out[i] = fmt.Sprintf("%s:%d", kw.Keyword, kw.Censored)
	}
	return out
}

func TestDiscoverFiltersAdversarialStores(t *testing.T) {
	cases := []struct {
		name  string
		build func(s store)
		want  []string // keyword:count, in discovery order
	}{
		{
			// Removal is by substring of the lowered URL. "proxy" also
			// explains URLs where it is no token at all: inside a longer
			// token, inside a run too long to be a token, and straddling
			// the host/path boundary. Those URLs carry "tunnel", which
			// must lose them: 3 of its 7 go, leaving spread 2.
			name: "match across token boundaries",
			build: func(s store) {
				s.spread(0, 8, "/proxy")
				s.censored("d10.com", "/webproxyserver/tunnel", "", 1)
				s.censored("d11.com", "/averyveryverylongproxylabelpasttwentyfour/tunnel", "", 1)
				s.censored("d12.pro", "xy/tunnel", "", 1)
				s.allowed("ok.pro", "/", "")
				s.censored("d13.com", "/tunnel", "", 2)
				s.censored("d14.com", "/tunnel", "", 2)
			},
			want: []string{"proxy:8"},
		},
		{
			name: "equal counts break alphabetically",
			build: func(s store) {
				s.spread(0, 4, "/zebra")
				s.spread(4, 4, "/aardvark")
				s.spread(8, 4, "/mongoose")
			},
			want: []string{"aardvark:4", "mongoose:4", "zebra:4"},
		},
		{
			// "gamma" reaches three domains only through a URL that
			// "delta" explains; once delta is taken its spread is 2.
			name: "spread falls below three mid-elimination",
			build: func(s store) {
				s.spread(0, 5, "/delta")
				s.censored("d5.com", "/delta/gamma", "", 2)
				s.censored("d6.com", "/gamma", "", 2)
				s.censored("d7.com", "/gamma", "", 2)
			},
			want: []string{"delta:7"},
		},
		{
			name: "a token repeated in one URL counts once",
			build: func(s store) {
				s.censored("d0.com", "/omega/omega", "omega=omega", 1)
				s.censored("d1.com", "/omega", "", 1)
				s.censored("d2.com", "/OMEGA/omega", "", 1)
			},
			want: []string{"omega:3"},
		},
		{
			name: "allowed vocabulary vetoes a candidate",
			build: func(s store) {
				s.spread(0, 5, "/benign")
				s.spread(0, 4, "/forbidden")
				s.allowed("ok.com", "/benign", "")
			},
			want: []string{"forbidden:4"},
		},
		{
			// U+212A KELVIN SIGN lowercases to ASCII 'k': the lowered URL
			// reads "kelvin" and is explained by that keyword, but the
			// stored URL's own tokens stop at the non-ASCII bytes, so it
			// adds to "elvin", never to "kelvin".
			name: "non-ASCII byte sequence lowercasing to ASCII",
			build: func(s store) {
				s.spread(0, 4, "/kelvin")
				s.spread(4, 3, "/\u212aelvin")
			},
			want: []string{"kelvin:4"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/exact", func(t *testing.T) {
			s := newStore(t, Options{})
			tc.build(s)
			if got := keywordsOf(s.e.DiscoverFilters(0)); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("keywords = %v, want %v", got, tc.want)
			}
			checkAgainstReference(t, s.e)
		})
	}
}

// More eligible keywords than the cap: both implementations stop at the
// same 64, in the same order.
func TestDiscoverFiltersKeywordCap(t *testing.T) {
	s := newStore(t, Options{})
	for k := 0; k < 80; k++ {
		// Letters only (digits would split the token); counts vary so
		// the order is not just alphabetical.
		tok := "kw" + string(rune('a'+k/26)) + string(rune('a'+k%26)) + "word"
		s.spread(0, 3+k%4, "/"+tok)
	}
	d := s.e.DiscoverFilters(0)
	if len(d.Keywords) != maxKeywords {
		t.Fatalf("keywords = %d, want the cap %d", len(d.Keywords), maxKeywords)
	}
	checkAgainstReference(t, s.e)
}

// Every mutation makes the remembered result stale; a clone never
// inherits it.
func TestDiscoverFiltersMemoInvalidation(t *testing.T) {
	s := newStore(t, Options{})
	s.spread(0, 4, "/alpha")
	e := s.e
	first := e.DiscoverFilters(0)
	if got := keywordsOf(first); !reflect.DeepEqual(got, []string{"alpha:4"}) {
		t.Fatalf("keywords = %v", got)
	}
	if e.DiscoverFilters(0); e.disc.runs != 1 {
		t.Fatalf("unchanged engine computed %d times, want 1", e.disc.runs)
	}
	if &e.DiscoverFilters(0).Keywords[0] != &first.Keywords[0] {
		t.Error("remembered result is not shared")
	}

	clone := e.Clone()
	if clone.disc.runs != 0 || clone.disc.d.Keywords != nil {
		t.Error("clone inherited the remembered result")
	}
	if got := keywordsOf(clone.DiscoverFilters(0)); !reflect.DeepEqual(got, []string{"alpha:4"}) || clone.disc.runs != 1 {
		t.Errorf("clone: keywords = %v after %d computations", got, clone.disc.runs)
	}

	s.spread(0, 5, "/bravo") // Observe
	if got := keywordsOf(e.DiscoverFilters(0)); !reflect.DeepEqual(got, []string{"bravo:5", "alpha:4"}) {
		t.Errorf("after Observe: keywords = %v", got)
	}

	other := newStore(t, Options{})
	other.spread(0, 6, "/charlie")
	e.Merge(other.e)
	if got := keywordsOf(e.DiscoverFilters(0)); !reflect.DeepEqual(got, []string{"charlie:6", "bravo:5", "alpha:4"}) {
		t.Errorf("after Merge: keywords = %v", got)
	}

	if err := e.UnmarshalState(other.e.MarshalState()); err != nil {
		t.Fatal(err)
	}
	if got := keywordsOf(e.DiscoverFilters(0)); !reflect.DeepEqual(got, []string{"charlie:6"}) {
		t.Errorf("after UnmarshalState: keywords = %v", got)
	}

	// A different minCount is a different question.
	if got := keywordsOf(e.DiscoverFilters(7)); len(got) != 0 {
		t.Errorf("minCount 7: keywords = %v", got)
	}
	if got := keywordsOf(e.DiscoverFilters(0)); !reflect.DeepEqual(got, []string{"charlie:6"}) {
		t.Errorf("back to default minCount: keywords = %v", got)
	}
	checkAgainstReference(t, e)
}

// Concurrent readers of one frozen engine share a single computation.
func TestDiscoverFiltersConcurrentReadersComputeOnce(t *testing.T) {
	f := corpus(t)
	e := discoveryEngine(t, Options{Categories: f.gen.CategoryDB()})
	for i := range f.records[:60_000] {
		e.Observe(&f.records[i])
	}
	want := discoverFiltersReference(e, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := e.DiscoverFilters(0); !reflect.DeepEqual(got, want) {
				t.Error("concurrent reader saw a different discovery")
			}
		}()
	}
	wg.Wait()
	if e.disc.runs != 1 {
		t.Errorf("discovery computed %d times, want 1", e.disc.runs)
	}
}

// A seeded chain of clones — the extend cut's shape — over the synth
// corpus with a small URL-store cap: each step clones the previous
// engine, changes the clone, and asks for discovery on some steps only,
// so an index is sometimes carried across several clones before it is
// extended. The changes include a Merge, an UnmarshalState back to a
// smaller store, compaction past the cap, a TLD that becomes blocked and
// then stops being blocked, a token that gains an allowed occurrence,
// and one source cloned twice. Every computation must equal the
// reference, and both the carried path and the rebuild path must have
// run.
func TestCarriedDiscoveryMatchesReference(t *testing.T) {
	f := corpus(t)
	opt := Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()}
	opt.maxStoredCensoredURLs = 1200
	rng := rand.New(rand.NewSource(40))
	pos := 0
	slice := func(n int) []logfmt.Record {
		if pos+n > len(f.records) {
			pos = 0
		}
		pos += n
		return f.records[pos-n : pos]
	}
	observe := func(e *Engine, recs []logfmt.Record) {
		for i := range recs {
			e.Observe(&recs[i])
		}
	}
	var runs, extended, rebuilt, pastCap int
	retire := func(e *Engine) {
		runs += e.disc.runs
		extended += e.disc.extended
		rebuilt += e.disc.rebuilt
	}
	check := func(step int, what string, e *Engine, minCount uint64) Discovery {
		t.Helper()
		got, want := e.DiscoverFilters(minCount), discoverFiltersReference(e, minCount)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s), minCount %d:\n got  %+v\n want %+v", step, what, minCount, got, want)
		}
		return got
	}

	cur := discoveryEngine(t, opt)
	observe(cur, slice(20_000))
	early := cur.MarshalState() // a store well under the cap
	check(-1, "first", cur, 0)
	for step := 0; step < 150; step++ {
		next := cur.Clone()
		what := "observe"
		switch r := rng.Intn(100); {
		case step == 59:
			what = "a TLD becomes blocked"
			for _, host := range []string{"a.xq", "b.xq", "c.xq"} {
				store{next}.censored(host, "/", "", 1)
			}
			if !slices.ContainsFunc(check(step, what, next, 0).Domains, func(sd SuspectedDomain) bool { return sd.Domain == ".xq" }) {
				t.Fatal(".xq is not blocked after three censored requests")
			}
		case step == 60:
			what = "a TLD stops being blocked"
			store{next}.allowed("unblocked.xq", "/", "")
			if slices.ContainsFunc(check(step, what, next, 0).Domains, func(sd SuspectedDomain) bool { return sd.Domain == ".xq" }) {
				t.Fatal(".xq is still blocked after an allowed request")
			}
		case step == 61:
			what = "a token gains an allowed occurrence"
			kws := cur.DiscoverFilters(0).Keywords
			if len(kws) == 0 {
				t.Fatal("no keyword to veto")
			}
			kw := kws[0].Keyword
			store{next}.allowed("ok.com", "/"+kw, "")
			if slices.ContainsFunc(check(step, what, next, 0).Keywords, func(got Keyword) bool { return got.Keyword == kw }) {
				t.Fatalf("%q is still a keyword after an allowed occurrence", kw)
			}
		case r < 6:
			what = "merge"
			other := discoveryEngine(t, opt)
			observe(other, slice(500+rng.Intn(3000)))
			next.Merge(other)
		case r < 10:
			what = "unmarshal"
			if err := next.UnmarshalState(early); err != nil {
				t.Fatal(err)
			}
		case r < 13:
			// next took cur's index; the twin starts without one.
			what = "cloned twice"
			twin := cur.Clone()
			recs := slice(200 + rng.Intn(2000))
			observe(twin, recs)
			observe(next, recs)
			check(step, "twin", twin, 0)
			retire(twin)
		default:
			observe(next, slice(200+rng.Intn(2000)))
		}
		if rng.Intn(3) > 0 {
			check(step, what, next, []uint64{0, 0, 2}[rng.Intn(3)])
		}
		if len(mod[*tokensMetric](next, "tokens", "test").censoredURLs) > opt.maxStoredCensoredURLs {
			pastCap++
		}
		retire(cur)
		cur = next
	}
	retire(cur)
	if extended == 0 || rebuilt == 0 || pastCap == 0 {
		t.Errorf("%d computations: %d extended a carried index, %d rebuilt one; %d steps past the cap; want all three",
			runs, extended, rebuilt, pastCap)
	}
	t.Logf("%d computations: %d extended a carried index, %d rebuilt one; %d steps past the cap", runs, extended, rebuilt, pastCap)
}

// Clones taken while eight readers compute discovery on the source — a
// cut under a sync wake's renders — never wait for them: a clone gets
// the index when no reader holds the memo, and starts without one
// otherwise. Either way it computes the reference, and so do the
// readers, whose changing minCount keeps them recomputing on an index
// that clones keep taking away.
func TestCloneDuringDiscovery(t *testing.T) {
	f := corpus(t)
	frozen := discoveryEngine(t, Options{Categories: f.gen.CategoryDB(), Consensus: f.gen.Consensus()})
	const base, round, clones = 60_000, 300, 16
	for i := range f.records[:base] {
		frozen.Observe(&f.records[i])
	}
	wants := map[uint64]Discovery{}
	for minCount := uint64(1); minCount <= 4; minCount++ {
		wants[minCount] = discoverFiltersReference(frozen, minCount)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				minCount := uint64(1 + i%4)
				if got := frozen.DiscoverFilters(minCount); !reflect.DeepEqual(got, wants[minCount]) {
					t.Errorf("reader %d, minCount %d: discovery differs from the reference", g, minCount)
					return
				}
			}
		}(g)
	}
	carried := 0
	for c := 0; c < clones; c++ {
		n := frozen.Clone()
		if n.disc.idx != nil {
			carried++
		}
		recs := f.records[base+c*round : base+(c+1)*round]
		for i := range recs {
			n.Observe(&recs[i])
		}
		if got, want := n.DiscoverFilters(0), discoverFiltersReference(n, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("clone %d:\n got  %+v\n want %+v", c, got, want)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d of %d clones took the index", carried, clones)
}
