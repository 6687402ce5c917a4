package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// mapCounter is the Counter this package had before the dense table — a
// plain map and a full sort — kept as the oracle the table is diffed
// against.
type mapCounter struct {
	m map[string]uint64
	n uint64
}

func newMapCounter() *mapCounter { return &mapCounter{m: map[string]uint64{}} }

func (c *mapCounter) AddN(key string, n uint64) {
	c.m[key] += n
	c.n += n
}

func (c *mapCounter) Merge(o *mapCounter) {
	for k, v := range o.m {
		c.m[k] += v
	}
	c.n += o.n
}

func (c *mapCounter) Top(k int) []Entry {
	all := make([]Entry, 0, len(c.m))
	for key, n := range c.m {
		all = append(all, Entry{key, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// counterDiff drives a few Counters and their oracles through the same
// operations. Every operation checks the key it touched; the whole table
// is compared after a merge and whenever a counter's size lands on either
// side of a representation change (the scan-to-index switch, every index
// doubling).
type counterDiff struct {
	t testing.TB
	c []*Counter
	m []*mapCounter
}

func newCounterDiff(t testing.TB, n int) *counterDiff {
	d := &counterDiff{t: t}
	for i := 0; i < n; i++ {
		d.c = append(d.c, NewCounter())
		d.m = append(d.m, newMapCounter())
	}
	return d
}

// atBoundary reports whether n keys is the last size before, or the first
// size after, the table changes shape.
func atBoundary(n int) bool {
	if n == smallCounter || n == smallCounter+1 {
		return true
	}
	for size := minIndex; size*3/4 <= n; size <<= 1 {
		if full := size * 3 / 4; n == full || n == full+1 {
			return true
		}
	}
	return false
}

func (d *counterDiff) addN(i int, key string, n uint64) {
	d.t.Helper()
	before := d.c[i].Len()
	if n == 1 {
		d.c[i].Add(key)
	} else {
		d.c[i].AddN(key, n)
	}
	d.m[i].AddN(key, n)
	d.checkKey(i, key)
	if after := d.c[i].Len(); after != before && atBoundary(after) {
		d.checkAll(i)
	}
}

func (d *counterDiff) merge(dst, src int) {
	d.t.Helper()
	d.c[dst].Merge(d.c[src])
	d.m[dst].Merge(d.m[src])
	d.checkAll(dst)
}

func (d *counterDiff) reset(i int) {
	d.c[i], d.m[i] = NewCounter(), newMapCounter()
}

// rebuild replaces counter i with one CounterOf builds from its oracle's
// entries in ascending key order, the form a state decode hands it, and
// compares the two.
func (d *counterDiff) rebuild(i int) {
	d.t.Helper()
	keys := make([]string, 0, len(d.m[i].m))
	for key := range d.m[i].m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	counts := make([]uint64, len(keys))
	for j, key := range keys {
		counts[j] = d.m[i].m[key]
	}
	d.c[i] = CounterOf(keys, counts)
	d.checkAll(i)
}

func (d *counterDiff) checkKey(i int, key string) {
	d.t.Helper()
	checkKey(d.t, fmt.Sprintf("counter %d", i), d.c[i], d.m[i], key)
}

func (d *counterDiff) checkAll(i int) {
	d.t.Helper()
	checkAll(d.t, fmt.Sprintf("counter %d", i), d.c[i], d.m[i])
}

func (d *counterDiff) checkTop(i, k int) {
	d.t.Helper()
	sameEntries(d.t, fmt.Sprintf("counter %d: Top(%d)", i, k), d.c[i].Top(k), d.m[i].Top(k))
}

// checkView compares the view of counter own over counter base with the
// merge of their oracles.
func (d *counterDiff) checkView(own, base int) {
	d.t.Helper()
	m := newMapCounter()
	m.Merge(d.m[base])
	m.Merge(d.m[own])
	checkAll(d.t, fmt.Sprintf("counter %d over %d", own, base), d.c[own].Over(d.c[base]), m)
}

// checkKey compares c's count of key, its Len and its Total with m's.
func checkKey(t testing.TB, what string, c *Counter, m *mapCounter, key string) {
	t.Helper()
	if got, want := c.Count(key), m.m[key]; got != want {
		t.Fatalf("%s: Count(%q) = %d, oracle %d", what, key, got, want)
	}
	if c.Len() != len(m.m) || c.Total() != m.n {
		t.Fatalf("%s: Len=%d Total=%d, oracle %d %d", what, c.Len(), c.Total(), len(m.m), m.n)
	}
}

// checkAll compares the whole of c with m: every entry Each yields, the
// counts of those keys and of one c lacks, and Top.
func checkAll(t testing.TB, what string, c *Counter, m *mapCounter) {
	t.Helper()
	checkKey(t, what, c, m, "never-added")
	seen := make(map[string]bool, c.Len())
	c.Each(func(key string, n uint64) {
		if seen[key] {
			t.Fatalf("%s: Each yields %q twice", what, key)
		}
		seen[key] = true
		if want, ok := m.m[key]; !ok || n != want {
			t.Fatalf("%s: Each yields %q=%d, oracle %d (present %v)", what, key, n, want, ok)
		}
		if got := c.Count(key); got != n {
			t.Fatalf("%s: Count(%q) = %d, Each said %d", what, key, got, n)
		}
	})
	if len(seen) != len(m.m) {
		t.Fatalf("%s: Each yields %d keys, oracle holds %d", what, len(seen), len(m.m))
	}
	for _, k := range []int{0, 10} {
		sameEntries(t, fmt.Sprintf("%s: Top(%d)", what, k), c.Top(k), m.Top(k))
	}
}

// sameEntries fails the test at the first place got departs from want.
func sameEntries(t testing.TB, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returns %d entries, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s[%d] = %v, want %v", what, j, got[j], want[j])
		}
	}
}

// diffKey names key number id; key 0 is the empty string.
func diffKey(id int) string {
	if id == 0 {
		return ""
	}
	return "k" + strconv.Itoa(id)
}

func TestCounterMatchesMap(t *testing.T) {
	const (
		counters = 3
		steps    = 60000
		universe = 9000
	)
	rng := NewRand(25)
	d := newCounterDiff(t, counters)
	d.merge(0, 1) // empty into empty
	d.merge(0, 0) // empty into itself
	largest := 0
	for step := 0; step < steps; step++ {
		i := rng.Intn(counters)
		switch op := rng.Intn(10000); {
		case op < 30:
			d.merge(i, rng.Intn(counters)) // one in three is c.Merge(c)
		case op < 32:
			d.reset(i) // so that later merges meet an empty side
		case op < 1000:
			d.addN(i, diffKey(rng.Intn(universe)), uint64(rng.Intn(1000)))
		case op < 1100:
			d.checkKey(i, diffKey(rng.Intn(2*universe)))
		default:
			// The universe opens up with the step count, so a counter
			// grows through every boundary rather than jumping past them.
			d.addN(i, diffKey(rng.Intn(1+universe*step/steps)), 1)
		}
		largest = max(largest, d.c[i].Len())
	}
	if passed := 8192 * 3 / 4; largest <= passed {
		t.Errorf("largest counter of the walk held %d keys; it is meant to outgrow the 8192-slot index (%d)", largest, passed)
	}
	for i := 0; i < counters; i++ {
		d.checkAll(i)
		d.merge(i, i)
	}
	// The cases the random walk is not guaranteed to hit, by hand.
	d.reset(0)
	d.reset(1)
	d.merge(0, 2) // into empty, the copy path
	d.merge(2, 1) // of empty
	d.addN(1, "", 3)
	d.merge(1, 1)
	d.merge(1, 0)
	d.merge(0, 1)
}

func TestCounterTopMatchesFullSort(t *testing.T) {
	// Five distinct counts over a few hundred keys: almost every compare
	// Top makes is a tie on count, so the order rests on the key.
	rng := NewRand(4)
	d := newCounterDiff(t, 1)
	for id := 0; id < 300; id++ {
		d.addN(0, diffKey(id), uint64(1+rng.Intn(5)))
	}
	for k := 0; k <= d.c[0].Len()+1; k++ {
		d.checkTop(0, k)
	}
	d.checkTop(0, -1)
	// Ascending counts in insertion order: every entry displaces the
	// selection's current worst.
	d.reset(0)
	for id := 0; id < 500; id++ {
		d.addN(0, diffKey(id), uint64(id/3))
	}
	for k := 1; k <= maxSelectK+1; k++ {
		d.checkTop(0, k)
	}
}

// Insertion order is a property of the table, not of the counter: however
// the same counts were reached, Top reads the same.
func TestCounterTopIgnoresInsertionOrder(t *testing.T) {
	const keys = 1000
	rng := NewRand(9)
	counts := make([]uint64, keys)
	for i := range counts {
		counts[i] = uint64(1 + rng.Intn(20))
	}
	forward, backward, merged := NewCounter(), NewCounter(), NewCounter()
	halves := [2]*Counter{NewCounter(), NewCounter()}
	for i := 0; i < keys; i++ {
		forward.AddN(diffKey(i), counts[i])
		backward.AddN(diffKey(keys-1-i), counts[keys-1-i])
		halves[i%2].AddN(diffKey(i), counts[i]-1)
		halves[1-i%2].Add(diffKey(i))
	}
	merged.Merge(halves[1])
	merged.Merge(halves[0])
	for _, k := range []int{0, 10} {
		want := forward.Top(k)
		sameEntries(t, fmt.Sprintf("backward: Top(%d)", k), backward.Top(k), want)
		sameEntries(t, fmt.Sprintf("merged: Top(%d)", k), merged.Top(k), want)
	}
}

func TestCounterSteadyStateZeroAllocs(t *testing.T) {
	for _, keys := range []int{smallCounter, 1000} { // scanned, indexed
		c := NewCounter()
		for i := 0; i < keys; i++ {
			c.Add(diffKey(i))
		}
		key := diffKey(keys / 2)
		if avg := testing.AllocsPerRun(1000, func() { c.Add(key) }); avg != 0 {
			t.Errorf("Add (present key, %d keys) allocates %.2f allocs/op, want 0", keys, avg)
		}
	}

	// A fold whose destination has met every key — all but the first few
	// buckets of a cut — probes with the stored hashes and allocates
	// nothing, scanned or indexed.
	for _, keys := range []int{smallCounter, 1000} {
		src, dst := NewCounter(), NewCounter()
		for i := 0; i < keys; i++ {
			src.Add(diffKey(i))
			dst.Add(diffKey(keys - 1 - i))
		}
		if avg := testing.AllocsPerRun(100, func() { dst.Merge(src) }); avg != 0 {
			t.Errorf("Merge (every key present, %d keys) allocates %.2f allocs/op, want 0", keys, avg)
		}
		if want := uint64(102 * keys); dst.Len() != keys || dst.Total() != want {
			t.Errorf("after 101 merges of %d keys: Len=%d Total=%d, want %d %d", keys, dst.Len(), dst.Total(), keys, want)
		}
	}
}

// FuzzCounterVsMap reads its input as an operation stream over three
// counters: one opcode byte, then that operation's argument bytes. At
// the end it reads every ordered pair of counters as a view (Over).
func FuzzCounterVsMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 1, 0, 5, 0, 0}) // "" twice, merge, self-merge
	seq := make([]byte, 0, 3*40)
	for i := 0; i < 40; i++ { // forty distinct keys: through the index's first doublings
		seq = append(seq, 1, 0, byte(i))
	}
	f.Add(append(seq, 5, 2, 1, 5, 1, 1, 6, 1, 5, 1, 2, 7, 1, 9))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const counters = 3
		d := newCounterDiff(t, counters)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			op := next()
			i := op / 8 % counters
			switch op % 8 {
			case 0, 1, 2, 3:
				d.addN(i, diffKey(next()<<8|next()), 1)
			case 4:
				d.addN(i, diffKey(next()), uint64(next())<<8)
			case 5:
				d.merge(i, next()%counters)
			case 6:
				d.reset(i)
			case 7:
				d.checkKey(i, diffKey(next()))
				d.checkTop(i, next()%(maxSelectK+8))
			}
		}
		// Every ordered pair read as a view, a counter over itself too.
		for i := 0; i < counters; i++ {
			for j := 0; j < counters; j++ {
				d.checkView(i, j)
			}
		}
		for i := 0; i < counters; i++ {
			d.checkAll(i)
			d.rebuild(i)
		}
		// A built counter is a counter like any other: it grows, folds
		// and is folded from.
		d.addN(0, "after-rebuild", 1)
		d.merge(1, 0)
		d.merge(0, 2)
		d.merge(2, 2)
	})
}

func TestCounterOf(t *testing.T) {
	// Sizes on both sides of the scan-to-index switch and of the first
	// index doubling, each built, checked, then grown by Add past its
	// exact-size slices.
	for _, n := range []int{0, 1, smallCounter, smallCounter + 1, minIndex * 3 / 4, minIndex*3/4 + 1, 1000} {
		d := newCounterDiff(t, 1)
		for id := 0; id < n; id++ {
			d.m[0].AddN(diffKey(id), uint64(id%7+1))
		}
		d.rebuild(0)
		for id := n; id < n+20; id++ {
			d.addN(0, diffKey(id), 1)
		}
		d.addN(0, diffKey(n/2), 5)
		d.checkAll(0)
	}
}

// zipfKeys draws n keys from a Zipf(1.1) law over a shared universe of
// interned strings, the shape of a domain or token stream.
func zipfKeys(z *Zipf, rng *Rand, universe []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = universe[z.Rank(rng)]
	}
	return out
}

// benchUniverse returns n host-like keys and the Zipf law over them.
func benchUniverse(b *testing.B, n int) ([]string, *Zipf) {
	u := make([]string, n)
	for i := range u {
		u[i] = fmt.Sprintf("host-%d.example.com", i)
	}
	z, err := NewZipf(n, 1.1)
	if err != nil {
		b.Fatal(err)
	}
	return u, z
}

var benchSink int

// BenchmarkCounterAdd is the observe side: a long-tailed stream against a
// counter that already holds most of what arrives.
func BenchmarkCounterAdd(b *testing.B) {
	universe, z := benchUniverse(b, 50000)
	keys := zipfKeys(z, NewRand(1), universe, 1<<16)
	c := NewCounter()
	for _, k := range keys {
		c.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(keys[i&(len(keys)-1)])
	}
	benchSink = c.Len()
}

// BenchmarkCounterMerge is the fold a snapshot cut or a range read runs:
// many source counters into one fresh destination. tiny is 432 counters
// that never left scan mode (a TLD or label table per hour bucket);
// bucket is 432 hour-bucket-sized slices of one long-tailed table (216
// buckets x 2 shards on the ledger corpus); all is two whole-capture
// counters, the shape of a tail or of shard totals.
func BenchmarkCounterMerge(b *testing.B) {
	for _, bc := range []struct {
		name              string
		sources, draws, u int
	}{
		{"tiny", 432, 6, 12},
		{"bucket", 432, 2500, 60000},
		{"all", 2, 500000, 60000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := NewRand(2)
			universe, z := benchUniverse(b, bc.u)
			srcs := make([]*Counter, bc.sources)
			entries := 0
			for i := range srcs {
				srcs[i] = NewCounter()
				for _, k := range zipfKeys(z, rng, universe, bc.draws) {
					srcs[i].Add(k)
				}
				entries += srcs[i].Len()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := NewCounter()
				for _, s := range srcs {
					dst.Merge(s)
				}
				benchSink = dst.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		})
	}
}

// BenchmarkCounterTop is the handler side: ten rows out of a table of a
// hundred thousand.
func BenchmarkCounterTop(b *testing.B) {
	c := NewCounter()
	universe, z := benchUniverse(b, 100000)
	for _, k := range zipfKeys(z, NewRand(3), universe, 1<<20) {
		c.Add(k)
	}
	b.Run("k=10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = len(c.Top(10))
		}
	})
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Add("a")
	c.AddN("b", 3)
	c.Add("a")
	if got := c.Count("a"); got != 2 {
		t.Errorf("Count(a) = %d", got)
	}
	if got := c.Count("b"); got != 3 {
		t.Errorf("Count(b) = %d", got)
	}
	if got := c.Count("missing"); got != 0 {
		t.Errorf("Count(missing) = %d", got)
	}
	if c.Total() != 5 || c.Len() != 2 {
		t.Errorf("Total=%d Len=%d", c.Total(), c.Len())
	}
}

func TestCounterMerge(t *testing.T) {
	a, b := NewCounter(), NewCounter()
	a.AddN("x", 2)
	b.AddN("x", 3)
	b.AddN("y", 1)
	a.Merge(b)
	if a.Count("x") != 5 || a.Count("y") != 1 || a.Total() != 6 {
		t.Errorf("merged counter wrong: x=%d y=%d total=%d", a.Count("x"), a.Count("y"), a.Total())
	}
}

func TestCounterTopOrderingDeterministic(t *testing.T) {
	c := NewCounter()
	c.AddN("zeta", 5)
	c.AddN("alpha", 5)
	c.AddN("mid", 7)
	top := c.Top(3)
	if top[0].Key != "mid" || top[1].Key != "alpha" || top[2].Key != "zeta" {
		t.Errorf("Top order = %v", top)
	}
}

func TestCounterTopLimits(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 10; i++ {
		c.AddN(fmt.Sprintf("k%d", i), uint64(i+1))
	}
	if got := len(c.Top(3)); got != 3 {
		t.Errorf("Top(3) len = %d", got)
	}
	if got := len(c.Top(0)); got != 10 {
		t.Errorf("Top(0) len = %d", got)
	}
	if got := len(c.Top(100)); got != 10 {
		t.Errorf("Top(100) len = %d", got)
	}
}

// A view reads base ⊕ own as the counter both merged into: every count,
// the total, the size, the entries and every Top, for own keys the base
// holds and keys it lacks, and for bases on either side of the index.
// Merging a view folds both layers.
func TestCounterOverMatchesMerge(t *testing.T) {
	rng := NewRand(14)
	for _, size := range []struct{ base, own int }{{0, 0}, {5, 3}, {0, 40}, {300, 0}, {300, 7}, {2000, 500}} {
		base, own := NewCounter(), NewCounter()
		for i := 0; i < size.base; i++ {
			base.AddN(diffKey(rng.Intn(2*size.base+1)), uint64(1+rng.Intn(9)))
		}
		for i := 0; i < size.own; i++ {
			own.AddN(diffKey(rng.Intn(3*size.base+size.own+1)), uint64(1+rng.Intn(9)))
		}
		want := NewCounter()
		want.Merge(base)
		want.Merge(own)
		v := own.Over(base)
		if v.Total() != want.Total() || v.Len() != want.Len() {
			t.Fatalf("%+v: total %d, len %d; want %d, %d", size, v.Total(), v.Len(), want.Total(), want.Len())
		}
		got := map[string]uint64{}
		v.Each(func(k string, n uint64) {
			if _, dup := got[k]; dup {
				t.Fatalf("%+v: Each yields %q twice", size, k)
			}
			got[k] = n
		})
		if len(got) != want.Len() {
			t.Fatalf("%+v: Each yields %d keys, want %d", size, len(got), want.Len())
		}
		for id := 0; id < 4*size.base+size.own+2; id++ {
			k := diffKey(id)
			if v.Count(k) != want.Count(k) || got[k] != want.Count(k) {
				t.Fatalf("%+v: %q counts %d (Each %d), want %d", size, k, v.Count(k), got[k], want.Count(k))
			}
		}
		for _, k := range []int{0, 1, 3, 10, maxSelectK, maxSelectK + 1, want.Len(), want.Len() + 1} {
			if g, w := v.Top(k), want.Top(k); !reflect.DeepEqual(g, w) {
				t.Fatalf("%+v: Top(%d) = %v, want %v", size, k, g, w)
			}
		}
		folded := NewCounter()
		folded.Merge(v)
		if !reflect.DeepEqual(folded.Top(0), want.Top(0)) || folded.Total() != want.Total() {
			t.Fatalf("%+v: merging a view differs from merging both layers", size)
		}
	}
}
