package core

import (
	"slices"
	"strings"

	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// SketchOptions switches the four cardinality-heavy modules (users,
// domains, subnets, tokens) from exact maps to bounded-memory sketches:
// HyperLogLog for distinct counts and Space-Saving top-k for frequency
// tables. With sketches enabled the engine's memory no longer grows with
// the key space — the trade is that those modules' results become
// estimates (marked approximate in rendered docs) while every other
// module stays byte-identical to exact mode.
type SketchOptions struct {
	// Enabled turns sketch mode on.
	Enabled bool
	// Precision is the HyperLogLog precision p (2^p registers,
	// ~1.04/sqrt(2^p) standard error). Default 12 (~1.6%).
	Precision uint8
	// TopK is the Space-Saving capacity per frequency table. Default 4096.
	TopK int
}

// DefaultSketchPrecision and DefaultSketchTopK are the -sketch defaults.
const (
	DefaultSketchPrecision = 12
	DefaultSketchTopK      = 4096
)

func (s *SketchOptions) defaults() {
	if !s.Enabled {
		return
	}
	if s.Precision == 0 {
		s.Precision = DefaultSketchPrecision
	}
	if s.TopK == 0 {
		s.TopK = DefaultSketchTopK
	}
}

// WithSketches returns a copy of the options with sketch mode enabled at
// the given HLL precision and top-k capacity (0 selects the defaults).
func (o Options) WithSketches(precision uint8, k int) Options {
	o.Sketches = SketchOptions{Enabled: true, Precision: precision, TopK: k}
	return o
}

// Sketched reports whether this engine runs the cardinality modules on
// sketches instead of exact maps.
func (e *Engine) Sketched() bool { return e.opt.Sketches.Enabled }

// SketchedModules lists the modules whose results become estimates in
// sketch mode.
var SketchedModules = []string{"users", "domains", "subnets", "tokens"}

// UsesSketchedModules reports whether the named experiment reads any
// module that sketch mode approximates.
func UsesSketchedModules(id string) bool {
	for _, m := range experimentModules[id] {
		for _, s := range SketchedModules {
			if m == s {
				return true
			}
		}
	}
	return false
}

// SketchSizes summarizes one module's live sketch footprint for the
// observability layer: retained Space-Saving entries vs. capacity, and
// the number of HyperLogLog sketches (each 2^precision registers).
type SketchSizes struct {
	TopKEntries  int
	TopKCapacity int
	HLLs         int
}

func (s *SketchSizes) add(o SketchSizes) {
	s.TopKEntries += o.TopKEntries
	s.TopKCapacity += o.TopKCapacity
	s.HLLs += o.HLLs
}

// SketchStats reports the live sketch footprint per module. It returns
// nil when the engine runs exact (nothing is sketched). The caller owns
// the map; internal/serve samples it on every /metrics scrape against
// the current snapshot engine.
func (e *Engine) SketchStats() map[string]SketchSizes {
	if !e.Sketched() {
		return nil
	}
	out := map[string]SketchSizes{}
	for _, m := range e.modules {
		for _, f := range m.state() {
			if sf, ok := f.(sketchable); ok {
				s := out[m.Name()]
				s.add(sf.sketchSizes())
				out[m.Name()] = s
			}
		}
	}
	return out
}

// kcounter is the counting abstraction behind the sketchable frequency
// tables: an exact stats.Counter, or a bounded Space-Saving
// top-k paired with a HyperLogLog for the distinct count. Observe paths
// write through the interface; result functions read estimates through
// it without knowing the mode.
type kcounter interface {
	Add(key string)
	AddN(key string, n uint64)
	// Count returns the key's exact count, or the sketch estimate
	// (0 when the sketch no longer tracks the key).
	Count(key string) uint64
	Total() uint64
	// Distinct returns the number of distinct keys (HLL estimate in
	// sketch mode).
	Distinct() uint64
	Top(k int) []stats.Entry
	// Each visits every tracked (key, count) pair — all keys exactly, or
	// the sketch's retained top-k — in unspecified order.
	Each(fn func(key string, n uint64))
	Merge(other kcounter)
	// encode writes the counter in its mode's layout; the section's
	// layout byte records which one is in the stream.
	encode(w *statecodec.Writer)
	// sketchSizes reports the sketch footprint (zero for exact).
	sketchSizes() SketchSizes
}

// newCounter builds the engine-appropriate kcounter.
func (e *Engine) newCounter() kcounter {
	if e.opt.Sketches.Enabled {
		return newSketchCounter(e.opt.Sketches)
	}
	return exactCounter{stats.NewCounter()}
}

// exactCounter adapts *stats.Counter to kcounter.
type exactCounter struct {
	*stats.Counter
}

func (c exactCounter) Distinct() uint64     { return uint64(c.Len()) }
func (c exactCounter) Merge(other kcounter) { c.Counter.Merge(other.(exactCounter).Counter) }
func (c exactCounter) Each(fn func(string, uint64)) {
	c.Counter.Each(fn)
}
func (c exactCounter) encode(w *statecodec.Writer) { encCounter(w, c.Counter) }
func (c exactCounter) sketchSizes() SketchSizes    { return SketchSizes{} }

// sketchCounter is the bounded-memory kcounter: Space-Saving for the
// frequency table, HyperLogLog for the distinct count, and an exact
// running total (a scalar, so it costs nothing to keep exact).
type sketchCounter struct {
	topk  *stats.TopK
	hll   *stats.HyperLogLog
	total uint64
}

func newSketchCounter(so SketchOptions) *sketchCounter {
	return &sketchCounter{
		topk: stats.NewTopK(so.TopK),
		hll:  stats.NewHyperLogLog(so.Precision),
	}
}

func (c *sketchCounter) Add(key string) { c.AddN(key, 1) }

func (c *sketchCounter) AddN(key string, n uint64) {
	c.topk.AddN(key, n)
	c.hll.Add(key)
	c.total += n
}

func (c *sketchCounter) Count(key string) uint64 {
	est, _, ok := c.topk.Estimate(key)
	if !ok {
		return 0
	}
	return est
}

func (c *sketchCounter) Total() uint64           { return c.total }
func (c *sketchCounter) Distinct() uint64        { return c.hll.Estimate() }
func (c *sketchCounter) Top(k int) []stats.Entry { return c.topk.Top(k) }

func (c *sketchCounter) Each(fn func(string, uint64)) {
	c.topk.EachEntry(func(key string, count, _ uint64) { fn(key, count) })
}

func (c *sketchCounter) sketchSizes() SketchSizes {
	return SketchSizes{TopKEntries: c.topk.Len(), TopKCapacity: c.topk.Capacity(), HLLs: 1}
}

func (c *sketchCounter) Merge(other kcounter) {
	o := other.(*sketchCounter)
	c.topk.Merge(o.topk)
	c.hll.Merge(o.hll)
	c.total += o.total
}

// --- sketch state codecs ---

// encHLL / decHLL code a HyperLogLog as precision + raw registers.
func encHLL(w *statecodec.Writer, h *stats.HyperLogLog) {
	w.Byte(h.Precision())
	w.Raw(h.Registers())
}

func decHLL(r *statecodec.Reader) *stats.HyperLogLog {
	p := r.Byte()
	if r.Err() != nil {
		return nil
	}
	if p < 4 || p > 16 {
		r.Failf("core: HLL precision %d out of [4, 16]", p)
		return nil
	}
	h, err := stats.RestoreHyperLogLog(p, r.Raw(1<<p))
	if r.Err() != nil {
		return nil
	}
	if err != nil {
		r.Failf("core: %v", err)
		return nil
	}
	return h
}

// encTopK / decTopK code a Space-Saving sketch as capacity plus the
// tracked (key, estimate, error-bound) triples in sorted key order.
func encTopK(w *statecodec.Writer, t *stats.TopK) {
	type ent struct {
		key        string
		count, err uint64
	}
	entries := make([]ent, 0, t.Len())
	t.EachEntry(func(key string, count, errBound uint64) {
		entries = append(entries, ent{key, count, errBound})
	})
	slices.SortFunc(entries, func(a, b ent) int { return strings.Compare(a.key, b.key) })
	w.Uvarint(uint64(t.Capacity()))
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.StringRef(e.key)
		w.Uvarint(e.count)
		w.Uvarint(e.err)
	}
}

func decTopK(r *statecodec.Reader) *stats.TopK {
	capacity := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if capacity == 0 || capacity > 1<<24 {
		r.Failf("core: top-k capacity %d out of range", capacity)
		return nil
	}
	t := stats.NewTopK(int(capacity))
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.StringRef()
		count := r.Uvarint()
		errBound := r.Uvarint()
		if r.Err() != nil {
			return t
		}
		if !t.SetEntry(key, count, errBound) {
			r.Failf("core: top-k state holds %d entries, capacity %d", n, capacity)
			return t
		}
	}
	return t
}

// encode / decSketchCounter code a sketchCounter.
func (c *sketchCounter) encode(w *statecodec.Writer) {
	w.Uvarint(c.total)
	encTopK(w, c.topk)
	encHLL(w, c.hll)
}

func decSketchCounter(r *statecodec.Reader) *sketchCounter {
	c := &sketchCounter{}
	c.total = r.Uvarint()
	c.topk = decTopK(r)
	c.hll = decHLL(r)
	return c
}

// decKCounterExact decodes an exact counter into the engine's counting
// mode: verbatim for an exact engine, replayed key by key into a fresh
// sketch for a sketched one.
func (e *Engine) decKCounterExact(r *statecodec.Reader) kcounter {
	if !e.opt.Sketches.Enabled {
		return exactCounter{decCounter(r)}
	}
	c := newSketchCounter(e.opt.Sketches)
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		c.AddN(k, r.Uvarint())
	}
	return c
}
