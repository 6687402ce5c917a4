package core

import (
	"fmt"
	"sort"
	"sync"

	"syriafilter/internal/categorydb"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// Metric is one self-contained analysis module: an accumulator for the
// state behind one slice of the paper's evaluation (a table, a figure, or
// a closely related group of them). Modules are independent — an Engine
// can run any subset — and mergeable, so they compose with the parallel
// pipeline, the time-window store and checkpoints alike.
type Metric interface {
	// Name returns the module's registry name (stable, lowercase).
	Name() string
	// Observe folds one record into the module. The record and the
	// engine's shared recordCtx are only valid for the duration of the
	// call.
	Observe(rec *logfmt.Record)
	// state returns the module's accumulated state as the typed fields
	// its constructor declared, in wire order (see field). The engine
	// merges, encodes and decodes a module through this list and
	// nothing else. Configuration reached through the engine's Options
	// is not state and is not declared.
	state() []field
}

// recordCtx caches per-record derived values shared across modules, so
// e.g. the registered domain is computed once per record no matter how
// many modules consume it. Cheap derivations are eager; allocating or
// scan-heavy ones are memoized on first use.
type recordCtx struct {
	rec      *logfmt.Record
	class    logfmt.Class
	censored bool
	allowed  bool
	proxied  bool
	slot     int64

	sampled    bool
	sampledSet bool
	domain     string
	domainSet  bool
	userKey    string
	userSet    bool
	ipv4       uint32
	isIP       bool
	ipSet      bool
	cat        categorydb.Category
	catSet     bool

	// catDB/catCache back HostCategory: the suffix walk in
	// categorydb.Classify costs several map probes per call, so the
	// engine keeps a bounded host -> category cache that collapses it to
	// one probe for the (heavily repeated) hosts of a real corpus.
	catDB    *categorydb.DB
	catCache map[string]categorydb.Category
}

// maxCatCache bounds the engine's host-category cache; a corpus with
// more distinct hosts just degrades to uncached Classify calls.
const maxCatCache = 1 << 16

func (c *recordCtx) reset(rec *logfmt.Record) {
	c.rec = rec
	c.class = rec.Class()
	c.censored = c.class == logfmt.ClassCensored
	c.allowed = c.class == logfmt.ClassAllowed
	c.proxied = rec.IsProxied()
	c.slot = rec.Time / SlotSeconds
	c.sampledSet = false
	c.domainSet = false
	c.userSet = false
	c.ipSet = false
	c.catSet = false
}

// Sampled reports the record's Dsample membership, hashed at most once.
func (c *recordCtx) Sampled() bool {
	if !c.sampledSet {
		c.sampled = sampleHit(c.rec)
		c.sampledSet = true
	}
	return c.sampled
}

// Domain returns the record's registered domain, computed at most once.
func (c *recordCtx) Domain() string {
	if !c.domainSet {
		c.domain = urlx.RegisteredDomain(c.rec.Host)
		c.domainSet = true
	}
	return c.domain
}

// UserKey returns the record's §4 user key, computed at most once.
func (c *recordCtx) UserKey() string {
	if !c.userSet {
		c.userKey = c.rec.UserKey()
		c.userSet = true
	}
	return c.userKey
}

// HostCategory classifies the record's host against the category DB,
// at most once per record and through the engine's host cache.
func (c *recordCtx) HostCategory() categorydb.Category {
	if !c.catSet {
		host := c.rec.Host
		cat, ok := c.catCache[host]
		if !ok {
			cat = c.catDB.Classify(host)
			if len(c.catCache) < maxCatCache {
				c.catCache[host] = cat
			}
		}
		c.cat = cat
		c.catSet = true
	}
	return c.cat
}

// IPv4 parses the host as an IPv4 literal, at most once.
func (c *recordCtx) IPv4() (uint32, bool) {
	if !c.ipSet {
		c.ipv4, c.isIP = urlx.ParseIPv4(c.rec.Host)
		c.ipSet = true
	}
	return c.ipv4, c.isIP
}

// sampleHit implements the deterministic 1-in-N Dsample membership.
func sampleHit(rec *logfmt.Record) bool {
	h := stats.Hash64(rec.Host) ^ uint64(rec.Time)*0x9e3779b97f4a7c15 ^ uint64(len(rec.Path))
	return h%sampleOneIn == 0
}

// moduleDef is one registry entry: a module name and its constructor.
// Constructors receive the engine so modules can share its Options and
// recordCtx.
type moduleDef struct {
	name  string
	build func(e *Engine) Metric
}

// moduleRegistry lists every metric module in canonical order. The order
// fixes Observe dispatch and the order modules merge in; Merge pairs
// modules by name.
var moduleRegistry = []moduleDef{
	{"datasets", func(e *Engine) Metric { return newDatasetsMetric(e) }},
	{"domains", func(e *Engine) Metric { return newDomainsMetric(e) }},
	{"ports", func(e *Engine) Metric { return newPortsMetric(e) }},
	{"timeseries", func(e *Engine) Metric { return newTimeseriesMetric(e) }},
	{"proxies", func(e *Engine) Metric { return newProxiesMetric(e) }},
	{"users", func(e *Engine) Metric { return newUsersMetric(e) }},
	{"categories", func(e *Engine) Metric { return newCategoriesMetric(e) }},
	{"redirects", func(e *Engine) Metric { return newRedirectsMetric(e) }},
	{"tokens", func(e *Engine) Metric { return newTokensMetric(e) }},
	{"countries", func(e *Engine) Metric { return newCountriesMetric(e) }},
	{"subnets", func(e *Engine) Metric { return newSubnetsMetric(e) }},
	{"osn", func(e *Engine) Metric { return newOSNMetric(e) }},
	{"facebook", func(e *Engine) Metric { return newFacebookMetric(e) }},
	{"tor", func(e *Engine) Metric { return newTorMetric(e) }},
	{"anonymizers", func(e *Engine) Metric { return newAnonymizersMetric(e) }},
	{"https", func(e *Engine) Metric { return newHTTPSMetric(e) }},
	{"bittorrent", func(e *Engine) Metric { return newBitTorrentMetric(e) }},
	{"gcache", func(e *Engine) Metric { return newGCacheMetric(e) }},
}

// AllMetrics returns every registered module name in canonical order.
func AllMetrics() []string {
	out := make([]string, len(moduleRegistry))
	for i, d := range moduleRegistry {
		out[i] = d.name
	}
	return out
}

// Engine composes metric modules: it derives the shared per-record
// context once, dispatches each record to every registered module, and
// merges module-by-module. A subset engine pays only for the modules the
// requested tables and figures need.
//
// An Engine is not safe for concurrent use; run one per pipeline worker
// and Merge. The one exception is reading: once its single writer has
// stopped (a published serve.Snapshot), any number of goroutines may
// call the result functions at once.
type Engine struct {
	opt     Options
	cx      recordCtx
	modules []Metric
	byName  map[string]Metric

	// base, when set, is a frozen engine this one's modules overlay: the
	// engine's state is base ⊕ modules, field by field under each kind's
	// merge. Writes go to the modules only. The base is shared with every
	// clone taken since it was made and has no base of its own.
	base *Engine
	// shared, when set, holds this engine's own modules as the base its
	// clones read (Clone of an engine without a base). The next write
	// moves them to base and gives the engine fresh modules to write.
	shared *Engine

	// version counts state mutations: Observe, Merge and UnmarshalState
	// bump it. It is a plain field because only the engine's single
	// writer touches it; readers of a frozen engine only compare it.
	version uint64
	disc    discoveryMemo
}

// discoveryMemo is the §5.4 result DiscoverFilters last computed, with
// the engine version and the effective minCount it was computed for; a
// differing version or minCount makes it stale. The effective minCount
// is never 0, so the zero memo matches no call. mu is the only part of
// an Engine reached by concurrent readers: it serialises them so that
// one computes and the rest reuse.
//
// idx is the engine's URL index: the one the last computation brought
// up to date, or the one merges put together from their sources'
// (MergeProjected). It has one owner at a time, which extends it only
// under its own mu; Clone moves it to the clone. exact records that idx
// held exactly the engine's store, in store order, at engine version
// exactAt: while the version has not moved since, a computation skips
// the prefix check, and a merge may append a source's index to it.
type discoveryMemo struct {
	mu       sync.Mutex
	version  uint64
	minCount uint64
	d        Discovery
	idx      *urlIndex
	exact    bool
	exactAt  uint64

	// Read by tests only: computations performed, and the index
	// refreshes that kept a non-empty index and extended it, or found
	// it was no prefix of the store and started it over.
	runs, extended, rebuilt int
}

// NewEngine builds an engine with the named modules, in registry order
// regardless of argument order. No names selects every module. Unknown
// names are an error.
func NewEngine(opt Options, metrics ...string) (*Engine, error) {
	opt.defaults()
	e := &Engine{opt: opt}
	e.cx.catDB = e.opt.Categories
	e.cx.catCache = make(map[string]categorydb.Category)
	if err := e.build(metrics); err != nil {
		return nil, err
	}
	return e, nil
}

// build gives e a fresh, empty instance of each named module (none
// selects every module), in registry order.
func (e *Engine) build(metrics []string) error {
	want := map[string]bool{}
	for _, name := range metrics {
		want[name] = true
	}
	e.modules, e.byName = nil, make(map[string]Metric)
	for _, d := range moduleRegistry {
		if len(metrics) > 0 && !want[d.name] {
			continue
		}
		m := d.build(e)
		e.modules = append(e.modules, m)
		e.byName[d.name] = m
		delete(want, d.name)
	}
	if len(metrics) > 0 && len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return fmt.Errorf("core: unknown metric modules %v (known: %v)", unknown, AllMetrics())
	}
	return nil
}

// Metrics returns the names of this engine's registered modules, in
// dispatch order.
func (e *Engine) Metrics() []string {
	out := make([]string, len(e.modules))
	for i, m := range e.modules {
		out[i] = m.Name()
	}
	return out
}

// Observe folds one record into every registered module.
func (e *Engine) Observe(rec *logfmt.Record) {
	if e.shared != nil {
		e.unshare()
	}
	e.version++
	e.cx.reset(rec)
	for _, m := range e.modules {
		m.Observe(rec)
	}
}

// Merge folds b into e. Both engines must carry the same module set and
// have been built with equivalent Options.
func (e *Engine) Merge(b *Engine) {
	if len(e.modules) != len(b.modules) {
		panic(fmt.Sprintf("core: merging engines with different module sets: %v vs %v", e.Metrics(), b.Metrics()))
	}
	e.MergeProjected(b)
}

// MergeProjected folds into e, one after the other, the modules e
// carries, taken by name from each source, which may carry more: the
// cost is that of e's modules only, so a reader that needs one module of
// a full engine builds e with that module alone. A module of e that a
// source lacks panics, as in Merge. Options must be equivalent.
//
// e's censored-URL store is sized for every source at once, and e's
// §5.4 URL index is carried through: while it holds exactly e's store,
// the index of each source that holds exactly its own is appended to it
// as the store appends the source's URLs, when both intern into one
// table (ShareURLIDs). A source without such an index ends the carry,
// and e's next DiscoverFilters indexes the rest.
func (e *Engine) MergeProjected(srcs ...*Engine) { e.merge(srcs, false) }

// MergeIndexed is MergeProjected for a read that will ask e for §5.4 (a
// range window): when e carries tokens, each source first brings its own
// URL index up to date with its store, indexing only the URLs it stored
// since it last did, so that e's index is the sources' end to end and
// e's DiscoverFilters costs its rounds alone. It writes the sources'
// indexes, so no other goroutine may merge or observe them meanwhile.
func (e *Engine) MergeIndexed(srcs ...*Engine) { e.merge(srcs, true) }

func (e *Engine) merge(srcs []*Engine, index bool) {
	if e.shared != nil {
		e.unshare()
	}
	j := e.startJoin(srcs, index)
	for _, b := range srcs {
		if b.base != nil {
			e.mergeOwn(b.base)
		}
		e.mergeOwn(b)
		j.add(e, b)
	}
	j.end(e)
	e.layer()
}

// mergeOwn folds b's own modules into e's, leaving b's base out.
func (e *Engine) mergeOwn(b *Engine) {
	e.version++
	for _, m := range e.modules {
		o := b.byName[m.Name()]
		if o == nil {
			panic(fmt.Sprintf("core: merging engines with different module sets: %v vs %v", e.Metrics(), b.Metrics()))
		}
		src := o.state()
		for i, f := range m.state() {
			f.merge(src[i])
		}
	}
}

// mod returns the named module as its concrete type, or panics with a
// message naming the result that needed it. Result functions call it so
// that asking a subset engine for a table it was not built for fails
// loudly instead of returning silently-empty rows.
//
// On an engine over a base it returns a view: a module of the same kind
// holding base ⊕ overlay, built for this one read (see view). Results
// whose modules hold large maps read the two layers side by side through
// layers instead, and a counter of such a module through layered.
func mod[T Metric](e *Engine, name, result string) T {
	m := own[T](e, name, result)
	if e.base != nil {
		return view(e, m).(T)
	}
	return m
}

// layers returns the named module's layers, base first: one for an
// engine without a base, two for one over a base. Its state is their sum
// under each field's merge.
func layers[T Metric](e *Engine, name, result string) []T {
	m := own[T](e, name, result)
	if e.base != nil {
		return []T{e.base.byName[name].(T), m}
	}
	return []T{m}
}

// layered reads one counter field of a module across the module's
// layers (see layers): the base's counter alone, or a view of the
// overlay's over it.
func layered[T Metric](parts []T, pick func(T) *stats.Counter) *stats.Counter {
	if len(parts) == 1 {
		return pick(parts[0])
	}
	return pick(parts[1]).Over(pick(parts[0]))
}

// own returns e's own instance of the named module, panicking as mod
// describes when e lacks it.
func own[T Metric](e *Engine, name, result string) T {
	m, ok := e.byName[name].(T)
	if !ok {
		panic(fmt.Sprintf("core: %s needs metric module %q, which this engine was built without (have %v)", result, name, e.Metrics()))
	}
	return m
}
