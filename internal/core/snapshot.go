package core

// Clone returns an independent copy of e: records observed by either
// engine afterwards do not affect the other, which makes Clone the
// copy-on-swap snapshot primitive behind internal/serve's live store.
//
// A clone copies no state that e shares. An engine's state is a frozen
// base plus an overlay of its own modules (see Engine.base), and the
// clone shares e's base and copies only e's overlay, so it costs what
// the overlay holds plus one empty instance of each module. An engine
// without a base lends its own modules as the clone's base: they are
// frozen from then on, and e's next write first moves them to its own
// base and gives it fresh modules to write (unshare). Either way Clone
// only reads e's state, so readers of a published engine may run while
// it is cloned. Compact folds a grown overlay back into one state.
//
// The clone also takes over e's §5.4 URL index, so its first
// DiscoverFilters indexes only the URLs it stores after the copy. The
// index moves rather than being shared, since its owner extends it: a
// published engine never observes again.
//
// The shared Options databases (category DB, Tor consensus, title DB)
// are reference-shared — they are immutable after construction.
//
// The censored-URL store (Options.maxStoredCensoredURLs) keeps the k
// smallest entries by (Domain, URL, Host) — an order-independent
// selection — so clones agree with order-shuffled batch runs even past
// that cap. The token-vocabulary cap (maxTokenEntries) admits in
// observation order, counting the base's vocabulary with the overlay's,
// so a clone observing the rest of a stream admits what one engine
// observing all of it would; past the cap, equivalence holds only for
// identical observation orders, exactly as for parallel ingestion.
func (e *Engine) Clone() *Engine {
	n, err := NewEngine(e.opt, e.Metrics()...)
	if err != nil {
		// Unreachable: e.Metrics() only returns registered module names.
		panic("core: Clone: " + err.Error())
	}
	if e.base != nil {
		n.base = e.base
		n.mergeOwn(e)
	} else {
		if e.shared == nil {
			e.shared = &Engine{opt: e.opt, modules: e.modules, byName: e.byName}
		}
		n.base = e.shared
	}
	n.layer()
	// The clone's store starts as e's, base then overlay, so the URL
	// index e's discovery left behind is a prefix of it: hand it over.
	// A reader computing e's discovery holds the lock; the clone then
	// starts without an index rather than wait. e keeps its remembered
	// result.
	if e.disc.mu.TryLock() {
		n.disc.exact, n.disc.exactAt = e.exact(), n.version
		n.disc.idx, e.disc.idx = e.disc.idx, nil
		e.disc.mu.Unlock()
	}
	return n
}

// Compact folds e's base into e: afterwards e holds its whole state in
// modules of its own and has no base, so that its next clone shares all
// of it. It costs a merge of the whole state, what a Clone cost before
// engines had bases; the snapshot cut calls it once an overlay has grown
// past its replay budget, which keeps every read at most two layers deep
// and no overlay large. The logical state, and so the remembered §5.4
// result, does not change.
func (e *Engine) Compact() {
	if e.shared != nil {
		e.unshare()
	}
	if e.base == nil {
		return
	}
	base, overlay := e.base, e.byName
	if err := e.build(e.Metrics()); err != nil {
		panic("core: Compact: " + err.Error()) // unreachable, as in Clone
	}
	e.base = nil
	// Base first, as a view reads them: the censored-URL store keeps its
	// order, and with it the URL index.
	for _, m := range e.modules {
		dst := m.state()
		for _, from := range []Metric{base.byName[m.Name()], overlay[m.Name()]} {
			for i, f := range from.state() {
				dst[i].merge(f)
			}
		}
	}
	e.layer()
}

// unshare ends e's lending of its modules to its clones: they become
// e's base, and e gets fresh modules to write.
func (e *Engine) unshare() {
	e.base, e.shared = e.shared, nil
	if err := e.build(e.base.Metrics()); err != nil {
		panic("core: unshare: " + err.Error()) // unreachable, as in Clone
	}
	e.layer()
}

// layer points the modules that read their base while observing — the
// token vocabulary's cap counts both layers — at e's base, or at none.
func (e *Engine) layer() {
	m, ok := e.byName["tokens"].(*tokensMetric)
	if !ok {
		return
	}
	var base *tokensMetric
	if e.base != nil {
		base = e.base.byName["tokens"].(*tokensMetric)
	}
	m.over(base)
}

// view returns a read-only module of m's kind holding base ⊕ m, where m
// is e's own instance and e has a base. Each field is read through its
// kind's view when it has one, which shares both layers' storage (a
// counter, the user table, the censored-URL store); any other field is
// built by merging both layers into it, which costs that field's size.
// view is therefore for modules whose non-counter fields are small;
// results over large maps read the layers side by side (layers).
func view(e *Engine, m Metric) Metric {
	v := newModule(e, m.Name())
	base := e.base.byName[m.Name()].state()
	dst := v.state()
	for i, f := range m.state() {
		if fv, ok := dst[i].(viewer); ok {
			fv.view(base[i], f)
			continue
		}
		dst[i].merge(base[i])
		dst[i].merge(f)
	}
	return v
}

// eachUnion calls fn for each key of the union of one set field over a
// module's layers, the base's keys first, and returns their number. A
// nil fn only counts, which costs a probe per key of the overlay.
func eachUnion[M any, K comparable](parts []M, set func(M) map[K]struct{}, fn func(K)) int {
	base := set(parts[0])
	n := len(base)
	if fn != nil {
		for k := range base {
			fn(k)
		}
	}
	if len(parts) == 2 {
		for k := range set(parts[1]) {
			if _, dup := base[k]; !dup {
				n++
				if fn != nil {
					fn(k)
				}
			}
		}
	}
	return n
}

// newModule builds an empty instance of the named module for e.
func newModule(e *Engine, name string) Metric {
	for _, d := range moduleRegistry {
		if d.name == name {
			return d.build(e)
		}
	}
	panic("core: no module " + name)
}

// Clone returns an independent copy of the analyzer (see Engine.Clone).
func (a *Analyzer) Clone() *Analyzer { return &Analyzer{Engine: a.Engine.Clone()} }
