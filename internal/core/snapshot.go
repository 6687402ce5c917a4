package core

// Clone returns a deep, independent copy of e: a fresh engine with the
// same Options and module set, with e's state merged in. Records
// observed by e afterwards do not affect the clone, which makes Clone
// the copy-on-swap snapshot primitive behind internal/serve's live
// store. The clone also takes over e's §5.4 URL index, so its first
// DiscoverFilters indexes only the URLs it stores after the copy.
//
// Clone relies on the same contract as pipeline merging: module Merge
// implementations copy state out of their source instead of aliasing
// its maps or slices. The shared Options databases (category DB, Tor
// consensus, title DB) are reference-shared — they are immutable after
// construction.
//
// The censored-URL store (Options.maxStoredCensoredURLs) keeps the k
// smallest entries by (Domain, URL, Host) — an order-independent
// selection — so clones agree with order-shuffled batch runs even past
// that cap. The token-vocabulary cap (maxTokenEntries) still admits in
// observation order; equivalence past it holds only for identical
// observation orders, exactly as for parallel ingestion.
func (e *Engine) Clone() *Engine {
	n, err := NewEngine(e.opt, e.Metrics()...)
	if err != nil {
		// Unreachable: e.Metrics() only returns registered module names.
		panic("core: Clone: " + err.Error())
	}
	n.Merge(e)
	// The clone's store starts as e's, so the URL index e's discovery
	// left behind is a prefix of it: hand it over, so that the clone's
	// discovery indexes only what it observes next. It moves rather than
	// being shared, since its owner extends it. A reader computing e's
	// discovery holds the lock; the clone then starts without an index
	// rather than wait. e keeps its remembered result.
	if e.disc.mu.TryLock() {
		n.disc.idx, e.disc.idx = e.disc.idx, nil
		e.disc.mu.Unlock()
	}
	return n
}

// Clone returns a deep, independent copy of the analyzer.
func (a *Analyzer) Clone() *Analyzer { return &Analyzer{Engine: a.Engine.Clone()} }
