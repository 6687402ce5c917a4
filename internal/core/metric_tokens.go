package core

import (
	"slices"
	"strings"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// cappedCounter bounds a token vocabulary: once max distinct keys exist,
// only already-seen keys keep counting. max <= 0 means unbounded. The
// counter itself is left to the module's state declaration. In an engine
// over a base, the keys that exist are the base's and the counter's:
// fresh counts the counter's keys the base lacks.
type cappedCounter struct {
	counter *stats.Counter
	max     int
	base    *stats.Counter
	fresh   int
}

func (c *cappedCounter) add(tok string) {
	if c.max > 0 && c.len() >= c.max && c.count(tok) == 0 {
		return
	}
	n := c.counter.Len()
	c.counter.Add(tok)
	if c.base != nil && c.counter.Len() > n && c.base.Count(tok) == 0 {
		c.fresh++
	}
}

// len is the number of distinct keys over both layers.
func (c *cappedCounter) len() int {
	if c.base == nil {
		return c.counter.Len()
	}
	return c.base.Len() + c.fresh
}

// count is tok's count over both layers.
func (c *cappedCounter) count(tok string) uint64 {
	if c.base == nil {
		return c.counter.Count(tok)
	}
	return c.counter.Count(tok) + c.base.Count(tok)
}

// over makes base the layer the counter admits over (nil for none).
func (c *cappedCounter) over(base *stats.Counter) {
	c.base, c.fresh = base, 0
	if base != nil {
		c.fresh = c.counter.Over(base).Len() - base.Len()
	}
}

// tokensMetric accumulates the §5.4 keyword-discovery inputs: the
// allowed-URL and proxied-URL token vocabularies and the stored censored
// URLs. Tables 8–10 combine it with the domains module.
type tokensMetric struct {
	cx  *recordCtx
	opt *Options

	allowed      *cappedCounter
	proxied      *cappedCounter
	censoredURLs []censoredURL
	declared
}

func newTokensMetric(e *Engine) *tokensMetric {
	m := &tokensMetric{
		cx:      &e.cx,
		opt:     &e.opt,
		allowed: &cappedCounter{max: e.opt.maxTokens},
		proxied: &cappedCounter{},
	}
	m.declare("tokens",
		counterField{&m.allowed.counter}, counterField{&m.proxied.counter},
		censoredStoreField{m},
	)
	return m
}

func (m *tokensMetric) Observe(rec *logfmt.Record) {
	if m.cx.allowed && !m.cx.proxied {
		tokenizeRecord(rec, m.allowed.add)
	}
	if m.cx.proxied {
		tokenizeRecord(rec, m.proxied.add)
	}
	if rec.Exception == logfmt.ExPolicyDenied && m.opt.maxStoredCensoredURLs > 0 {
		max := m.opt.maxStoredCensoredURLs
		if len(m.censoredURLs) >= 2*max {
			m.censoredURLs = keepSmallestCensored(m.censoredURLs, max)
		}
		m.censoredURLs = append(m.censoredURLs, censoredURL{
			Domain: m.cx.Domain(), URL: rec.URL(), Host: rec.Host,
		})
	}
}

// over makes base's allowed vocabulary the layer its cap admits over
// (nil for none). The proxied vocabulary is not capped.
func (m *tokensMetric) over(base *tokensMetric) {
	if base == nil {
		m.allowed.over(nil)
		return
	}
	m.allowed.over(base.allowed.counter)
}

// censoredStoreField is the capped censored-URL store.
type censoredStoreField struct{ m *tokensMetric }

// view holds the base's entries, then the overlay's: the order a
// compaction merges them in, so a URL index built over the view stays a
// prefix of the compacted store.
func (f censoredStoreField) view(base, own field) {
	b, o := base.(censoredStoreField).m.censoredURLs, own.(censoredStoreField).m.censoredURLs
	f.m.censoredURLs = append(slices.Clip(b), o...)
}

func (f censoredStoreField) init() { f.m.censoredURLs = nil }

func (f censoredStoreField) merge(src field) {
	m, o := f.m, src.(censoredStoreField).m
	// A cut or a range read folds a few hundred segments in a row; the
	// engine sized the store for all of them first (MergeProjected).
	m.censoredURLs = append(m.censoredURLs, o.censoredURLs...)
	if len(m.censoredURLs) > m.opt.maxStoredCensoredURLs {
		m.censoredURLs = keepSmallestCensored(m.censoredURLs, m.opt.maxStoredCensoredURLs)
	}
}

// encode writes the store in its canonical sorted, capped form (the view
// every consumer reads), so the encoding is a pure function of the
// observed corpus even when the raw slice briefly holds up to 2x the cap
// between compactions.
func (f censoredStoreField) encode(w *statecodec.Writer) {
	urls := f.m.censored()
	w.Uvarint(uint64(len(urls)))
	for i := range urls {
		w.StringRef(urls[i].Domain)
		w.String(urls[i].URL)
		w.StringRef(urls[i].Host)
	}
}

func (f censoredStoreField) decode(r *statecodec.Reader) {
	n := r.Count()
	urls := make([]censoredURL, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		urls = append(urls, censoredURL{
			Domain: r.StringRef(), URL: r.String(), Host: r.StringRef(),
		})
	}
	f.m.censoredURLs = urls
}

// censored returns the store in its canonical form — sorted by
// (Domain, URL, Host) and truncated to the cap — which is the set every
// consumer reads (in this order, or unordered through censoredSet).
// Between compactions the raw slice may briefly hold up to 2x the cap;
// canonicalizing at the read boundary keeps the exposed
// set (and its order) a pure function of the observed corpus. It works
// on a copy: published snapshots are queried concurrently (serve's
// immutability contract), so a read must never reorder shared state.
func (m *tokensMetric) censored() []censoredURL {
	s := append([]censoredURL(nil), m.censoredURLs...)
	if max := m.opt.maxStoredCensoredURLs; max > 0 && len(s) > max {
		return keepSmallestCensored(s, max)
	}
	sortCensored(s)
	return s
}

// censoredSet returns the same entries as censored but in unspecified
// order, for consumers that read the store as a multiset (discovery).
// Within the cap that is the raw slice itself — no copy, no sort — so
// the result is read-only.
func (m *tokensMetric) censoredSet() []censoredURL {
	if max := m.opt.maxStoredCensoredURLs; max > 0 && len(m.censoredURLs) > max {
		return m.censored()
	}
	return m.censoredURLs
}

// keepSmallestCensored truncates the store to the max smallest entries
// under the (Domain, URL, Host) order. Selecting by value rather than by
// arrival makes the kept set a pure function of the observed multiset:
// each worker's store always contains the k smallest entries it has seen
// (Observe compacts at 2k, amortizing the sort), so any merge order or
// worker count converges on the k smallest of the whole corpus — unlike
// first-k-by-arrival, which depended on scheduler interleaving past the
// cap.
func keepSmallestCensored(s []censoredURL, max int) []censoredURL {
	if max < 0 {
		max = 0
	}
	sortCensored(s)
	return s[:max]
}

func sortCensored(s []censoredURL) {
	slices.SortFunc(s, func(a, b censoredURL) int {
		if c := strings.Compare(a.Domain, b.Domain); c != 0 {
			return c
		}
		if c := strings.Compare(a.URL, b.URL); c != 0 {
			return c
		}
		return strings.Compare(a.Host, b.Host)
	})
}
