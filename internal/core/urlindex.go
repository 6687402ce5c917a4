package core

import (
	"slices"
	"strings"
	"sync"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/urlx"
)

// urlIndex is the part of §5.4 that depends on each stored censored URL
// alone: its lowered form and that form's bigrams, its registered
// domain, host and TLD, whether its host is an IP literal, and its
// deduplicated tokens with their (token, registered domain) pairs, each
// interned to an id of the index's table (urlIDs). What does change
// between engine states — which TLDs are blocked, which tokens the
// allowed vocabulary vetoes, every count — is evaluated by each
// computation and never written into the index.
//
// An index is built once and then brought up to date by indexing only
// the URLs stored since (extend). It moves into a clone with
// Engine.Clone, so a snapshot that extends the previous one tokenises
// only the URLs its records added. It is also carried through merges:
// when the destination's and the source's indexes each hold exactly
// their engine's store and intern into one table, MergeProjected
// appends the source's entries as the store appends the source's URLs
// (join), which is a copy. censord builds every engine of a store from
// one table (ShareURLIDs), and each hourly segment indexes its own URLs
// when a range read first merges it (MergeIndexed), so a range window's
// index is its segments' indexes end to end and its discovery costs only
// the rounds. An index built for one engine alone (censorlyzer) interns
// into a table of its own.
type urlIndex struct {
	ids *urlIDs
	// urls holds one entry per stored URL the index covers, in store
	// order.
	urls []indexedURL
	// tokArena holds every URL's token ids back to back, and pairArena
	// the matching pair ids at the same positions.
	tokArena, pairArena []int32
	// dom, host and tld hold each URL's registered-domain, host and TLD
	// ids, in urls' order.
	dom, host, tld []int32
}

// indexedURL is what the index derives from one stored URL.
type indexedURL struct {
	key      censoredURL
	lower    string  // strings.ToLower(URL): what a keyword is matched against
	grams    bigrams // of lower
	ip       bool    // IP-literal host: the IP analysis owns it, never residue
	off, end int32   // tokArena[off:end]
}

// urlIDs is the table URL indexes intern into: tokens, registered
// domains, hosts, TLDs and (token, registered domain) pairs, each to a
// dense id in first-seen order. A table shared by a store's engines is
// used from several goroutines at once — shards index their segments in
// parallel while readers compute discovery — so it is only touched
// under mu: extend holds it while it interns, and a reader takes the
// key lists under it once. The lists only grow by appending, so the
// entries a reader took never change under it. The table never shrinks:
// it holds every key its indexes ever interned.
type urlIDs struct {
	mu                      sync.Mutex
	toks, doms, hosts, tlds interner
	pairs                   map[uint64]int32 // tok<<32 | dom -> pair id

	// scratch holds *[]int32s that are zero everywhere, for renumber.
	scratch sync.Pool
}

// ShareURLIDs returns opt with a new §5.4 URL id table, which every
// engine built from the result interns into. Engines that share a table
// carry their URL indexes through merges (see MergeProjected): censord
// builds all the engines of a store from one, so that a range window's
// discovery joins its segments' indexes instead of tokenising their
// URLs again. Without one, each engine's index has a table of its own.
func ShareURLIDs(opt Options) Options {
	opt.urlIDs = new(urlIDs)
	return opt
}

// interner maps strings to dense ids in first-seen order.
type interner struct {
	ids  map[string]int32
	keys []string
}

// id returns k's id.
func (in *interner) id(k string) int32 {
	if id, ok := in.ids[k]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]int32)
	}
	id := int32(len(in.keys))
	in.ids[k] = id
	in.keys = append(in.keys, k)
	return id
}

// bigrams is a 128-bit signature of the adjacent byte pairs of a
// string: each pair sets one bit. If s contains t, every bit of t's
// signature is set in s's.
type bigrams [2]uint64

func bigramsOf(s string) bigrams {
	var g bigrams
	for i := 1; i < len(s); i++ {
		bit := (uint32(s[i-1])<<8 | uint32(s[i])) * 0x9e3779b1 >> 25
		g[bit>>6] |= 1 << (bit & 63)
	}
	return g
}

// covers reports whether every bit of h is set in g.
func (g bigrams) covers(h bigrams) bool {
	return g[0]&h[0] == h[0] && g[1]&h[1] == h[1]
}

// extend indexes the URLs of stored past the index's entries, which
// must be a prefix of stored (prefixOf).
func (x *urlIndex) extend(stored []censoredURL) {
	kept := len(x.urls)
	if kept == len(stored) {
		return
	}
	ids := x.ids
	ids.mu.Lock()
	defer ids.mu.Unlock()
	if ids.pairs == nil {
		ids.pairs = make(map[uint64]int32)
	}
	// Size urls for the suffix at once, and the arenas for about four
	// tokens a URL (what a synth corpus stores); past that they grow by
	// reserve's steps. append's 1.25x steps would copy a cold build's
	// slices several times over, garbage that showed in censorlyzer's
	// peak RSS, and a fixed floor would idle in every small segment's
	// index. reserve, not slices.Grow, so that whether a carried
	// extension copies the arrays does not hang on the size-class slack
	// a cold build happened to leave.
	n := len(stored) - kept
	x.urls = reserve(x.urls, n)
	x.dom, x.host, x.tld = reserve(x.dom, n), reserve(x.host, n), reserve(x.tld, n)
	x.tokArena = reserve(x.tokArena, 4*n)
	x.pairArena = reserve(x.pairArena, 4*n)
	var u *indexedURL
	tally := func(tok string) {
		t := ids.toks.id(tok)
		if slices.Contains(x.tokArena[u.off:], t) {
			return
		}
		key := uint64(t)<<32 | uint64(x.dom[len(x.dom)-1])
		p, ok := ids.pairs[key]
		if !ok {
			p = int32(len(ids.pairs))
			ids.pairs[key] = p
		}
		x.tokArena = reserve(x.tokArena, 1)
		x.pairArena = reserve(x.pairArena, 1)
		x.tokArena = append(x.tokArena, t)
		x.pairArena = append(x.pairArena, p)
	}
	for _, cu := range stored[kept:] {
		lower := strings.ToLower(cu.URL)
		x.dom = append(x.dom, ids.doms.id(cu.Domain))
		x.host = append(x.host, ids.hosts.id(cu.Host))
		x.tld = append(x.tld, ids.tlds.id(urlx.TLD(cu.Host)))
		x.urls = append(x.urls, indexedURL{
			key:   cu,
			lower: lower,
			grams: bigramsOf(lower),
			ip:    urlx.IsIPv4(cu.Host),
			off:   int32(len(x.tokArena)),
		})
		u = &x.urls[len(x.urls)-1]
		if !u.ip {
			// Tokens are cut from the stored URL's segments, not from
			// lower: ToLower maps some non-ASCII sequences to ASCII
			// letters, which would invent tokens.
			rec := logfmt.Record{Host: cu.Host, Path: pathOf(cu.URL, cu.Host), Query: queryOf(cu.URL)}
			tokenizeRecord(&rec, tally)
		}
		u.end = int32(len(x.tokArena))
	}
}

// prefixOf reports whether the index's entries are the first entries of
// stored. The strings of a URL a clone merged in share their bytes with
// the source's, so the comparison is mostly pointer checks.
func (x *urlIndex) prefixOf(stored []censoredURL) bool {
	if len(x.urls) > len(stored) {
		return false
	}
	for i := range x.urls {
		if stored[i] != x.urls[i].key {
			return false
		}
	}
	return true
}

// join appends o's entries to x's. Both intern into one table.
func (x *urlIndex) join(o *urlIndex) {
	off := int32(len(x.tokArena))
	x.tokArena = append(x.tokArena, o.tokArena...)
	x.pairArena = append(x.pairArena, o.pairArena...)
	x.dom, x.host, x.tld = append(x.dom, o.dom...), append(x.host, o.host...), append(x.tld, o.tld...)
	n := len(x.urls)
	x.urls = append(x.urls, o.urls...)
	for i := range x.urls[n:] {
		u := &x.urls[n+i]
		u.off += off
		u.end += off
	}
}

// localIDs is what one discovery reads an index through: its ids
// renumbered densely, with each one's key. An index that touches about
// as many ids as its table holds — every index over a table of its own,
// and the snapshot's, which holds the whole store — keeps its ids. Any
// other, a range window's over the store's table, gets ids of its own in
// first-seen order over its entries, so that what a discovery allocates
// and visits is what the index touches, not the whole table.
type localIDs struct {
	tok, pair               []int32 // per arena position; read-only
	dom, host, tld          []int32 // per URL; read-only
	toks, doms, hosts, tlds []string
	pairs                   int
}

func (x *urlIndex) local() localIDs {
	ids := x.ids
	ids.mu.Lock()
	toks, doms, hosts, tlds := ids.toks.keys, ids.doms.keys, ids.hosts.keys, ids.tlds.keys
	pairs := len(ids.pairs)
	ids.mu.Unlock()
	l := localIDs{tok: x.tokArena, pair: x.pairArena, dom: x.dom, host: x.host, tld: x.tld}
	if len(x.tokArena) >= max(len(toks), pairs) && len(x.urls) >= max(len(doms), len(hosts), len(tlds)) {
		l.toks, l.doms, l.hosts, l.tlds, l.pairs = toks, doms, hosts, tlds, pairs
		return l
	}
	n := max(len(toks), len(doms), len(hosts), len(tlds), pairs)
	seen, _ := ids.scratch.Get().(*[]int32)
	if seen == nil || len(*seen) < n {
		s := make([]int32, n+n/4)
		seen = &s
	}
	defer ids.scratch.Put(seen)
	l.tok, l.pair = slices.Clone(x.tokArena), slices.Clone(x.pairArena)
	l.dom, l.host, l.tld = slices.Clone(x.dom), slices.Clone(x.host), slices.Clone(x.tld)
	l.toks = keysOf(toks, renumber(l.tok, *seen))
	l.pairs = len(renumber(l.pair, *seen))
	l.doms = keysOf(doms, renumber(l.dom, *seen))
	l.hosts = keysOf(hosts, renumber(l.host, *seen))
	l.tlds = keysOf(tlds, renumber(l.tld, *seen))
	return l
}

// renumber rewrites ids in place as dense ids in first-seen order and
// returns the id each one replaced. seen must be zero at every id, and
// is left so.
func renumber(ids, seen []int32) (orig []int32) {
	for i, g := range ids {
		l := seen[g]
		if l == 0 {
			orig = append(orig, g)
			l = int32(len(orig))
			seen[g] = l
		}
		ids[i] = l - 1
	}
	for _, g := range orig {
		seen[g] = 0
	}
	return orig
}

func keysOf(keys []string, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = keys[id]
	}
	return out
}

// storedLen is the number of URLs in e's censored-URL store, over its
// layers. e carries tokens.
func storedLen(e *Engine) int {
	n := len(e.byName["tokens"].(*tokensMetric).censoredURLs)
	if e.base != nil {
		n += len(e.base.byName["tokens"].(*tokensMetric).censoredURLs)
	}
	return n
}

// exact reports whether e's index holds exactly e's stored URLs, in
// store order. The caller holds e.disc.mu or is e's writer.
func (e *Engine) exact() bool {
	m := &e.disc
	return m.idx != nil && m.exact && m.exactAt == e.version
}

// refreshIndex brings e's index up to date with its store, unless it is
// known to be, and returns it. Its entries are kept when they are a
// prefix of the store, URL by URL, and only the suffix is indexed;
// otherwise — after compaction past the cap, UnmarshalState or any
// reordering — the index starts over. tm is e's tokens module as mod
// returns it; the caller holds e.disc.mu.
func (e *Engine) refreshIndex(tm *tokensMetric) *urlIndex {
	m := &e.disc
	if e.exact() {
		return m.idx
	}
	stored := tm.censoredSet()
	switch {
	case m.idx == nil || !m.idx.prefixOf(stored):
		if m.idx != nil && len(m.idx.urls) > 0 {
			m.rebuilt++
		}
		ids := e.opt.urlIDs
		if ids == nil {
			ids = new(urlIDs)
		}
		m.idx = &urlIndex{ids: ids}
	case len(m.idx.urls) > 0:
		m.extended++
	}
	m.idx.extend(stored)
	// Past the cap censoredSet is a compacted copy, which the raw store
	// does not start with.
	m.exact, m.exactAt = len(stored) == storedLen(e), e.version
	return m.idx
}

// joining carries an engine's URL index through one merge: while the
// index holds exactly the store, each source whose index holds exactly
// its own store has its entries appended as its URLs are (see
// MergeProjected).
type joining struct {
	tokens bool // the engine carries tokens; nothing to do otherwise
	n      int  // the engine's stored URLs so far
	ok     bool // the index holds exactly those
}

// startJoin readies e's index for merging srcs — indexing each source
// first when index is set — and sizes e's store, and its index when it
// can be carried, for all of them at once.
func (e *Engine) startJoin(srcs []*Engine, index bool) joining {
	tm, ok := e.byName["tokens"].(*tokensMetric)
	if !ok {
		return joining{}
	}
	j := joining{tokens: true, n: storedLen(e)}
	switch {
	case e.opt.urlIDs == nil:
		// Indexes of their own tables cannot be joined.
	case j.n == 0:
		// An empty store is held by an empty index, whatever this one
		// held before.
		e.disc.idx = &urlIndex{ids: e.opt.urlIDs}
		j.ok = true
	default:
		j.ok = e.exact()
	}
	// Size for every source, but index, and size the index for, only
	// those the carry reaches: it stops at the first source without an
	// index that holds its store.
	carry := j.ok
	var urls, toks, stored int
	for _, b := range srcs {
		if _, ok := b.byName["tokens"].(*tokensMetric); !ok {
			continue // mergeOwn panics naming the module sets
		}
		n := storedLen(b)
		stored += n
		if n == 0 || !carry {
			continue
		}
		if index {
			b.disc.mu.Lock()
			b.refreshIndex(mod[*tokensMetric](b, "tokens", "MergeIndexed"))
			b.disc.mu.Unlock()
		}
		if !b.disc.mu.TryLock() {
			carry = false
			continue
		}
		if carry = b.exact(); carry {
			urls += len(b.disc.idx.urls)
			toks += len(b.disc.idx.tokArena)
		}
		b.disc.mu.Unlock()
	}
	tm.censoredURLs = reserve(tm.censoredURLs, stored)
	if urls > 0 {
		x := e.disc.idx
		x.urls = reserve(x.urls, urls)
		x.dom, x.host, x.tld = reserve(x.dom, urls), reserve(x.host, urls), reserve(x.tld, urls)
		x.tokArena = reserve(x.tokArena, toks)
		x.pairArena = reserve(x.pairArena, toks)
	}
	return j
}

// reserve makes room in s for n more elements: at least n, and at least
// half as many as s holds, so that a run of merges into one engine (a
// tail taking bucket after bucket) copies s a logarithmic number of
// times, while two shards' turns at one window cost one exact growth
// each. It sizes the copy itself: slices.Grow would round a large one up
// by append's growth steps, past what was asked for.
func reserve[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make(S, 0, len(s)+max(n, len(s)/2)), s...)
}

// add follows e's merge of b: b's index joins e's when both hold
// exactly their stores and the store took b's URLs without compacting.
func (j *joining) add(e, b *Engine) {
	if !j.tokens {
		return
	}
	nb, n := storedLen(b), storedLen(e)
	j.ok = j.ok && n == j.n+nb && (nb == 0 || e.joinIndex(b))
	j.n = n
}

// joinIndex appends b's index to e's, which holds exactly e's store
// before b's URLs and interns into e's Options' table, and reports
// whether it could: b's index must hold exactly b's store, and intern
// into the same table. A reader computing b's discovery holds b's index;
// e then does without it rather than wait, as a clone does.
func (e *Engine) joinIndex(b *Engine) bool {
	if !b.disc.mu.TryLock() {
		return false
	}
	defer b.disc.mu.Unlock()
	if !b.exact() || b.disc.idx.ids != e.disc.idx.ids {
		return false
	}
	e.disc.idx.join(b.disc.idx)
	return true
}

// end records whether e's index holds exactly its store after the merge.
func (j *joining) end(e *Engine) {
	if j.tokens {
		e.disc.exact, e.disc.exactAt = j.ok, e.version
	}
}
