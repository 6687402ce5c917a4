package serve

import (
	"container/list"
	"sync"

	"syriafilter/internal/render"
)

// DefaultDocCacheBytes is the rendered-doc cache budget when the
// embedder sets none (WithDocCacheBytes overrides, 0 disables); censord
// always runs with it. Sized
// for every experiment in both formats across a few generations plus a
// working set of range windows — tens of MB against render costs in
// the milliseconds.
const DefaultDocCacheBytes int64 = 64 << 20

// docKey identifies one cached response variant at one generation (see
// read.go), which is what makes the cache invalidation-free: stale keys
// are never wrong, merely unreachable, and the LRU sweep reclaims them.
type docKey struct {
	gen    uint64
	id     string
	window string // "" for snapshot docs, "from:to:step" for ranges
	format string // "json" or "text"
	gzip   bool
}

// docEntry is one cached response: the exact bytes a fresh render
// would produce (the byte-identity invariant TestDocCacheByteIdentity
// pins), the response headers that describe them (X-Range-*), and —
// for plain JSON doc entries — the rendered Doc itself so /v1/sync can
// row-diff consecutive generations without re-rendering.
type docEntry struct {
	body    []byte
	headers [][2]string
	doc     *render.Doc

	key  docKey
	size int64
}

// docCacheOverhead approximates the per-entry bookkeeping (map slot,
// list element, struct) charged against the byte budget.
const docCacheOverhead = 160

// docCache is a byte-bounded LRU of rendered responses. A nil
// *docCache is a disabled cache: get always misses (uncounted), put is
// a no-op — so the serving paths carry no "is caching on" branches.
type docCache struct {
	max int64
	m   *readMetrics // the cache's instruments: hits, misses, evictions

	mu      sync.Mutex
	entries map[docKey]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
}

func newDocCache(maxBytes int64, m *readMetrics) *docCache {
	if maxBytes <= 0 {
		return nil
	}
	return &docCache{max: maxBytes, m: m, entries: map[docKey]*list.Element{}, lru: list.New()}
}

// get returns the cached entry for k, or nil on a miss. Entries are
// immutable after put; callers may write e.body straight to the wire.
func (c *docCache) get(k docKey) *docEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.m.cacheMisses.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	c.m.cacheHits.Inc()
	return el.Value.(*docEntry)
}

// put stores e under k and evicts from the cold end until the byte
// budget holds. Concurrent renders of the same key can race here; the
// incumbent wins — by the monotonic-generation argument both bodies
// are byte-identical, so nothing is lost.
func (c *docCache) put(k docKey, e *docEntry) {
	if c == nil {
		return
	}
	e.key = k
	e.size = int64(len(e.body)+len(k.id)+len(k.window)+len(k.format)) + docCacheOverhead
	for _, h := range e.headers {
		e.size += int64(len(h[0]) + len(h[1]))
	}
	if e.size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.max {
		el := c.lru.Back()
		old := el.Value.(*docEntry)
		c.lru.Remove(el)
		delete(c.entries, old.key)
		c.bytes -= old.size
		c.m.cacheEvictions.Inc()
	}
}
