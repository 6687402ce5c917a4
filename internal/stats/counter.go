package stats

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
)

// counterSeed keys every Counter's hash for the life of the process. Keys
// are attacker-supplied (hostnames and URL tokens arriving over the ingest
// endpoint), so the hash is seeded at random: a fixed function would let a
// client craft keys that all probe one chain. One seed for the whole
// process, not one per counter, is what lets Merge reuse the other
// counter's stored hashes. Nothing observable depends on it: Top and the
// state encoding sort, and probe order never leaves the table.
var counterSeed = maphash.MakeSeed()

func hashKey(key string) uint32 { return uint32(maphash.String(counterSeed, key)) }

const (
	// smallCounter is the size up to which a Counter carries no index and
	// a lookup is a scan over the stored hash words. Most counters the
	// daemon holds are one hour bucket's slice of a long-tailed table and
	// never outgrow it; for them an index would only be 64 bytes to
	// allocate, clear and miss the cache on.
	smallCounter = 8
	// minIndex is the first index size: 2*smallCounter slots keep the
	// ninth key under the 3/4 load bound.
	minIndex = 2 * smallCounter
	// maxSelectK is the largest k Top serves by selection. Selection
	// shifts up to k entries per insertion, so it is for the small k of a
	// "top ten" table; past it the full sort is no slower and has no bad
	// input order.
	maxSelectK = 64
)

// Counter is an exact string-keyed frequency counter: a dense table of
// (key, hash, count) in insertion order, found through an open-addressing
// index. Keeping each key's hash is what makes folding cheap — Merge and
// index growth probe with the stored word and never hash a string twice —
// and the fold (a snapshot cut, a range read, a restore, each merging a
// few hundred of these) is where the daemon's read side spends its time.
//
// The zero value is an empty counter.
type Counter struct {
	keys   []string
	hashes []uint32 // hashKey(keys[i])
	counts []uint64
	// index holds 1+position into the dense arrays (0 = empty slot) at
	// hash&mask, linearly probed; its length is a power of two and it is
	// at most 3/4 full. It is nil while Len() <= smallCounter. Positions
	// are int32: a counter holds fewer than 2^31 keys (the largest, the
	// token vocabulary, is capped at 4M).
	index []int32
	n     uint64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{} }

// CounterOf returns a counter holding counts[i] for keys[i], built in one
// step: each key is hashed once and the index, if the size needs one, is
// built once. It takes ownership of both slices, which must be the same
// length; the keys must be distinct, which the caller checks (a decoder
// that reads them in strictly ascending order has).
func CounterOf(keys []string, counts []uint64) *Counter {
	if len(keys) != len(counts) {
		panic("stats: CounterOf with unequal keys and counts")
	}
	c := &Counter{keys: keys, counts: counts, hashes: make([]uint32, len(keys))}
	for i, key := range keys {
		c.hashes[i] = hashKey(key)
		c.n += counts[i]
	}
	if len(keys) > smallCounter {
		c.reindex(len(keys))
	}
	return c
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n uint64) {
	c.counts[c.slot(key, hashKey(key))] += n
	c.n += n
}

// Count returns the exact count for key.
func (c *Counter) Count(key string) uint64 {
	if i, _ := c.find(key, hashKey(key)); i >= 0 {
		return c.counts[i]
	}
	return 0
}

// Total returns the sum of all counts.
func (c *Counter) Total() uint64 { return c.n }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.keys) }

// Merge folds other into c.
func (c *Counter) Merge(other *Counter) {
	if len(c.keys) == 0 {
		// Nothing to collide with, and the size is known: copy the table
		// and index it once.
		c.keys = append(c.keys, other.keys...)
		c.hashes = append(c.hashes, other.hashes...)
		c.counts = append(c.counts, other.counts...)
		if len(c.keys) > smallCounter {
			c.reindex(len(c.keys))
		}
	} else {
		// c.Merge(c) doubles every count: no key is new, so the arrays
		// this loop ranges over are not appended to under it.
		for i, key := range other.keys {
			c.counts[c.slot(key, other.hashes[i])] += other.counts[i]
		}
	}
	c.n += other.n
}

// Each calls fn for every (key, count) pair in unspecified order.
func (c *Counter) Each(fn func(key string, count uint64)) {
	for i, key := range c.keys {
		fn(key, c.counts[i])
	}
}

// find returns key's position in the dense arrays, or -1 and — when the
// counter is indexed — the empty index slot its probe ended on, where an
// insertion that does not grow the index places it. h is hashKey(key).
// Equal hash words almost always mean equal keys, and equal interned keys
// share a pointer, which the string compare checks before any byte.
func (c *Counter) find(key string, h uint32) (pos int, free uint32) {
	if c.index == nil {
		for i, x := range c.hashes {
			if x == h && c.keys[i] == key {
				return i, 0
			}
		}
		return -1, 0
	}
	mask := uint32(len(c.index) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		at := c.index[p]
		if at == 0 {
			return -1, p
		}
		if i := int(at - 1); c.hashes[i] == h && c.keys[i] == key {
			return i, 0
		}
	}
}

// slot returns key's position, appending it with a zero count if absent.
func (c *Counter) slot(key string, h uint32) int {
	i, free := c.find(key, h)
	if i >= 0 {
		return i
	}
	i = len(c.keys)
	c.keys = append(c.keys, key)
	c.hashes = append(c.hashes, h)
	c.counts = append(c.counts, 0)
	switch {
	case i < smallCounter:
	case (i+1)*4 > len(c.index)*3:
		c.reindex(i + 1)
	default:
		c.index[free] = int32(i + 1)
	}
	return i
}

// reindex replaces the index with one sized to hold n keys under the load
// bound, filled from the stored hashes.
func (c *Counter) reindex(n int) {
	size := minIndex
	for size*3 < n*4 {
		size <<= 1
	}
	c.index = make([]int32, size)
	mask := uint32(size - 1)
	for i, h := range c.hashes {
		p := h & mask
		for c.index[p] != 0 {
			p = (p + 1) & mask
		}
		c.index[p] = int32(i + 1)
	}
}

// Entry is a (key, count) pair returned by Top.
type Entry struct {
	Key   string
	Count uint64
}

// Top returns the k most frequent keys in descending count order, ties
// broken lexicographically so output is deterministic. k <= 0 returns
// every key.
func (c *Counter) Top(k int) []Entry {
	if k <= 0 || k >= len(c.keys) || k > maxSelectK {
		all := make([]Entry, len(c.keys))
		for i, key := range c.keys {
			all[i] = Entry{key, c.counts[i]}
		}
		SortEntries(all)
		if k > 0 && k < len(all) {
			all = all[:k]
		}
		return all
	}
	// Keep the best k seen so far, sorted: all but a few entries lose to
	// the current k-th on one integer compare and touch nothing else.
	best := make([]Entry, 0, k)
	for i, n := range c.counts {
		if len(best) == k {
			if w := &best[k-1]; n < w.Count || n == w.Count && c.keys[i] > w.Key {
				continue
			}
			best = best[:k-1]
		}
		e := Entry{c.keys[i], n}
		at, _ := slices.BinarySearchFunc(best, e, compareEntries)
		best = slices.Insert(best, at, e)
	}
	return best
}

// compareEntries orders by descending count, then ascending key.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// SortEntries sorts entries by descending count, then ascending key.
func SortEntries(entries []Entry) { slices.SortFunc(entries, compareEntries) }
