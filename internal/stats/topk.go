package stats

import "sort"

// Counter is an exact string-keyed frequency counter. It is the reference
// implementation used when memory is not a concern (our corpora are scaled
// down from the paper's 751M requests) and the baseline against which the
// Space-Saving sketch is validated and benchmarked.
type Counter struct {
	m map[string]uint64
	n uint64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{m: make(map[string]uint64)} }

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n uint64) {
	c.m[key] += n
	c.n += n
}

// Count returns the exact count for key.
func (c *Counter) Count(key string) uint64 { return c.m[key] }

// Total returns the sum of all counts.
func (c *Counter) Total() uint64 { return c.n }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.m) }

// Merge folds other into c.
func (c *Counter) Merge(other *Counter) {
	for k, v := range other.m {
		c.m[k] += v
	}
	c.n += other.n
}

// Each calls fn for every (key, count) pair in unspecified order.
func (c *Counter) Each(fn func(key string, count uint64)) {
	for k, v := range c.m {
		fn(k, v)
	}
}

// Entry is a (key, count) pair returned by Top.
type Entry struct {
	Key   string
	Count uint64
}

// Top returns the k most frequent keys in descending count order, ties
// broken lexicographically so output is deterministic.
func (c *Counter) Top(k int) []Entry {
	all := make([]Entry, 0, len(c.m))
	for key, n := range c.m {
		all = append(all, Entry{key, n})
	}
	SortEntries(all)
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// SortEntries sorts entries by descending count, then ascending key.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
}

// TopK is the Space-Saving heavy-hitters sketch (Metwally, Agrawal, El
// Abbadi 2005). It tracks at most capacity keys with bounded overestimation
// error: for any key, estimate-true <= minCount at eviction time, and every
// key with true frequency > N/capacity is guaranteed present.
//
// It exists because the real dataset (751M rows) would make exact per-URL
// counting memory-prohibitive; the paper's top-10 tables are exactly the
// heavy-hitter regime the sketch serves.
type TopK struct {
	capacity int
	counts   map[string]*tkNode
	// Doubly linked list of nodes ordered by ascending count would be the
	// textbook stream-summary structure; a min-scan over a bounded map is
	// simpler and fast enough at the capacities we use (<= 4096).
	min *tkNode
}

type tkNode struct {
	key   string
	count uint64
	err   uint64 // overestimation bound recorded at takeover time
}

// NewTopK returns a Space-Saving sketch tracking at most capacity keys.
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		panic("stats: TopK capacity must be positive")
	}
	return &TopK{capacity: capacity, counts: make(map[string]*tkNode, capacity)}
}

// Add offers one occurrence of key to the sketch.
func (t *TopK) Add(key string) { t.AddN(key, 1) }

// AddN offers n occurrences of key to the sketch.
func (t *TopK) AddN(key string, n uint64) {
	if node, ok := t.counts[key]; ok {
		node.count += n
		if node == t.min {
			t.min = nil // stale; recompute lazily
		}
		return
	}
	if len(t.counts) < t.capacity {
		t.counts[key] = &tkNode{key: key, count: n}
		t.min = nil
		return
	}
	// Evict the current minimum and take over its count (+n), recording the
	// inherited count as the error bound for the new key.
	victim := t.minNode()
	delete(t.counts, victim.key)
	t.counts[key] = &tkNode{key: key, count: victim.count + n, err: victim.count}
	t.min = nil
}

func (t *TopK) minNode() *tkNode {
	if t.min != nil {
		return t.min
	}
	var m *tkNode
	for _, node := range t.counts {
		if m == nil || node.count < m.count || (node.count == m.count && node.key < m.key) {
			m = node
		}
	}
	t.min = m
	return m
}

// Estimate returns the estimated count and the overestimation bound for key,
// with ok reporting whether the key is currently tracked.
func (t *TopK) Estimate(key string) (count, errBound uint64, ok bool) {
	node, ok := t.counts[key]
	if !ok {
		return 0, 0, false
	}
	return node.count, node.err, true
}

// Top returns the k highest-count tracked keys (estimates), deterministic
// order as in Counter.Top.
func (t *TopK) Top(k int) []Entry {
	all := make([]Entry, 0, len(t.counts))
	for key, node := range t.counts {
		all = append(all, Entry{key, node.count})
	}
	SortEntries(all)
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// Len returns the number of tracked keys.
func (t *TopK) Len() int { return len(t.counts) }

// Capacity returns the maximum number of tracked keys.
func (t *TopK) Capacity() int { return t.capacity }

// EachEntry calls fn for every tracked key with its estimate and
// overestimation bound, in unspecified order. For serialization and
// error-bound reporting.
func (t *TopK) EachEntry(fn func(key string, count, errBound uint64)) {
	for key, node := range t.counts {
		fn(key, node.count, node.err)
	}
}

// SetEntry installs a tracked key with an explicit estimate and error
// bound, for state restore. It overwrites an existing entry for key and
// reports false (installing nothing) when a new key would exceed the
// sketch's capacity.
func (t *TopK) SetEntry(key string, count, errBound uint64) bool {
	if node, ok := t.counts[key]; ok {
		node.count, node.err = count, errBound
		t.min = nil
		return true
	}
	if len(t.counts) >= t.capacity {
		return false
	}
	t.counts[key] = &tkNode{key: key, count: count, err: errBound}
	t.min = nil
	return true
}

// Merge folds other into t using the mergeable-summaries union (Agarwal et
// al. 2012): a key absent from a full sketch is assiged that sketch's
// minimum count as a conservative upper bound (true count <= min by the
// Space-Saving invariant), estimates add, and the union is truncated back
// to capacity by estimate. Estimates therefore never underestimate.
func (t *TopK) Merge(other *TopK) {
	minOf := func(s *TopK) uint64 {
		if len(s.counts) < s.capacity {
			return 0 // untracked keys truly have count 0
		}
		return s.minNode().count
	}
	minT, minO := minOf(t), minOf(other)

	union := make(map[string]*tkNode, len(t.counts)+len(other.counts))
	for key, node := range t.counts {
		union[key] = &tkNode{key: key, count: node.count, err: node.err}
	}
	for key, node := range other.counts {
		if u, ok := union[key]; ok {
			u.count += node.count
			u.err += node.err
		} else {
			union[key] = &tkNode{key: key, count: node.count + minT, err: node.err + minT}
		}
	}
	for key := range t.counts {
		if _, ok := other.counts[key]; !ok {
			union[key].count += minO
			union[key].err += minO
		}
	}

	all := make([]*tkNode, 0, len(union))
	for _, node := range union {
		all = append(all, node)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].key < all[j].key
	})
	if len(all) > t.capacity {
		all = all[:t.capacity]
	}
	t.counts = make(map[string]*tkNode, len(all))
	for _, node := range all {
		t.counts[node.key] = node
	}
	t.min = nil
}
