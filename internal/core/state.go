package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// Engine state framing. The engine writes one named, length-prefixed
// section per registered module, so a reader can pair sections with
// modules by registry name: a subset engine round-trips its subset, a
// full engine reads a full checkpoint, and a future registry reorder
// changes nothing. Each section is encoded in its own string-table
// scope (one statecodec.Writer, Reset between sections), which is what
// makes unknown sections skippable.
//
//	"SFEN" | format version byte | uvarint section count
//	per section: string module name | blob payload
//
// A payload leads with the section's layout version byte, followed by
// the module's declared fields in order.
const (
	engineStateMagic   = "SFEN"
	engineStateVersion = 1
)

// layoutExact is the one section layout every module writes and reads.
const layoutExact = 1

// MarshalState serializes the engine's accumulated metric state. The
// encoding is deterministic: marshaling the same logical state (however
// it was reached — one pass, parallel merge, or a decode) produces
// identical bytes, which is what lets tests pin restore(checkpoint(S))
// == S at the byte level. An engine over a base (see Clone) writes base
// ⊕ overlay, each module read through a view.
func (e *Engine) MarshalState() []byte {
	w := statecodec.NewWriter()
	w.Raw([]byte(engineStateMagic))
	w.Byte(engineStateVersion)
	w.Uvarint(uint64(len(e.modules)))
	mw := statecodec.NewWriter()
	for _, m := range e.modules {
		if e.base != nil {
			m = view(e, m)
		}
		mw.Reset()
		mw.Byte(layoutExact)
		for _, f := range m.state() {
			f.encode(mw)
		}
		w.String(m.Name())
		w.Blob(mw.Bytes())
	}
	return w.Bytes()
}

// UnmarshalState replaces the engine's metric state with a state
// previously produced by MarshalState: whatever a decoded module had
// accumulated is discarded, not merged into. The engine must have been
// built with the same Options the writing engine used — the stream
// carries accumulated counts only, not the configuration databases.
//
// Sections are paired with modules by name. A section for a module this
// engine was not built with is skipped (a full checkpoint loads into a
// subset engine); a registered module with no section is an error — the
// module would silently serve empty results otherwise.
//
// A refused stream leaves every module empty, as built: a section that
// failed half way would otherwise keep what it decoded in place of what
// the module's constructor sets up (the osn watchlist).
func (e *Engine) UnmarshalState(b []byte) (err error) {
	if e.shared != nil {
		e.unshare()
	}
	e.base = nil // decoding replaces the whole state, base and overlay
	e.layer()
	e.version++
	defer func() {
		if err != nil {
			e.build(e.Metrics()) // names this engine was built with: cannot fail
			e.layer()
		}
	}()
	r := statecodec.NewReader(b)
	if magic := r.Raw(len(engineStateMagic)); r.Err() != nil || string(magic) != engineStateMagic {
		return fmt.Errorf("core: not an engine state stream (bad magic)")
	}
	if v := r.Byte(); r.Err() == nil && v != engineStateVersion {
		return fmt.Errorf("core: engine state version %d unsupported (max %d)", v, engineStateVersion)
	}
	n := r.Count()
	decoded := make(map[string]bool, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		payload := r.Blob()
		if r.Err() != nil {
			break
		}
		m := e.byName[name]
		if m == nil {
			continue // a module this engine was built without
		}
		if decoded[name] {
			return fmt.Errorf("core: duplicate state section %q", name)
		}
		decoded[name] = true
		mr := statecodec.NewReader(payload)
		decodeFields(mr, name, m.state())
		if err := mr.Err(); err != nil {
			return fmt.Errorf("core: module %q: %w", name, err)
		}
		if left := mr.Remaining(); left != 0 {
			return fmt.Errorf("core: module %q: %d trailing bytes", name, left)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("core: %d trailing bytes after engine state", r.Remaining())
	}
	if len(decoded) < len(e.modules) {
		var missing []string
		for _, m := range e.modules {
			if !decoded[m.Name()] {
				missing = append(missing, m.Name())
			}
		}
		return fmt.Errorf("core: state stream has no sections for modules %v; rebuild the checkpoint with a matching module subset", missing)
	}
	return nil
}

// StateLayout peeks at an engine state stream without decoding it and
// returns its section layout: every section's module name and leading
// layout-version byte, in stream order. An engine's layout depends only
// on how it was built (its module set), never on what it observed, so a
// stream whose layout equals that of an engine's own MarshalState is in
// the form that engine would write — which is how a holder of decoded
// bytes (the timewin frame memo) tells "these bytes are this engine's
// encoding" from "these bytes merely load into it": a full checkpoint
// loads into a subset engine, but is not what that engine emits.
func StateLayout(b []byte) (string, error) {
	r := statecodec.NewReader(b)
	if magic := r.Raw(len(engineStateMagic)); r.Err() != nil || string(magic) != engineStateMagic {
		return "", fmt.Errorf("core: not an engine state stream (bad magic)")
	}
	if v := r.Byte(); r.Err() == nil && v != engineStateVersion {
		return "", fmt.Errorf("core: engine state version %d unsupported (max %d)", v, engineStateVersion)
	}
	n := r.Count()
	var layout []byte
	for i := 0; i < n; i++ {
		name := r.String()
		payload := r.Blob()
		if err := r.Err(); err != nil {
			return "", err
		}
		if len(payload) == 0 {
			return "", fmt.Errorf("core: module %q: empty state section", name)
		}
		layout = append(append(layout, name...), 0, payload[0])
	}
	return string(layout), r.Err()
}

// WriteState writes MarshalState to w.
func (e *Engine) WriteState(w io.Writer) error {
	_, err := w.Write(e.MarshalState())
	return err
}

// ReadState reads r to EOF and applies UnmarshalState.
func (e *Engine) ReadState(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading engine state: %w", err)
	}
	return e.UnmarshalState(b)
}

// decodeFields reads one module section into fs: the layout byte, which
// must be layoutExact, then every field in order, stopping at the first
// failure.
func decodeFields(r *statecodec.Reader, module string, fs []field) {
	switch layout := r.Byte(); {
	case r.Err() != nil:
	case layout == 2:
		// Layout 2 held the HyperLogLog and top-k estimates of the
		// bounded-memory counting mode; its state cannot become exact.
		r.Failf("core: %s state written by the removed -sketch mode; re-ingest the logs", module)
	case layout != layoutExact:
		r.Failf("core: %s state version %d unsupported (max %d)", module, layout, layoutExact)
	}
	for _, f := range fs {
		if r.Err() != nil {
			return
		}
		f.decode(r)
	}
}

// --- shared field codecs ---
//
// All of them iterate in sorted key order, making every module encoding
// a pure function of its logical state.

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encCounts / decCounts code a count map whose keys encKey / decKey code.
func encCounts[K cmp.Ordered](w *statecodec.Writer, m map[K]uint64, encKey func(*statecodec.Writer, K)) {
	w.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		encKey(w, k)
		w.Uvarint(m[k])
	}
}

func decCounts[K cmp.Ordered](r *statecodec.Reader, decKey func(*statecodec.Reader) K) map[K]uint64 {
	n := r.Count()
	m := make(map[K]uint64, n)
	var prev K
	for i := 0; i < n && r.Err() == nil; i++ {
		k := decKey(r)
		if !ascending(r, i, prev, k) {
			break
		}
		m[k], prev = r.Uvarint(), k
	}
	return m
}

// encPort / decPort are the key codec of a per-port count map.
func encPort(w *statecodec.Writer, port uint16) { w.Uvarint(uint64(port)) }

func decPort(r *statecodec.Reader) uint16 {
	k := r.Uvarint()
	if k > 0xffff {
		r.Failf("core: port %d out of range", k)
	}
	return uint16(k)
}

// encCounter / decCounter code a stats.Counter (the total is recomputed
// on decode: a Counter's total is the sum of its entries).
func encCounter(w *statecodec.Writer, c *stats.Counter) {
	entries := sortedEntries(c)
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.StringRef(e.Key)
		w.Uvarint(e.Count)
	}
}

// sortedEntries returns c's entries in ascending key order.
func sortedEntries(c *stats.Counter) []stats.Entry {
	entries := make([]stats.Entry, 0, c.Len())
	c.Each(func(k string, n uint64) { entries = append(entries, stats.Entry{Key: k, Count: n}) })
	slices.SortFunc(entries, func(a, b stats.Entry) int { return strings.Compare(a.Key, b.Key) })
	return entries
}

// decCounter builds the counter in one step from exact-size slices. Keys
// must arrive strictly ascending, as encCounter writes them. An entry is
// at least two bytes (a key reference and a count), which bounds what a
// lying count can make it allocate.
func decCounter(r *statecodec.Reader) *stats.Counter {
	n := r.Count()
	size := min(n, r.Remaining()/2)
	keys := make([]string, 0, size)
	counts := make([]uint64, 0, size)
	for i := 0; i < n; i++ {
		k, v := r.StringRef(), r.Uvarint()
		if r.Err() != nil || i > 0 && !ascending(r, i, keys[i-1], k) {
			break
		}
		keys = append(keys, k)
		counts = append(counts, v)
	}
	return stats.CounterOf(keys, counts)
}

// ascending reports whether key, entry i of a keyed table, may follow
// prev, the key of entry i-1, failing r when it does not. Every keyed
// encoder writes its keys sorted, so a repeated or out-of-order key is
// corruption, not an entry to keep or a count to sum.
func ascending[K cmp.Ordered](r *statecodec.Reader, i int, prev, key K) bool {
	if i > 0 && key <= prev {
		r.Failf("core: key %v at entry %d does not follow %v", key, i, prev)
		return false
	}
	return true
}

// encIPSet / decIPSet code a set of IPv4 addresses as sorted deltas.
func encIPSet(w *statecodec.Writer, set map[uint32]struct{}) {
	w.Uvarint(uint64(len(set)))
	var prev uint32
	for _, ip := range sortedKeys(set) {
		w.Uvarint(uint64(ip - prev))
		prev = ip
	}
}

func decIPSet(r *statecodec.Reader) map[uint32]struct{} {
	n := r.Count()
	set := make(map[uint32]struct{}, n)
	var prev uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		prev += r.Uvarint()
		if prev > 0xffffffff {
			r.Failf("core: IPv4 delta overflows at entry %d", i)
			return set
		}
		set[uint32(prev)] = struct{}{}
	}
	return set
}

// encHourly / decHourly code a per-hour map of values coded by enc / dec.
func encHourly[V any](w *statecodec.Writer, m map[int64]V, enc func(*statecodec.Writer, V)) {
	w.Uvarint(uint64(len(m)))
	for _, hour := range sortedKeys(m) {
		w.Varint(hour)
		enc(w, m[hour])
	}
}

func decHourly[V any](r *statecodec.Reader, dec func(*statecodec.Reader) V) map[int64]V {
	n := r.Count()
	m := make(map[int64]V, n)
	var prev int64
	for i := 0; i < n && r.Err() == nil; i++ {
		hour := r.Varint()
		if !ascending(r, i, prev, hour) {
			break
		}
		m[hour], prev = dec(r), hour
	}
	return m
}

// encHashSet / decHashSet code a set of 20-byte digests, sorted.
func encHashSet(w *statecodec.Writer, set map[[20]byte]struct{}) {
	hashes := make([][20]byte, 0, len(set))
	for h := range set {
		hashes = append(hashes, h)
	}
	slices.SortFunc(hashes, func(a, b [20]byte) int { return bytes.Compare(a[:], b[:]) })
	w.Uvarint(uint64(len(hashes)))
	for i := range hashes {
		w.Raw(hashes[i][:])
	}
}

func decHashSet(r *statecodec.Reader) map[[20]byte]struct{} {
	n := r.Count()
	set := make(map[[20]byte]struct{}, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var h [20]byte
		copy(h[:], r.Raw(20))
		if r.Err() != nil {
			return set
		}
		set[h] = struct{}{}
	}
	return set
}

// encTripleMap / decTripleMap code a map of censored/allowed/proxied
// triples (the osn watchlist, facebook platform paths).
func encTripleMap(w *statecodec.Writer, m map[string]*triple) {
	w.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		ts := m[k]
		w.StringRef(k)
		w.Uvarint(ts.Censored)
		w.Uvarint(ts.Allowed)
		w.Uvarint(ts.Proxied)
	}
}

func decTripleMap(r *statecodec.Reader) map[string]*triple {
	n := r.Count()
	m := make(map[string]*triple, n)
	var prev string
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		if !ascending(r, i, prev, k) {
			break
		}
		m[k], prev = &triple{Censored: r.Uvarint(), Allowed: r.Uvarint(), Proxied: r.Uvarint()}, k
	}
	return m
}

// encClassCounts / decClassCounts code one dataset row group.
func encClassCounts(w *statecodec.Writer, c *ClassCounts) {
	w.Uvarint(c.Total)
	w.Uvarint(c.Proxied)
	w.Uvarint(uint64(len(c.ByException)))
	for _, v := range c.ByException {
		w.Uvarint(v)
	}
}

func decClassCounts(r *statecodec.Reader, c *ClassCounts) {
	*c = ClassCounts{}
	c.Total = r.Uvarint()
	c.Proxied = r.Uvarint()
	if n := r.Count(); r.Err() == nil && n != len(c.ByException) {
		r.Failf("core: %d exception counters, want %d", n, len(c.ByException))
		return
	}
	for i := range c.ByException {
		c.ByException[i] = r.Uvarint()
	}
}
