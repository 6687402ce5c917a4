package core

import (
	"bytes"
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
// A payload is the module's EncodeState output and leads with that
// module's own version byte.
const (
	engineStateMagic   = "SFEN"
	engineStateVersion = 1
)

// MarshalState serializes the engine's accumulated metric state. The
// encoding is deterministic: marshaling the same logical state (however
// it was reached — one pass, parallel merge, or a decode) produces
// identical bytes, which is what lets tests pin restore(checkpoint(S))
// == S at the byte level.
func (e *Engine) MarshalState() []byte {
	w := statecodec.NewWriter()
	w.Raw([]byte(engineStateMagic))
	w.Byte(engineStateVersion)
	w.Uvarint(uint64(len(e.modules)))
	mw := statecodec.NewWriter()
	for _, m := range e.modules {
		mw.Reset()
		m.EncodeState(mw)
		w.String(m.Name())
		w.Blob(mw.Bytes())
	}
	return w.Bytes()
}

// UnmarshalState replaces the engine's metric state with a state
// previously produced by MarshalState. Call it on a freshly built
// engine with the same Options the writing engine used: the stream
// carries accumulated counts only, not the configuration databases.
//
// Sections are paired with modules by name. A section for a module this
// engine was not built with is skipped (a full checkpoint loads into a
// subset engine); a registered module with no section is an error — the
// module would silently serve empty results otherwise.
func (e *Engine) UnmarshalState(b []byte) error {
	e.version++ // a failed decode may still have replaced some modules
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
		m.DecodeState(mr)
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
// on how it was built (module set, counting mode), never on what it
// observed, so a stream whose layout equals that of an engine's own
// MarshalState is in the form that engine would write — which is how a
// holder of decoded bytes (the timewin frame memo) tells "these bytes
// are this engine's encoding" from "these bytes merely load into it": a
// full checkpoint loads into a subset engine and an exact one into a
// sketched engine, but neither is what those engines emit.
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

// checkVersion reads and validates a module's leading version byte.
func checkVersion(r *statecodec.Reader, module string, max byte) byte {
	v := r.Byte()
	if r.Err() == nil && (v == 0 || v > max) {
		r.Failf("core: %s state version %d unsupported (max %d)", module, v, max)
	}
	return v
}

// --- shared field codecs ---
//
// All of them iterate in sorted key order, making every module encoding
// a pure function of its logical state.

func sortedStrKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encStrCounts / decStrCounts code a map[string]uint64 with interned keys.
func encStrCounts(w *statecodec.Writer, m map[string]uint64) {
	w.Uvarint(uint64(len(m)))
	for _, k := range sortedStrKeys(m) {
		w.StringRef(k)
		w.Uvarint(m[k])
	}
}

func decStrCounts(r *statecodec.Reader) map[string]uint64 {
	n := r.Count()
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		m[k] = r.Uvarint()
	}
	return m
}

// encCounter / decCounter code a stats.Counter (the total is recomputed
// on decode: a Counter's total is the sum of its entries).
func encCounter(w *statecodec.Writer, c *stats.Counter) {
	type kv struct {
		k string
		v uint64
	}
	entries := make([]kv, 0, c.Len())
	c.Each(func(k string, v uint64) { entries = append(entries, kv{k, v}) })
	slices.SortFunc(entries, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.StringRef(e.k)
		w.Uvarint(e.v)
	}
}

func decCounter(r *statecodec.Reader) *stats.Counter {
	n := r.Count()
	c := stats.NewCounter()
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		c.AddN(k, r.Uvarint())
	}
	return c
}

func decI64Counts(r *statecodec.Reader) map[int64]uint64 {
	n := r.Count()
	m := make(map[int64]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Varint()
		m[k] = r.Uvarint()
	}
	return m
}

func encI64Counts(w *statecodec.Writer, m map[int64]uint64) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Uvarint(uint64(len(m)))
	for _, k := range keys {
		w.Varint(k)
		w.Uvarint(m[k])
	}
}

func encU16Counts(w *statecodec.Writer, m map[uint16]uint64) {
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Uvarint(uint64(len(m)))
	for _, k := range keys {
		w.Uvarint(uint64(k))
		w.Uvarint(m[k])
	}
}

func decU16Counts(r *statecodec.Reader) map[uint16]uint64 {
	n := r.Count()
	m := make(map[uint16]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Uvarint()
		v := r.Uvarint()
		if k > 0xffff {
			r.Failf("core: port %d out of range", k)
			return m
		}
		m[uint16(k)] = v
	}
	return m
}

// encIPSet / decIPSet code a set of IPv4 addresses as sorted deltas.
func encIPSet(w *statecodec.Writer, set map[uint32]struct{}) {
	ips := make([]uint32, 0, len(set))
	for ip := range set {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	w.Uvarint(uint64(len(ips)))
	var prev uint32
	for _, ip := range ips {
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
	for _, k := range sortedStrKeys(m) {
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
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		m[k] = &triple{Censored: r.Uvarint(), Allowed: r.Uvarint(), Proxied: r.Uvarint()}
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
