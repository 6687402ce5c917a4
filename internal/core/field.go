package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// A module's accumulated state is a list of fields, declared once in its
// constructor (declared.declare): each field is a typed pointer into the
// module, and its kind carries everything the engine ever does to state —
// the empty value, the fold, the encoder and the replacing decoder — side
// by side. MergeProjected, MarshalState and UnmarshalState only walk the
// list, so what merges is what encodes is what decodes, by construction.
//
// The order of a declaration is the module's wire layout. Kinds are one
// pointer wide, so converting one to field allocates nothing, and the
// list lives inside the module: an engine costs no more to build than
// its modules.
type field interface {
	// init sets the field to its empty value.
	init()
	// merge folds the same field of another instance of the module in
	// (src has the receiver's dynamic type). It copies out of src and
	// never aliases its maps or slices: Clone relies on it.
	merge(src field)
	// encode writes the field. The encoding is deterministic — keys
	// sorted, a pure function of the logical state — so a checkpoint
	// re-encodes byte-identically.
	encode(w *statecodec.Writer)
	// decode replaces the field with one written by encode: whatever
	// the field held is discarded, never merged into. Failures are
	// reported through the reader's sticky error.
	decode(r *statecodec.Reader)
}

// viewer is a field kind that can read two instances of itself without
// copying them: view sets the field, which is empty, to a read-only view
// of base ⊕ own that shares their storage (see Engine's view). A kind
// without it is viewed by merging both into the empty field.
type viewer interface {
	view(base, own field)
}

// declared is embedded by every module and holds its registry name and
// its state declaration.
type declared struct {
	name   string
	n      int
	fields [maxFields]field
}

// maxFields is the widest declaration (tor).
const maxFields = 10

// declare names the module, records its fields in wire order and sets
// each to its empty value.
func (d *declared) declare(name string, fs ...field) {
	if len(fs) > maxFields {
		panic("core: state declaration wider than maxFields")
	}
	d.name = name
	d.n = copy(d.fields[:], fs)
	for _, f := range fs {
		f.init()
	}
}

func (d *declared) Name() string   { return d.name }
func (d *declared) state() []field { return d.fields[:d.n] }

// scalarField is one count.
type scalarField struct{ p *uint64 }

func (f scalarField) init()                       { *f.p = 0 }
func (f scalarField) merge(src field)             { *f.p += *src.(scalarField).p }
func (f scalarField) encode(w *statecodec.Writer) { w.Uvarint(*f.p) }
func (f scalarField) decode(r *statecodec.Reader) { *f.p = r.Uvarint() }

// proxyCountsField is one count per proxy, written with its length.
type proxyCountsField struct{ p *[logfmt.NumProxies]uint64 }

func (f proxyCountsField) init() { *f.p = [logfmt.NumProxies]uint64{} }

func (f proxyCountsField) merge(src field) {
	for i, v := range src.(proxyCountsField).p {
		f.p[i] += v
	}
}

func (f proxyCountsField) encode(w *statecodec.Writer) {
	w.Uvarint(logfmt.NumProxies)
	for _, v := range f.p {
		w.Uvarint(v)
	}
}

func (f proxyCountsField) decode(r *statecodec.Reader) {
	if !decProxyCount(r) {
		return
	}
	for i := range f.p {
		f.p[i] = r.Uvarint()
	}
}

// decProxyCount reads and checks a per-proxy group's leading length.
func decProxyCount(r *statecodec.Reader) bool {
	if n := r.Count(); r.Err() == nil && n != logfmt.NumProxies {
		r.Failf("core: %d proxies, want %d", n, logfmt.NumProxies)
	}
	return r.Err() == nil
}

// counterField is an exact frequency table.
type counterField struct{ p **stats.Counter }

func (f counterField) init()                       { *f.p = stats.NewCounter() }
func (f counterField) merge(src field)             { (*f.p).Merge(*src.(counterField).p) }
func (f counterField) encode(w *statecodec.Writer) { encCounter(w, *f.p) }
func (f counterField) decode(r *statecodec.Reader) { *f.p = decCounter(r) }
func (f counterField) view(base, own field) {
	*f.p = (*own.(counterField).p).Over(*base.(counterField).p)
}

// portCountsField is a count per TCP port.
type portCountsField struct{ p *map[uint16]uint64 }

func (f portCountsField) init()                       { *f.p = map[uint16]uint64{} }
func (f portCountsField) merge(src field)             { mergeCounts(*f.p, *src.(portCountsField).p) }
func (f portCountsField) encode(w *statecodec.Writer) { encCounts(w, *f.p, encPort) }
func (f portCountsField) decode(r *statecodec.Reader) { *f.p = decCounts(r, decPort) }

// hourCountsField is a count per hour (or any signed integer key).
type hourCountsField struct{ p *map[int64]uint64 }

func (f hourCountsField) init()           { *f.p = map[int64]uint64{} }
func (f hourCountsField) merge(src field) { mergeCounts(*f.p, *src.(hourCountsField).p) }
func (f hourCountsField) encode(w *statecodec.Writer) {
	encCounts(w, *f.p, (*statecodec.Writer).Varint)
}
func (f hourCountsField) decode(r *statecodec.Reader) {
	*f.p = decCounts(r, (*statecodec.Reader).Varint)
}

// ipSetField is a set of IPv4 addresses.
type ipSetField struct{ p *map[uint32]struct{} }

func (f ipSetField) init()                       { *f.p = map[uint32]struct{}{} }
func (f ipSetField) merge(src field)             { mergeSet(*f.p, *src.(ipSetField).p) }
func (f ipSetField) encode(w *statecodec.Writer) { encIPSet(w, *f.p) }
func (f ipSetField) decode(r *statecodec.Reader) { *f.p = decIPSet(r) }

// hourIPSetsField is a set of IPv4 addresses per hour.
type hourIPSetsField struct {
	p *map[int64]map[uint32]struct{}
}

func (f hourIPSetsField) init() { *f.p = map[int64]map[uint32]struct{}{} }
func (f hourIPSetsField) merge(src field) {
	mergeHourly(*f.p, *src.(hourIPSetsField).p, mergeSet[uint32])
}
func (f hourIPSetsField) encode(w *statecodec.Writer) { encHourly(w, *f.p, encIPSet) }
func (f hourIPSetsField) decode(r *statecodec.Reader) { *f.p = decHourly(r, decIPSet) }

// digestSetField is a set of 20-byte digests.
type digestSetField struct{ p *map[[20]byte]struct{} }

func (f digestSetField) init()                       { *f.p = map[[20]byte]struct{}{} }
func (f digestSetField) merge(src field)             { mergeSet(*f.p, *src.(digestSetField).p) }
func (f digestSetField) encode(w *statecodec.Writer) { encHashSet(w, *f.p) }
func (f digestSetField) decode(r *statecodec.Reader) { *f.p = decHashSet(r) }

// tripleMapField is a keyed map of censored/allowed/proxied triples.
type tripleMapField struct{ p *map[string]*triple }

func (f tripleMapField) init() { *f.p = map[string]*triple{} }

func (f tripleMapField) merge(src field) {
	for k, v := range *src.(tripleMapField).p {
		ts := entry(*f.p, k)
		ts.Censored += v.Censored
		ts.Allowed += v.Allowed
		ts.Proxied += v.Proxied
	}
}

func (f tripleMapField) encode(w *statecodec.Writer) { encTripleMap(w, *f.p) }
func (f tripleMapField) decode(r *statecodec.Reader) { *f.p = decTripleMap(r) }

// --- folds shared by the kinds above and the module-specific ones ---

// entry returns m[k], first creating it at its zero value when absent.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

func mergeCounts[K comparable](dst, src map[K]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

func mergeSet[K comparable](dst, src map[K]struct{}) {
	for k := range src {
		dst[k] = struct{}{}
	}
}

// mergeHourly folds a per-hour map of maps, creating the hours dst has
// not seen.
func mergeHourly[M ~map[K]V, K comparable, V any](dst, src map[int64]M, merge func(dst, src M)) {
	for hour, s := range src {
		if dst[hour] == nil {
			dst[hour] = make(M)
		}
		merge(dst[hour], s)
	}
}
