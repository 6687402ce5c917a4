package timewin

import (
	"fmt"
	"io"

	"syriafilter/internal/core"
	"syriafilter/internal/statecodec"
)

// Partition state framing. The bucket ring, the frozen tail, and the
// meta that gives them meaning (bucket width, retention horizon) are
// serialized together, so a restored partition resumes with the same
// retention semantics it was checkpointed with:
//
//	"SFTW" | version byte
//	uvarint bucket seconds | uvarint retain buckets
//	bool tail present | [varint tailMin | varint tailMax |
//	                     uvarint tail records | blob tail engine state]
//	uvarint live bucket count
//	per bucket (ascending index): varint index | uvarint records |
//	                              blob engine state
//
// Engine states are the core.Engine.MarshalState encoding.
//
// This is the canonical, uncached form: MarshalState encodes every
// engine on every call and neither reads nor fills the checkpoint-frame
// memo, so a probe or an equality test that calls it measures (or
// compares) a real encode. What internal/serve writes to disk is the
// framed form of the same state, CheckpointFrames in frames.go, which
// re-encodes only what changed; a bucket or tail of zero records is
// refused by both decoders, because the record count is the version
// that memo (and Fingerprint) reads.
const (
	partitionStateMagic   = "SFTW"
	partitionStateVersion = 1
)

// MarshalState serializes the partition: meta, tail, and every live
// bucket. Like the engine encoding it is deterministic, so checkpoint
// bytes are a pure function of the partition's logical state.
func (p *Partition) MarshalState() []byte {
	w := statecodec.NewWriter()
	w.Raw([]byte(partitionStateMagic))
	w.Byte(partitionStateVersion)
	w.Uvarint(uint64(p.bucketSecs))
	w.Uvarint(uint64(p.retainBuckets))
	if p.tail != nil {
		w.Bool(true)
		w.Varint(p.tailMin)
		w.Varint(p.tailMax)
		w.Uvarint(p.tailRecords)
		w.Blob(p.tail.MarshalState())
	} else {
		w.Bool(false)
	}
	w.Uvarint(uint64(len(p.order)))
	for _, idx := range p.order {
		b := p.live[idx]
		w.Varint(idx)
		w.Uvarint(b.records)
		w.Blob(b.eng.MarshalState())
	}
	return w.Bytes()
}

// WriteState writes MarshalState to w.
func (p *Partition) WriteState(w io.Writer) error {
	_, err := w.Write(p.MarshalState())
	return err
}

// UnmarshalState folds a state previously produced by MarshalState into
// p: restored buckets merge into existing buckets of the same index (or
// install as new ones), and the restored tail merges into p's tail —
// so restoring into an empty partition reproduces the checkpointed
// state exactly, and restoring into a loaded one is equivalent to
// having ingested both corpora. Decoding is staged: on any error p is
// left untouched.
//
// The checkpoint's bucket width must match p's — bucket indices are
// meaningless across grids. The stored retention horizon is informative
// only; p's own configured horizon governs compaction after the fold.
func (p *Partition) UnmarshalState(b []byte) error {
	st, err := p.decodeState(b)
	if err != nil {
		return err
	}
	p.absorb(st)
	return nil
}

// ReadState reads r to EOF and applies UnmarshalState.
func (p *Partition) ReadState(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("timewin: reading partition state: %w", err)
	}
	return p.UnmarshalState(b)
}

// partitionState is a fully decoded, not yet applied partition state.
// tailFrame and each bucket's frame, when set, are the checkpoint frame
// the engine was decoded from (or last cut as): absorb hands it to the
// memo of whatever it installs directly.
type partitionState struct {
	tail             *core.Engine
	tailMin, tailMax int64
	tailRecords      uint64
	tailFrame        []byte
	buckets          []decodedBucket
}

type decodedBucket struct {
	idx     int64
	records uint64
	eng     *core.Engine
	frame   []byte
}

// checkGrid reads the bucket width and the retention horizon that lead
// both partition encodings, and refuses a width other than p's.
func (p *Partition) checkGrid(r *statecodec.Reader) error {
	if secs := r.Uvarint(); r.Err() == nil && secs != uint64(p.bucketSecs) {
		return fmt.Errorf("timewin: checkpoint bucket width %ds does not match configured %ds; rebuild state on the new grid (cold boot) or restore with the original -bucket", secs, p.bucketSecs)
	}
	r.Uvarint() // stored retention horizon, informative only
	return r.Err()
}

// validate checks what both decoders require of a decoded layout before
// it may be applied: bucket indices strictly ascending, and no bucket or
// tail of zero records. The record count is the version the frame memo
// and Fingerprint read, so an engine that merged in without moving it
// would leave both serving the state from before the merge.
func (st *partitionState) validate(hasTail bool) error {
	if hasTail && st.tailRecords == 0 {
		return fmt.Errorf("timewin: tail with no records")
	}
	for i, b := range st.buckets {
		if b.records == 0 {
			return fmt.Errorf("timewin: bucket %d with no records", b.idx)
		}
		if i > 0 && b.idx <= st.buckets[i-1].idx {
			return fmt.Errorf("timewin: bucket indices out of order (%d after %d)", b.idx, st.buckets[i-1].idx)
		}
	}
	return nil
}

// decodeState parses and validates every byte of b — including every
// embedded engine state — without touching p, so a corrupted or
// truncated checkpoint cannot leave a partially restored partition.
func (p *Partition) decodeState(b []byte) (*partitionState, error) {
	r := statecodec.NewReader(b)
	if magic := r.Raw(len(partitionStateMagic)); r.Err() != nil || string(magic) != partitionStateMagic {
		return nil, fmt.Errorf("timewin: not a partition state stream (bad magic)")
	}
	if v := r.Byte(); r.Err() == nil && v != partitionStateVersion {
		return nil, fmt.Errorf("timewin: partition state version %d unsupported (max %d)", v, partitionStateVersion)
	}
	if err := p.checkGrid(r); err != nil {
		return nil, err
	}
	st := &partitionState{}
	engine := func() (*core.Engine, error) {
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return p.decodeEngine(blob)
	}
	if r.Bool() {
		st.tailMin = r.Varint()
		st.tailMax = r.Varint()
		st.tailRecords = r.Uvarint()
		eng, err := engine()
		if err != nil {
			return nil, err
		}
		st.tail = eng
	}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		idx := r.Varint()
		records := r.Uvarint()
		eng, err := engine()
		if err != nil {
			return nil, err
		}
		st.buckets = append(st.buckets, decodedBucket{idx: idx, records: records, eng: eng})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("timewin: %d trailing bytes after partition state", r.Remaining())
	}
	if err := st.validate(st.tail != nil); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeEngine decodes one engine state into a fresh engine of the
// partition's configuration. It reads p only, so the frame workers may
// call it concurrently.
func (p *Partition) decodeEngine(blob []byte) (*core.Engine, error) {
	eng, err := core.NewEngine(p.opt, p.metrics...)
	if err != nil {
		// Unreachable: New validated the module names.
		panic("timewin: " + err.Error())
	}
	if err := eng.UnmarshalState(blob); err != nil {
		return nil, err
	}
	return eng, nil
}

// Absorb folds every bucket and the tail of other into p, consuming
// other (its engines are installed directly where p has no competing
// state; other must not be used afterwards). Both partitions must share
// the bucket width. This is the restore primitive internal/serve uses
// to fold staged checkpoint shards into live shard partitions, also
// covering shard-count changes (several checkpoint files can be
// absorbed into one shard).
func (p *Partition) Absorb(other *Partition) error {
	if other.bucketSecs != p.bucketSecs {
		return fmt.Errorf("timewin: absorbing partition with bucket width %ds into %ds", other.bucketSecs, p.bucketSecs)
	}
	st := &partitionState{
		tail:        other.tail,
		tailMin:     other.tailMin,
		tailMax:     other.tailMax,
		tailRecords: other.tailRecords,
		tailFrame:   other.tailMemo.valid(other.tailRecords),
	}
	for _, idx := range other.order {
		b := other.live[idx]
		st.buckets = append(st.buckets, decodedBucket{idx: idx, records: b.records, eng: b.eng, frame: b.memo.valid(b.records)})
	}
	p.absorb(st)
	return nil
}

// absorb applies a decoded state to p. The tail folds first (so its
// span is known before buckets are placed); a bucket at or below the
// resulting tail horizon folds into the tail rather than resurrecting a
// compacted index, exactly like a late record in Observe. A final
// compact re-applies p's own retention policy. An engine installed
// directly — nothing of p's to merge into — brings its frame along as
// the memo; every merge moves a record count, which is what retires the
// frame cut at the old one.
func (p *Partition) absorb(st *partitionState) {
	if st.tail != nil {
		if p.tail == nil {
			p.tail = st.tail
			p.tailMin, p.tailMax = st.tailMin, st.tailMax
			p.tailMemo = frame{records: st.tailRecords, data: st.tailFrame}
		} else {
			p.tail.Merge(st.tail)
			if st.tailMin < p.tailMin {
				p.tailMin = st.tailMin
			}
			if st.tailMax > p.tailMax {
				p.tailMax = st.tailMax
			}
		}
		p.tailRecords += st.tailRecords
	}
	// A tail now covering live bucket indices swallows those buckets
	// (either side's tail may overlap the other's ring).
	if p.tail != nil {
		for len(p.order) > 0 && p.order[0] <= p.tailMax {
			idx := p.order[0]
			b := p.live[idx]
			p.tail.Merge(b.eng)
			p.tailRecords += b.records
			if idx < p.tailMin {
				p.tailMin = idx
			}
			delete(p.live, idx)
			p.order = p.order[1:]
		}
	}
	for i := range st.buckets {
		db := &st.buckets[i]
		if p.tail != nil && db.idx <= p.tailMax {
			p.tail.Merge(db.eng)
			p.tailRecords += db.records
			if db.idx < p.tailMin {
				p.tailMin = db.idx
			}
			continue
		}
		if b := p.live[db.idx]; b != nil {
			b.eng.Merge(db.eng)
			b.records += db.records
			continue
		}
		p.live[db.idx] = &bucket{eng: db.eng, records: db.records, memo: frame{records: db.records, data: db.frame}}
		p.insertIdx(db.idx)
	}
	p.compact()
}
