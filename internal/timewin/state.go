package timewin

import (
	"fmt"

	"syriafilter/internal/core"
	"syriafilter/internal/statecodec"
)

// Partition state framing. A partition has two encodings, and they are
// one table with two payloads. The table carries the segments — the
// frozen tail, then the bucket ring — and the meta that gives them
// meaning (bucket width, retention horizon), so a restored partition
// resumes with the same retention semantics it was checkpointed with:
//
//	magic | version byte
//	uvarint bucket seconds | uvarint retain buckets
//	bool tail present | [varint tail lo | varint tail hi |
//	                     uvarint tail records | payload]
//	uvarint live bucket count
//	per bucket (ascending index): varint index | uvarint records | payload
//
// "SFTW", the state encoding, has each segment's engine state
// (core.Engine.MarshalState) as a blob for payload and ends with the
// table. It is the canonical, uncached form: MarshalState encodes every
// engine on every call and neither reads nor fills the checkpoint-frame
// memo, so a probe or an equality test that calls it measures (or
// compares) a real encode. "SFTF", the frames encoding that
// internal/serve writes to disk, has the length of the segment's
// checkpoint frame for payload and re-encodes only what changed; see
// frames.go for what follows its table.
//
// Both are read by readTable, which checks the layout as it goes: the
// bucket width is the partition's, bucket indices ascend, and no segment
// has zero records — the record count is the version the frame memo and
// Fingerprint read, so an engine that merged in without moving it would
// leave both serving the state from before the merge.
type tableKind struct {
	magic   string
	version byte
	name    string // for error messages
}

var stateTable = tableKind{magic: "SFTW", version: 1, name: "state"}

// writeTable writes the table of kind k for p's segments, calling payload
// where each segment's belongs.
func (p *Partition) writeTable(w *statecodec.Writer, k tableKind, payload func(*segment)) {
	w.Raw([]byte(k.magic))
	w.Byte(k.version)
	w.Uvarint(uint64(p.bucketSecs))
	w.Uvarint(uint64(p.retainBuckets))
	w.Bool(p.tail != nil)
	if t := p.tail; t != nil {
		w.Varint(t.lo)
		w.Varint(t.hi)
		w.Uvarint(t.records)
		payload(t)
	}
	w.Uvarint(uint64(len(p.live)))
	for _, s := range p.live {
		w.Varint(s.lo)
		w.Uvarint(s.records)
		payload(s)
	}
}

// readTable parses and validates a table of kind k into staged segments,
// calling payload to read each segment's. The caller checks what follows
// the table.
func (sh *shape) readTable(r *statecodec.Reader, k tableKind, payload func(*segment) error) (segments, error) {
	var ss segments
	if magic := r.Raw(len(k.magic)); r.Err() != nil || string(magic) != k.magic {
		return ss, fmt.Errorf("timewin: not a partition %s stream (bad magic)", k.name)
	}
	if v := r.Byte(); r.Err() == nil && v != k.version {
		return ss, fmt.Errorf("timewin: partition %s version %d unsupported (max %d)", k.name, v, k.version)
	}
	if secs := r.Uvarint(); r.Err() == nil && secs != uint64(sh.bucketSecs) {
		return ss, fmt.Errorf("timewin: checkpoint bucket width %ds does not match configured %ds; rebuild state on the new grid (cold boot) or restore with the original -bucket", secs, sh.bucketSecs)
	}
	r.Uvarint() // stored retention horizon, informative only
	read := func(s *segment) error {
		s.records = r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		if s.records == 0 && s == ss.tail {
			return fmt.Errorf("timewin: tail with no records")
		}
		if s.records == 0 {
			return fmt.Errorf("timewin: bucket %d with no records", s.lo)
		}
		return payload(s)
	}
	if r.Bool() {
		ss.tail = &segment{lo: r.Varint(), hi: r.Varint()}
		if err := read(ss.tail); err != nil {
			return ss, err
		}
	}
	n := r.Count()
	for i := 0; i < n; i++ {
		idx := r.Varint()
		if i > 0 && r.Err() == nil && idx <= ss.live[i-1].lo {
			return ss, fmt.Errorf("timewin: bucket indices out of order (%d after %d)", idx, ss.live[i-1].lo)
		}
		s := &segment{lo: idx, hi: idx}
		if err := read(s); err != nil {
			return ss, err
		}
		ss.live = append(ss.live, s)
	}
	return ss, r.Err()
}

// MarshalState serializes the partition: meta, tail, and every live
// bucket. Like the engine encoding it is deterministic, so checkpoint
// bytes are a pure function of the partition's logical state.
func (p *Partition) MarshalState() []byte {
	w := statecodec.NewWriter()
	p.writeTable(w, stateTable, func(s *segment) { w.Blob(s.eng.MarshalState()) })
	return w.Bytes()
}

// UnmarshalState folds a state previously produced by MarshalState into
// p: restored buckets merge into existing buckets of the same index (or
// install as new ones), and the restored tail merges into p's tail —
// so restoring into an empty partition reproduces the checkpointed
// state exactly, and restoring into a loaded one is equivalent to
// having ingested both corpora. Decoding is staged — every byte of b,
// including every embedded engine state, is parsed and validated first —
// so on any error p is left untouched.
//
// The checkpoint's bucket width must match p's — bucket indices are
// meaningless across grids. The stored retention horizon is informative
// only; p's own configured horizon governs compaction after the fold.
func (p *Partition) UnmarshalState(b []byte) error {
	r := statecodec.NewReader(b)
	ss, err := p.readTable(r, stateTable, func(s *segment) (err error) {
		blob := r.Blob()
		if err = r.Err(); err == nil {
			s.eng, err = p.decodeEngine(blob)
		}
		return err
	})
	if err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("timewin: %d trailing bytes after partition state", r.Remaining())
	}
	p.Absorb(Staged{ss})
	return nil
}

// decodeEngine decodes one engine state into a fresh engine of the
// shape's configuration.
func (sh *shape) decodeEngine(blob []byte) (*core.Engine, error) {
	eng, err := core.NewEngine(sh.opt, sh.metrics...)
	if err != nil {
		// Unreachable: newShape validated the module names.
		panic("timewin: " + err.Error())
	}
	if err := eng.UnmarshalState(blob); err != nil {
		return nil, err
	}
	return eng, nil
}

// Absorb folds ss, decoded by DecodeFrames for p's configuration, into p
// with UnmarshalState's semantics, consuming ss. Decoding made every
// check, so it cannot fail. It is the restore primitive of
// internal/serve, where several files may go into one shard.
//
// The tail folds first (so its span is known before buckets are placed)
// and swallows the live buckets it now covers — either side's tail may
// overlap the other's ring. Each bucket then goes where seek says a
// record of its index would: into the tail at or below the horizon,
// rather than resurrecting a compacted index, into the live bucket of
// its index, or into the ring as a new one, where p's own retention
// policy applies. A segment installed directly — nothing of p's to merge
// into — keeps its memo; every merge moves a record count, which is what
// retires the frame cut at the old one.
func (p *Partition) Absorb(ss Staged) {
	p.rollups = nil
	ss.each(func(s *segment) { p.records += s.records })
	if ss.tail != nil {
		if p.tail == nil {
			p.tail = ss.tail
		} else {
			p.tail.merge(ss.tail)
		}
		for len(p.live) > 0 && p.live[0].lo <= p.tail.hi {
			p.tail.merge(p.live[0])
			p.live = p.live[1:]
		}
	}
	for _, src := range ss.live {
		if dst, at := p.seek(src.lo); dst != nil {
			dst.merge(src)
		} else {
			p.join(at, src)
		}
	}
}
