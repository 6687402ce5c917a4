package timewin

import (
	"sort"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
)

// Day rollups. A range read that covers a whole sealed UTC day merges
// that day's rollup — one engine, the merge of its live buckets — instead
// of the buckets themselves: the keys repeat from hour to hour, so a
// day's engine holds a fraction of its hours' entries, and merge cost is
// entries merged.
//
// A day is sealed when each of its buckets is older than the newest live
// bucket and above the tail. The first read that covers a sealed day with
// at least two live buckets builds its rollup (MergeIndexed over the
// buckets, so the rollup's §5.4 URL index is their indexes joined), and
// later reads merge it. Nothing on the ingest path touches a rollup's
// engine: a late record for a rolled-up day is observed into its bucket as
// any record is, and a copy of it joins the rollup's queue, which the next
// read of the day replays into the rollup before merging it. That read
// then checks the rollup's record count against its buckets' sum — a
// bucket's count is its version (Fingerprint) — and rebuilds it on a
// mismatch.
//
// A rollup is dropped when compaction reaches its day, when the partition
// absorbs restored state, and when its queue passes maxLate: a read that
// covers the day again then builds it afresh. Rollups are never encoded,
// and checkpoints, AllInto and a Coverage's span see buckets only, so
// they change what a read costs (Coverage.Rollups), never what it returns.

// maxLate bounds a rollup's queue of late records, and so the memory a
// queue holds between reads (a record is 328 bytes plus its strings).
// Past it the rollup is dropped, and the next read rebuilds it. At the
// bound a replay still costs about a third of a rebuild: on the 1 M
// corpus, 0.6–0.9 ms to observe 1,024 records into a day rollup against
// 2.1–3.0 ms to merge a shard's day of 91 k records from its hours.
const maxLate = 1024

// daySecs is the length of a UTC day; rollups need a bucket width that
// divides it.
const daySecs = 86400

// rollup is one sealed day's buckets merged into one engine.
type rollup struct {
	eng     *core.Engine
	records uint64          // the records eng holds
	late    []logfmt.Record // copies of the day's records eng does not hold yet
}

// dayOf returns the UTC day of bucket index idx.
func (p *Partition) dayOf(idx int64) int64 { return floorDiv(idx, p.dayBuckets) }

// day returns day d's live buckets: a run of the ring.
func (p *Partition) day(d int64) []*segment {
	lo, hi := d*p.dayBuckets, (d+1)*p.dayBuckets
	i := sort.Search(len(p.live), func(i int) bool { return p.live[i].lo >= lo })
	j := sort.Search(len(p.live), func(i int) bool { return p.live[i].lo >= hi })
	return p.live[i:j]
}

// sealed reports whether day d's buckets are all older than the newest
// live bucket and above the tail.
func (p *Partition) sealed(d int64) bool {
	n := len(p.live)
	return n > 0 && p.live[n-1].lo >= (d+1)*p.dayBuckets &&
		(p.tail == nil || p.tail.hi < d*p.dayBuckets)
}

// rolled returns the rollup a read of w merges for day d, built or
// brought up to date and counted in cov, or nil when the read merges the
// day's buckets instead: w does not cover the day, the day is not
// sealed, or fewer than two of its buckets are live. Rollups are on.
func (p *Partition) rolled(d int64, w Window, cov *Coverage) *rollup {
	if !w.Covers(d*daySecs, (d+1)*daySecs) || !p.sealed(d) {
		return nil
	}
	buckets := p.day(d)
	if len(buckets) < 2 {
		return nil
	}
	var records uint64
	for _, s := range buckets {
		records += s.records
	}
	r := p.rollups[d]
	if r != nil {
		for i := range r.late {
			r.eng.Observe(&r.late[i])
		}
		r.records += uint64(len(r.late))
		cov.Replayed += uint64(len(r.late))
		// Keep the array for the next late records, pinning no strings.
		clear(r.late)
		r.late = r.late[:0]
	}
	if r == nil || r.records != records {
		engs := make([]*core.Engine, len(buckets))
		for i, s := range buckets {
			engs[i] = s.eng
		}
		r = &rollup{eng: p.newEngine(), records: records}
		r.eng.MergeIndexed(engs...)
		if p.rollups == nil {
			p.rollups = make(map[int64]*rollup)
		}
		p.rollups[d] = r
	}
	cov.Rollups++
	return r
}

// queue hands a copy of rec, just observed into live bucket idx, to the
// rollup of its day, if the day has one. A queue at maxLate drops the
// rollup instead.
func (p *Partition) queue(idx int64, rec *logfmt.Record) {
	d := p.dayOf(idx)
	r := p.rollups[d]
	if r == nil {
		return
	}
	if len(r.late) >= maxLate {
		delete(p.rollups, d)
		return
	}
	r.late = append(r.late, *rec)
}

// dropCompacted drops the rollups of days the tail has reached.
func (p *Partition) dropCompacted() {
	for d := range p.rollups {
		if d*p.dayBuckets <= p.tail.hi {
			delete(p.rollups, d)
		}
	}
}
