// Package timewin partitions metric-engine state by time bucket, which
// is what turns the all-time aggregate of internal/core into the paper's
// temporal views: per-day censored/allowed volumes, policy shifts across
// the Jul 22 – Aug 5 2011 capture, proxy outages.
//
// A Partition is a run of segments in time order. A segment is one
// core.Engine and the bucket indices it answers for: a live bucket covers
// exactly one index of the configured width, and the "tail" — at most one,
// in front of the live ring — covers the span of every bucket compacted
// into it. Observe routes each record by Record.Time to the segment of its
// bucket index (the tail at or below its upper edge, the newest bucket
// without a search on a time-ordered stream, a binary search otherwise).
// When a retention horizon is configured, a new bucket joining the ring
// moves the horizon, and buckets that fall behind the newest by more than
// it are compacted — merged into the tail and freed — so memory stays
// bounded by the horizon while all-time queries stay exact (the tail plus
// the live ring is always the complete corpus).
//
// Range queries merge the covered buckets into a caller-provided engine
// (clone-and-Merge, the same primitive behind internal/serve snapshots),
// so a range covering the full capture renders byte-identically to a
// batch run. A range that begins inside the compacted tail cannot be
// answered exactly and returns *RetentionError.
//
// A whole sealed UTC day — every bucket of it older than the newest and
// above the tail — is merged from its day rollup, one engine holding the
// merge of its buckets, built by the first read that covers the day.
// Late records for a rolled-up day are queued beside it and replayed by
// the next read that uses it, so ingest does no rollup work; compaction,
// a restore or a full queue drops it. Rollups are never encoded, and
// coverage and fingerprints still count buckets (see rollup.go).
//
// A Partition is not safe for concurrent use; internal/serve gives each
// of its shard goroutines one Partition and serializes queries through
// the shard's message channel.
package timewin

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
)

// Window is a half-open time range [From, To) in Unix seconds. A zero
// From or To leaves that side unbounded, so the zero Window matches
// every record. The same predicate drives Partition range queries and
// `censorlyzer -from/-to` batch filtering, which is what makes the two
// paths agree.
type Window struct {
	From int64 // inclusive; 0 = unbounded
	To   int64 // exclusive; 0 = unbounded
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t int64) bool {
	return (w.From == 0 || t >= w.From) && (w.To == 0 || t < w.To)
}

// Overlaps reports whether the window intersects [from, to).
func (w Window) Overlaps(from, to int64) bool {
	return (w.To == 0 || from < w.To) && (w.From == 0 || to > w.From)
}

// Covers reports whether the window fully contains [from, to).
func (w Window) Covers(from, to int64) bool {
	return (w.From == 0 || w.From <= from) && (w.To == 0 || w.To >= to)
}

// String renders the window for log and error messages.
func (w Window) String() string {
	f, t := "-inf", "+inf"
	if w.From != 0 {
		f = time.Unix(w.From, 0).UTC().Format(time.RFC3339)
	}
	if w.To != 0 {
		t = time.Unix(w.To, 0).UTC().Format(time.RFC3339)
	}
	return "[" + f + ", " + t + ")"
}

// ParseTime parses a window bound: Unix seconds, RFC3339, or the UTC
// shorthands "2006-01-02T15:04[:05]" and "2006-01-02".
func ParseTime(s string) (int64, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	for _, layout := range []string{
		time.RFC3339, "2006-01-02T15:04:05", "2006-01-02T15:04", "2006-01-02",
	} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return t.Unix(), nil
		}
	}
	return 0, fmt.Errorf("timewin: cannot parse time %q (want unix seconds, RFC3339, 2006-01-02T15:04 or 2006-01-02)", s)
}

// ParseWindow builds a Window from optional from/to strings (each in a
// ParseTime format; "" leaves that side unbounded) and rejects empty
// windows. Both cmd/censorlyzer's -from/-to flags and cmd/censord's
// query parameters parse through here, so the two surfaces cannot
// drift.
func ParseWindow(from, to string) (Window, error) {
	var w Window
	var err error
	if from != "" {
		if w.From, err = ParseTime(from); err != nil {
			return w, err
		}
	}
	if to != "" {
		if w.To, err = ParseTime(to); err != nil {
			return w, err
		}
	}
	if w.From != 0 && w.To != 0 && w.To <= w.From {
		return w, fmt.Errorf("timewin: empty window %s", w)
	}
	return w, nil
}

// ParseStep parses a sub-window width: a Go duration ("2h", "30m") or
// bare seconds.
func ParseStep(s string) (int64, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("timewin: cannot parse step %q (want a duration like 2h or seconds)", s)
	}
	return int64(d / time.Second), nil
}

// RetentionError reports a range query that begins inside the compacted
// tail: those buckets were merged away, so the range cannot be answered
// exactly. HorizonUnix is the first instant still covered bucket-exactly
// (query from >= horizon, or cover the whole corpus for the exact
// all-time answer).
type RetentionError struct {
	HorizonUnix int64
}

func (e *RetentionError) Error() string {
	return fmt.Sprintf("timewin: range begins before the retention horizon %s: older buckets are compacted into the all-time tail; start the range at or after the horizon, or cover the full corpus",
		time.Unix(e.HorizonUnix, 0).UTC().Format(time.RFC3339))
}

// Config configures a Partition.
type Config struct {
	// Options configures every bucket engine (and the tail).
	Options core.Options
	// Metrics restricts buckets to a metric-module subset (nil = every
	// module), exactly like serve.Config.Metrics.
	Metrics []string
	// Bucket is the partition width. Must be at least one second; widths
	// are truncated to whole seconds.
	Bucket time.Duration
	// Retain is the retention horizon: live buckets older than the newest
	// bucket by more than this are compacted into the tail. It is rounded
	// up to a whole number of buckets. 0 keeps every bucket live forever.
	Retain time.Duration
	// OnCompact, when non-nil, is called after each compaction pass that
	// merged at least one bucket into the tail, with the number of buckets
	// merged and the pass's wall-clock duration in seconds. Compaction
	// runs inline on the Observe path, so the call comes from whatever
	// goroutine owns the partition.
	OnCompact func(buckets int, seconds float64)
}

// BucketMeta describes one live bucket.
type BucketMeta struct {
	StartUnix int64  `json:"start_unix"`
	Start     string `json:"start"`
	Records   uint64 `json:"records"`
}

// Meta summarizes a Partition (or, after MergeMeta, a set of partitions
// sharing one bucket grid) for monitoring and snapshot metadata.
type Meta struct {
	BucketSeconds int64        `json:"bucket_seconds"`
	RetainBuckets int          `json:"retain_buckets,omitempty"`
	Buckets       []BucketMeta `json:"buckets"`
	TailRecords   uint64       `json:"tail_records"`
	TailFromUnix  int64        `json:"tail_from_unix,omitempty"`
	TailToUnix    int64        `json:"tail_to_unix,omitempty"`
}

// MergeMeta folds src into dst: per-bucket record counts are summed by
// bucket start, the tail span is unioned. Both metas must share the same
// bucket grid (internal/serve guarantees this: every shard partition is
// built from one Config).
func MergeMeta(dst *Meta, src Meta) {
	if dst.BucketSeconds == 0 {
		dst.BucketSeconds = src.BucketSeconds
	}
	if dst.RetainBuckets == 0 {
		dst.RetainBuckets = src.RetainBuckets
	}
	dst.Buckets = append(dst.Buckets, src.Buckets...)
	sort.Slice(dst.Buckets, func(i, j int) bool {
		return dst.Buckets[i].StartUnix < dst.Buckets[j].StartUnix
	})
	out := dst.Buckets[:0]
	for _, b := range dst.Buckets {
		if n := len(out); n > 0 && out[n-1].StartUnix == b.StartUnix {
			out[n-1].Records += b.Records
			continue
		}
		out = append(out, b)
	}
	dst.Buckets = out
	dst.TailRecords += src.TailRecords
	if src.TailRecords > 0 {
		if dst.TailFromUnix == 0 || src.TailFromUnix < dst.TailFromUnix {
			dst.TailFromUnix = src.TailFromUnix
		}
		if src.TailToUnix > dst.TailToUnix {
			dst.TailToUnix = src.TailToUnix
		}
	}
}

// Coverage reports what a range merge actually covered. Bucket spans are
// atomic, so the effective [FromUnix, ToUnix) is the requested window
// widened to bucket edges (and to the tail span when the tail was
// merged). Buckets counts bucket *merges* — a cost measure — so an
// aggregate over N shards counts each time bucket up to N times (the
// distinct-bucket layout lives in Meta). Rollups counts the days merged
// from a day rollup, Replayed the late records replayed into one first.
type Coverage struct {
	FromUnix int64  `json:"from_unix"`
	ToUnix   int64  `json:"to_unix"`
	Buckets  int    `json:"buckets"`
	Records  uint64 `json:"records"`
	Tail     bool   `json:"tail"`
	Rollups  int    `json:"rollups"`
	Replayed uint64 `json:"replayed"`
}

// Extend unions o into c (used to aggregate per-shard coverages).
func (c *Coverage) Extend(o Coverage) {
	if o.Buckets == 0 && !o.Tail {
		return
	}
	if c.Buckets == 0 && !c.Tail {
		*c = o
		return
	}
	if o.FromUnix < c.FromUnix {
		c.FromUnix = o.FromUnix
	}
	if o.ToUnix > c.ToUnix {
		c.ToUnix = o.ToUnix
	}
	c.Buckets += o.Buckets
	c.Records += o.Records
	c.Rollups += o.Rollups
	c.Replayed += o.Replayed
	c.Tail = c.Tail || o.Tail
}

// segment is one engine and the run of bucket indices [lo, hi] it answers
// for. A live bucket has lo == hi; the tail is the one widened segment, in
// front of the ring. records is the segment's version: nothing changes
// eng without moving it (see frames.go, Fingerprint).
type segment struct {
	lo, hi  int64
	records uint64
	eng     *core.Engine
	memo    frame // last checkpoint frame cut for eng; see frames.go
}

// merge folds o into s: engines, record counts, and the index span.
func (s *segment) merge(o *segment) {
	s.eng.Merge(o.eng)
	s.records += o.records
	s.lo = min(s.lo, o.lo)
	s.hi = max(s.hi, o.hi)
}

// segments is a partition's content in time order: the tail, when there
// is one, then the live buckets by ascending index — in a partition, all
// above the tail. It is also what a decoded state is staged as before
// Absorb applies it.
type segments struct {
	tail *segment
	live []*segment
}

// each visits every segment in time order.
func (ss *segments) each(visit func(*segment)) {
	if ss.tail != nil {
		visit(ss.tail)
	}
	for _, s := range ss.live {
		visit(s)
	}
}

// shape is what decoding a partition's state needs of its configuration,
// layout being the core.StateLayout its engines encode to. Decoding only
// reads it, so the frame workers share one.
type shape struct {
	opt        core.Options
	metrics    []string
	bucketSecs int64
	layout     string
}

// newShape validates cfg's width and modules and returns its shape, with
// the empty engine it built to learn the layout.
func newShape(cfg Config) (shape, *core.Engine, error) {
	secs := int64(cfg.Bucket / time.Second)
	if secs < 1 {
		return shape{}, nil, fmt.Errorf("timewin: bucket width %v is below one second", cfg.Bucket)
	}
	eng, err := core.NewEngine(cfg.Options, cfg.Metrics...)
	if err != nil {
		return shape{}, nil, err
	}
	layout, err := core.StateLayout(eng.MarshalState())
	if err != nil {
		return shape{}, nil, err
	}
	return shape{opt: cfg.Options, metrics: cfg.Metrics, bucketSecs: secs, layout: layout}, eng, nil
}

// Partition is the time-partitioned store: a ring of live bucket engines
// plus the frozen tail. See the package comment for semantics.
type Partition struct {
	shape
	retainBuckets int64

	segments
	records uint64 // the segments' total: compaction only moves records

	spare *core.Engine // validated engine from New, consumed by the first bucket

	// meta is Meta's result at metaRecords records: only Observe and
	// Absorb change the layout, and both move the total.
	meta        Meta
	metaRecords uint64

	onCompact func(buckets int, seconds float64)

	// Day rollups (rollup.go): dayBuckets is the buckets in a UTC day, 0
	// when the width does not divide one, which turns rollups off;
	// rollups holds them by day.
	dayBuckets int64
	rollups    map[int64]*rollup
}

// New builds an empty partition. The engine construction also validates
// Metrics, so later bucket creation cannot fail.
func New(cfg Config) (*Partition, error) {
	sh, spare, err := newShape(cfg)
	if err != nil {
		return nil, err
	}
	secs, retain := sh.bucketSecs, int64(0)
	if cfg.Retain > 0 {
		retain = (int64(cfg.Retain/time.Second) + secs - 1) / secs
		if retain < 1 {
			retain = 1
		}
	}
	var dayBuckets int64
	if daySecs%secs == 0 {
		dayBuckets = daySecs / secs
	}
	return &Partition{
		shape:         sh,
		retainBuckets: retain,
		spare:         spare,
		onCompact:     cfg.OnCompact,
		dayBuckets:    dayBuckets,
	}, nil
}

// RetainBuckets returns the retention horizon in buckets (0 = unlimited).
func (p *Partition) RetainBuckets() int64 { return p.retainBuckets }

func (p *Partition) newEngine() *core.Engine {
	if e := p.spare; e != nil {
		p.spare = nil
		return e
	}
	e, err := core.NewEngine(p.opt, p.metrics...)
	if err != nil {
		// Unreachable: New validated the module names.
		panic("timewin: " + err.Error())
	}
	return e
}

// floorDiv is floor division (bucket indices must round toward -inf so a
// record exactly on a bucket edge always lands in the later bucket).
func floorDiv(t, w int64) int64 {
	q := t / w
	if t%w != 0 && (t < 0) != (w < 0) {
		q--
	}
	return q
}

// Observe folds one record into its time bucket. A record at exactly a
// bucket edge lands in the bucket that starts there. Records at or below
// the compaction horizon fold into the tail, so late arrivals keep the
// all-time view exact instead of resurrecting freed buckets.
func (p *Partition) Observe(rec *logfmt.Record) {
	idx := floorDiv(rec.Time, p.bucketSecs)
	s, at := p.seek(idx)
	if s == nil {
		s = p.join(at, &segment{lo: idx, hi: idx, eng: p.newEngine()})
	}
	s.eng.Observe(rec)
	s.records++
	p.records++
	s.lo = min(s.lo, idx) // only the tail can be widened
	// Only a day older than the newest bucket's can have a rollup.
	if len(p.rollups) > 0 && s != p.tail && idx < p.live[len(p.live)-1].lo {
		p.queue(idx, rec)
	}
}

// seek finds the segment that answers for bucket index idx: the tail at
// or below its horizon, else the live bucket of that index — the newest
// one without a search, which is every record of a time-ordered stream.
// When there is none, s is nil and at is the index's place in the ring.
func (p *Partition) seek(idx int64) (s *segment, at int) {
	if t := p.tail; t != nil && idx <= t.hi {
		return t, 0
	}
	n := len(p.live)
	if n == 0 || idx > p.live[n-1].lo {
		return nil, n
	}
	at = n - 1
	if idx < p.live[at].lo {
		at = sort.Search(n, func(i int) bool { return p.live[i].lo >= idx })
	}
	if p.live[at].lo == idx {
		return p.live[at], at
	}
	return nil, at
}

// join puts a new bucket at its place in the ring — the only moment the
// retention horizon can move, so the only moment compaction runs — and
// returns the segment that now answers for it: the bucket itself, or the
// tail when it joined below the horizon.
func (p *Partition) join(at int, s *segment) *segment {
	p.live = slices.Insert(p.live, at, s)
	p.compact()
	if p.tail != nil && s.hi <= p.tail.hi {
		return p.tail
	}
	return s
}

// compact merges every live bucket behind the retention horizon into the
// tail. The horizon trails the newest bucket by data time (not wall
// clock), which keeps historical corpora — the 2011 capture — behaving
// exactly like a live stream.
func (p *Partition) compact() {
	if p.retainBuckets <= 0 {
		return
	}
	horizon := p.live[len(p.live)-1].lo - p.retainBuckets + 1
	if p.live[0].lo >= horizon {
		return
	}
	var t0 time.Time
	if p.onCompact != nil {
		t0 = time.Now()
	}
	merged := 0
	for ; p.live[0].lo < horizon; merged++ { // the newest bucket is never behind the horizon
		b := p.live[0]
		if p.tail == nil {
			p.tail = &segment{lo: b.lo, hi: b.hi, eng: p.newEngine()}
		}
		p.tail.merge(b)
		p.live = p.live[1:]
	}
	p.dropCompacted()
	if p.onCompact != nil {
		p.onCompact(merged, time.Since(t0).Seconds())
	}
}

// Buckets returns the number of live buckets.
func (p *Partition) Buckets() int { return len(p.live) }

// Records returns the total records folded (tail plus live buckets).
func (p *Partition) Records() uint64 { return p.records }

// span is the time range [from, to) a segment answers for.
func (p *Partition) span(s *segment) (from, to int64) {
	return s.lo * p.bucketSecs, (s.hi + 1) * p.bucketSecs
}

// Meta snapshots the partition's bucket layout. It is built again only
// once the record total has moved, so calls in between share one Meta:
// the caller must not modify it.
func (p *Partition) Meta() Meta {
	if p.meta.BucketSeconds != 0 && p.metaRecords == p.records {
		return p.meta
	}
	m := Meta{BucketSeconds: p.bucketSecs, RetainBuckets: int(p.retainBuckets)}
	p.each(func(s *segment) {
		from, to := p.span(s)
		if s == p.tail {
			m.TailRecords, m.TailFromUnix, m.TailToUnix = s.records, from, to
			return
		}
		m.Buckets = append(m.Buckets, BucketMeta{
			StartUnix: from,
			Start:     time.Unix(from, 0).UTC().Format(time.RFC3339),
			Records:   s.records,
		})
	})
	p.meta, p.metaRecords = m, p.records
	return m
}

// window visits what a read of w merges: the tail when w covers its
// span, then every live bucket w overlaps (buckets are atomic). ok is
// false, with nothing visited, when w begins inside the tail: those
// buckets were merged away, and horizon is the first instant still
// covered bucket by bucket.
func (p *Partition) window(w Window, visit func(s *segment, from, to int64)) (horizon int64, ok bool) {
	if t := p.tail; t != nil {
		from, to := p.span(t)
		if w.Overlaps(from, to) {
			if !w.Covers(from, to) {
				return to, false
			}
			visit(t, from, to)
		}
	}
	for _, s := range p.live {
		if from, to := p.span(s); w.Overlaps(from, to) {
			visit(s, from, to)
		}
	}
	return 0, true
}

// Fingerprint hashes what RangeInto(dst, w) would merge right now: the
// tail's span and record count when w covers it, then the start and
// record count of every live bucket w overlaps. ok is false when w
// begins inside the tail, where RangeInto fails with *RetentionError.
//
// Equal fingerprints mean equal merged content. A bucket's record count
// only grows, so an unchanged count is an unchanged bucket engine; a
// bucket leaves the ring only for the tail, which drops its pair from
// the hash and either adds the tail to it or turns ok false; and the
// tail's own count grows with every bucket or late record it takes in.
// Unlike Meta it formats no timestamps and allocates nothing, so a
// reader can afford it before and after every query.
func (p *Partition) Fingerprint(w Window) (fp uint64, ok bool) {
	fp = fnvOffset
	_, ok = p.window(w, func(s *segment, from, to int64) {
		fp = fnvMix(fp, uint64(from))
		if s == p.tail {
			// Three words against two per bucket: a hashed tail makes the
			// word count odd, so it cannot read as bucket pairs.
			fp = fnvMix(fp, uint64(to))
		}
		fp = fnvMix(fp, s.records)
	})
	if !ok {
		return 0, false
	}
	return fp, true
}

// fnvMix folds the eight bytes of v into an FNV-1a 64 state.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// AllInto merges the complete partition — tail first, then every live
// bucket in time order — into dst, which must share the partition's
// Options and carry a subset of its modules: only dst's modules are
// folded (core.Engine.MergeProjected). This is the all-time snapshot
// primitive: its result is merge-equivalent to a batch run over the same
// records. It carries the §5.4 URL indexes that range reads left on the
// segments but builds none, so a boot, a restore or a fold cut does no
// index work here.
func (p *Partition) AllInto(dst *core.Engine) {
	engs := make([]*core.Engine, 0, len(p.live)+1)
	p.each(func(s *segment) { engs = append(engs, s.eng) })
	dst.MergeProjected(engs...)
}

// RangeInto merges every bucket overlapping w into dst and reports what
// was covered. Like AllInto it folds only the modules dst carries, so a
// query that reads one module pays for one. Buckets are atomic: any
// bucket the window touches is merged whole, and the coverage reports
// the widened effective span. The tail is merged only when the window
// fully covers its span; a window that begins inside the tail returns
// *RetentionError before anything is merged, so dst is untouched on
// error.
//
// A whole sealed day that w covers is merged from its rollup (see
// rollup.go), which holds what its buckets do; the coverage counts the
// buckets, and the rollup and its replayed records in Rollups/Replayed.
//
// When dst carries tokens, each merged segment first indexes the
// censored URLs it stored since its last range read
// (core.Engine.MergeIndexed), so dst's §5.4 discovery joins the
// segments' indexes instead of tokenising their URLs.
func (p *Partition) RangeInto(dst *core.Engine, w Window) (Coverage, error) {
	var cov Coverage
	var engs []*core.Engine
	day, r := int64(math.MinInt64), (*rollup)(nil) // the day last visited, and its rollup
	horizon, ok := p.window(w, func(s *segment, from, to int64) {
		c := Coverage{FromUnix: from, ToUnix: to, Records: s.records, Tail: s == p.tail}
		if !c.Tail {
			c.Buckets = 1
		}
		cov.Extend(c)
		if p.dayBuckets > 0 && !c.Tail {
			if d := p.dayOf(s.lo); d != day {
				if day, r = d, p.rolled(d, w, &cov); r != nil {
					engs = append(engs, r.eng)
				}
			}
			if r != nil {
				return
			}
		}
		engs = append(engs, s.eng)
	})
	if !ok {
		return cov, &RetentionError{HorizonUnix: horizon}
	}
	dst.MergeIndexed(engs...)
	return cov, nil
}
