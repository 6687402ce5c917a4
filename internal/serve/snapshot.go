package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/timewin"
)

// Snapshot is one immutable point-in-time view of the store. Its
// analyzer is never written after publication, so any number of queries
// may read it concurrently — and because it never changes, the §5.4
// discovery its engine remembers (core.Engine.DiscoverFilters) is
// computed once per snapshot, however many docs and readers ask for it.
// An extend cut's clone takes over the URL index that computation left
// behind (unless a reader is computing at that moment), so the next
// snapshot's discovery tokenises only the censored URLs stored since;
// the snapshot keeps its remembered result.
type Snapshot struct {
	An *core.Analyzer
	// Seq increments with every rebuild (0 = the boot-time empty view).
	Seq uint64
	// Records is the number of records folded into this snapshot.
	Records uint64
	// Built is the snapshot's build time.
	Built time.Time
	// Timewin is the bucket layout (per-bucket record counts and the
	// compacted tail span, aggregated across shards) at build time.
	Timewin timewin.Meta

	// overlay counts the records extend cuts replayed into An since its
	// base was made (see core.Engine.Clone): 0 after a fold or a
	// compaction.
	overlay uint64
	// seqHeader and recordsHeader are Seq and Records as the
	// X-Snapshot-* header values every read of this snapshot sends,
	// formatted once at publication (see stamped).
	seqHeader, recordsHeader []string
}

// stamped formats snap's header values and returns it, for publication.
func (snap *Snapshot) stamped() *Snapshot {
	snap.seqHeader = []string{strconv.FormatUint(snap.Seq, 10)}
	snap.recordsHeader = []string{strconv.FormatUint(snap.Records, 10)}
	return snap
}

// extendBudget bounds the records a snapshot cut replays instead of
// folding, over all shards; each shard keeps at most its share. It also
// bounds a published snapshot's overlay: past it the cut compacts the
// overlay into a new base. The replay runs record by record on the
// cutting goroutine, so an extend cut's cost follows the records since
// the last cut, plus a clone that copies the overlay and, once per
// budget, a compaction that copies the state, while a fold's follows
// the whole state. On BenchmarkSnapshotCut's 200,000-record store the
// two meet near 9,000 records, compactions included (DESIGN §5); on
// larger states the fold only costs more.
const extendBudget = 8 * pipeline.BatchSize

func (st *Store) refreshLoop(every time.Duration) {
	defer st.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-tick.C:
			st.Refresh()
		}
	}
}

// current returns the latest published snapshot (never nil).
func (st *Store) current() *Snapshot { return st.snap.Load() }

// Refresh builds a new snapshot now and swaps it in, at a consistent
// prefix of each shard's ingest stream: every batch enqueued before the
// request is in it. When it can, the cut extends the published snapshot:
// it clones that snapshot's engine and observes into the clone the
// batches each shard applied since the last cut. The clone shares the
// snapshot's frozen base and copies only its overlay, the records
// replayed since that base was made (core.Engine.Clone), so a cut costs
// what arrived since the last one plus that overlay; once the overlay
// passes extendBudget records, the cut compacts it into a new base, at
// the cost of one copy of the state. Otherwise — the first cut, the
// first after a restore, or when a shard took more than its share of
// extendBudget records since the last cut — it folds every shard's
// whole partition, each on its shard's goroutine, all at once, so
// ingestion pauses on all of them for the length of one shard's fold.
//
// Refresh is change-aware: when no records arrived since the published
// snapshot it returns that snapshot without rebuilding, so Seq moves
// only when the folded state can differ. That property is what keeps
// the rendered-doc cache hot and /v1/sync long-polls parked across idle
// background refresh ticks (and makes ?fresh=1 polling nearly free on
// an idle daemon) — but it also means a skipped Refresh does not touch
// Built: snapshot_age_s measures time since the data last changed, not
// since the last Refresh call.
func (st *Store) Refresh() (*Snapshot, error) {
	return st.refresh(context.Background())
}

// refresh is Refresh inside a traced context: the cut is a
// "snapshot.cut" span, with a mode attribute (extend or fold) and the
// records it replayed, and a fold adds each shard's merge as a
// "snapshot.shard" child span. Without a span in ctx the cut is traced
// as its own background trace (when the store has a tracer), so periodic
// snapshot cost shows up in the flight recorder too.
func (st *Store) refresh(ctx context.Context) (*Snapshot, error) {
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()
	// Change detection and hand-over: one cheap op round in which each
	// shard reports its record count and bucket layout and hands over the
	// batches it kept since the last cut. Counts only grow and each
	// shard's op runs after every batch enqueued before it, so an
	// unchanged total proves the shard streams are at the same prefix the
	// snapshot holds. Seq 0 (the boot-time empty view) always folds: a
	// restore folds records without publishing, and callers use the first
	// Refresh to surface them.
	cur := st.current()
	cuts := make([]shardCut, len(st.shards))
	extend := false
	if cur.Seq > 0 {
		if st.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
			c := &cuts[i]
			c.records, c.meta = p.Records(), p.Meta()
			c.kept, c.whole = st.shards[i].handOver()
			return nil
		}) != nil {
			return cur, nil
		}
		extend = true
		var total uint64
		for i := range cuts {
			total += cuts[i].records
			extend = extend && cuts[i].whole
		}
		if total == cur.Records {
			st.obsm.snapshotSkips.Inc()
			return cur, nil
		}
	}
	sp := trace.FromContext(ctx)
	cut := sp.Child("snapshot.cut")
	if sp == nil {
		cut = st.tracer.Root("snapshot.cut")
	}
	defer cut.End()
	t0 := time.Now()
	var an *core.Analyzer
	if extend {
		// Clone only reads the published engine, as every reader does.
		an = cur.An.Clone()
	}
	var replayed int64
	var overlay uint64
	for i := range cuts {
		for _, b := range cuts[i].kept {
			if extend {
				for j := range *b {
					an.Engine.Observe(&(*b)[j])
				}
				replayed += int64(len(*b))
			}
			st.batches.put(b)
		}
	}
	if extend {
		// The clone shares the published snapshot's base and copied its
		// overlay. Past the budget, fold the overlay into a new base, so
		// that no clone copies more than the budget's records and no read
		// goes deeper than two layers.
		if overlay = cur.overlay + uint64(replayed); overlay > extendBudget {
			an.Compact()
			overlay = 0
		}
	} else {
		all := []rangeWindow{{}}
		err := st.fill(cut, "snapshot.shard", all, st.cfg.Metrics, func(i int, p *timewin.Partition, dst *core.Engine, _ timewin.Window) (timewin.Coverage, error) {
			p.AllInto(dst)
			c := &cuts[i]
			c.records, c.meta = p.Records(), p.Meta()
			// The fold holds every batch applied so far: keep afresh.
			st.shards[i].drop()
			st.shards[i].keeping = true
			return timewin.Coverage{Buckets: len(c.meta.Buckets), Records: c.records}, nil
		})
		an = all[0].An
		if errors.Is(err, ErrClosed) {
			return st.current(), nil
		}
		if err != nil {
			cut.Fail(err)
			return nil, err
		}
	}
	var records uint64
	var meta timewin.Meta
	for i := range cuts {
		timewin.MergeMeta(&meta, cuts[i].meta)
		records += cuts[i].records
	}
	mode := "fold"
	if extend {
		mode = "extend"
	}
	cut.SetAttrs(trace.Int("records", int64(records)), trace.Str("mode", mode), trace.Int("replayed", replayed),
		trace.Int("overlay", int64(overlay)))
	snap := &Snapshot{
		An:      an,
		Seq:     st.seq.Add(1),
		Records: records,
		Built:   time.Now(),
		Timewin: meta,
		overlay: overlay,
	}
	st.snap.Store(snap.stamped())
	st.changed.wake()
	st.obsm.snapshots.Inc()
	st.obsm.snapshotSeconds.Observe(time.Since(t0).Seconds())
	return snap, nil
}

// shardCut is one shard's part of a snapshot cut: its record count and
// bucket layout at the cut, and the batches it hands over (see
// shard.handOver).
type shardCut struct {
	records uint64
	meta    timewin.Meta
	kept    []*[]logfmt.Record
	whole   bool
}

// ErrNoModule reports a read that names a metric module the store was
// built without (Config.Metrics): the state does not exist, so the read
// cannot be answered at any cost. The HTTP layer maps it to 422.
var ErrNoModule = errors.New("serve: store was built without a needed metric module")

// projection resolves the module set a range read folds: the named
// modules, each of which the store must carry (ErrNoModule otherwise —
// a projected fold of an absent module would panic on the shard
// goroutine), or the store's own set when none are named.
func (st *Store) projection(modules []string) ([]string, error) {
	if len(modules) == 0 {
		return st.cfg.Metrics, nil
	}
	for _, m := range modules {
		if !slices.Contains(st.modules, m) {
			return nil, fmt.Errorf("%w: %q (have %v)", ErrNoModule, m, st.modules)
		}
	}
	return modules, nil
}

// Range merges every bucket the window covers — across all shards —
// into a transient analyzer, the clone-and-Merge query primitive of
// internal/timewin lifted to the sharded store. The zero window is the
// exact all-time view (tail included); a window that begins inside the
// compacted tail fails with *timewin.RetentionError.
//
// modules projects the read: the analyzer carries, and the merge pays
// for, only the named metric modules (derive them with core.ModulesFor
// from the experiments to render). None means the store's whole set.
func (st *Store) Range(w timewin.Window, modules ...string) (*core.Analyzer, timewin.Coverage, error) {
	wins, err := st.read(context.Background(), w, 0, modules...)
	if err != nil {
		return nil, timewin.Coverage{}, err
	}
	return wins[0].An, wins[0].Coverage, nil
}

// rangeWindow is one window of a range read: its bounds, what it
// covered, and the analyzer its buckets merged into.
type rangeWindow struct {
	Window   timewin.Window
	Coverage timewin.Coverage
	An       *core.Analyzer
}

// maxSeriesWindows bounds a single series query; each window costs one
// transient engine per sub-window plus a merge per covered bucket.
const maxSeriesWindows = 1024

// read is every range read, traced under ctx: with step 0 the one
// window w as given, otherwise w split into step-sized sub-windows (see
// windows). It fills one analyzer per window in a single pass over the
// shards, each shard's part a "range.shard" child span carrying the
// buckets and records it merged. modules projects the read as in Range.
func (st *Store) read(ctx context.Context, w timewin.Window, step int64, modules ...string) ([]rangeWindow, error) {
	if step < 0 || step%st.bucketSecs != 0 {
		return nil, st.errStep()
	}
	mods, err := st.projection(modules)
	if err != nil {
		return nil, err
	}
	wins := []rangeWindow{{Window: w}}
	if step > 0 {
		if wins, err = st.windows(w, step); err != nil || len(wins) == 0 {
			return nil, err
		}
	}
	if err = st.fill(trace.FromContext(ctx), "range.shard", wins, mods, st.rangeInto); err != nil {
		return nil, err
	}
	return wins, nil
}

// errStep refuses a series step that does not cut at bucket edges.
func (st *Store) errStep() error {
	return fmt.Errorf("serve: step must be a positive multiple of the bucket width (%ds)", st.bucketSecs)
}

// windows splits [w.From, w.To) into step-sized sub-windows, step a
// positive multiple of the bucket width, so sub-windows align with
// bucket edges (an explicit From is aligned down, an explicit To aligned
// up). Open bounds default to the live ring: an open From starts at the
// oldest bucket live in *every* shard (the compacted tail cannot be
// split into sub-windows), an open To ends after the newest. An explicit
// From inside the tail fails with *timewin.RetentionError when the
// windows are filled. An empty store has no windows.
func (st *Store) windows(w timewin.Window, step int64) ([]rangeWindow, error) {
	// The bucket layout across shards bounds the open sides.
	metas := make([]timewin.Meta, len(st.shards))
	if err := st.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
		metas[i] = p.Meta()
		return nil
	}); err != nil {
		return nil, err
	}
	var meta timewin.Meta
	for _, m := range metas {
		timewin.MergeMeta(&meta, m)
	}
	if len(meta.Buckets) == 0 {
		return nil, nil
	}
	from := w.From
	if from == 0 {
		from = meta.Buckets[0].StartUnix
		// Shard retention horizons can skew by a bucket mid-stream (a
		// shard compacts only when *it* sees the newest bucket); start
		// at the most advanced tail so no sub-window dips into any
		// shard's compacted span. MergeMeta keeps the max tail end.
		if meta.TailToUnix > from {
			from = meta.TailToUnix
		}
	} else {
		// Align down to a bucket edge. Bounds arrive from the query
		// string, so every step from here to the window count is checked
		// against int64 instead of trusted not to wrap.
		rem := ((from % st.bucketSecs) + st.bucketSecs) % st.bucketSecs
		if from < math.MinInt64+rem {
			return nil, fmt.Errorf("serve: range %s starts within a bucket of the smallest time", w)
		}
		from -= rem
	}
	to := w.To
	if to == 0 {
		to = meta.Buckets[len(meta.Buckets)-1].StartUnix + st.bucketSecs
	} else if rem := ((to % st.bucketSecs) + st.bucketSecs) % st.bucketSecs; rem != 0 {
		// Align up: buckets are atomic, so the last window's reported
		// bounds must include the whole bucket it merges.
		if to > math.MaxInt64-(st.bucketSecs-rem) {
			return nil, fmt.Errorf("serve: range %s ends within a bucket of the largest time", w)
		}
		to += st.bucketSecs - rem
	}
	if to <= from {
		return nil, fmt.Errorf("serve: empty range %s", timewin.Window{From: from, To: to})
	}
	// to > from, so the wrapped difference read as unsigned is exact even
	// when it exceeds int64.
	if n := (uint64(to-from)-1)/uint64(step) + 1; n > maxSeriesWindows {
		return nil, fmt.Errorf("serve: range %s at step %ds is %d windows (max %d); widen the step",
			timewin.Window{From: w.From, To: w.To}, step, n, maxSeriesWindows)
	}
	var wins []rangeWindow
	for s := from; s < to; {
		e := to
		if uint64(to-s) > uint64(step) {
			e = s + step
		}
		wins = append(wins, rangeWindow{Window: timewin.Window{From: s, To: e}})
		s = e
	}
	return wins, nil
}

// rangeFingerprint hashes the live content of a window into a cache
// generation for range responses: each shard hashes what a range merge
// over w would fold from it (timewin.Partition.Fingerprint, which also
// carries the soundness argument) and the per-shard hashes are combined
// in shard order. Shard membership is by record hash, so equal
// per-shard content is equal merged content. ok=false means the window
// is not cacheable: the store is closed, or the window begins inside
// some shard's compacted tail (the query itself answers 422 with the
// horizon).
func (st *Store) rangeFingerprint(w timewin.Window) (uint64, bool) {
	fps := make([]uint64, len(st.shards))
	oks := make([]bool, len(st.shards))
	if st.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
		fps[i], oks[i] = p.Fingerprint(w)
		return nil
	}) != nil {
		return 0, false
	}
	h := fnv.New64a()
	var b [8]byte
	for i, fp := range fps {
		if !oks[i] {
			return 0, false
		}
		binary.LittleEndian.PutUint64(b[:], fp)
		h.Write(b[:])
	}
	return h.Sum64(), true
}
