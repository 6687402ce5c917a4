// Package serve turns the batch metric engine into a continuously
// running service: a sharded live store ingests log records while an
// immutable snapshot layer serves every experiment of the paper's
// evaluation over HTTP (see Server).
//
// Architecture: N hash-partitioned shards, each a single goroutine that
// owns one timewin.Partition — a ring of per-time-bucket core engines
// plus a frozen all-time tail — and drains a channel of record batches,
// so ingestion is lock-free and never blocks queries. Records reach the
// shards through one routine (ingestAcc), for AddCtx and the block
// ingest paths alike: each is copied once, into its shard's batch, and
// batches come from a store-owned free list — the send hands one to the
// shard goroutine, which puts it back once applied. Everything else
// that touches a partition is a control op the shard runs between its
// batches, so engines are never touched concurrently. Control ops reach
// the shards one way, through each: under the closed-store gate, one op
// per shard, all running at once, each writing its own slot.
//
// Every view merged out of the shards' engines is filled by one pass
// built on each, fill, over a list of windows. A snapshot is atomically
// swapped into place, so queries read a consistent point-in-time engine
// and never take a lock; it is the last snapshot extended by the
// batches the shards applied since, or, when some shard could not keep
// them, the fold of everything: one window of every segment. A range
// read (Store.Range, read) fills one window with the buckets it covers,
// or a step-sized series of them, projected onto the metric modules the
// caller names. Checkpoints cut one file per shard, and a restore
// absorbs them back in one fan-out.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/stats"
	"syriafilter/internal/timewin"
)

// Config configures a Store.
type Config struct {
	// Options configures every shard engine (and snapshot engines).
	Options core.Options
	// Metrics restricts shards to a metric-module subset (nil = every
	// module); derive it with core.ModulesFor to serve fewer experiments
	// more cheaply.
	Metrics []string
	// Shards is the number of engine shards. <= 0 picks GOMAXPROCS,
	// capped at 16.
	Shards int
	// SnapshotEvery rebuilds the read snapshot in the background at this
	// period. 0 disables the background builder: snapshots happen only
	// through Refresh.
	SnapshotEvery time.Duration
	// Bucket is the time-partition width of every shard's bucket ring
	// (see internal/timewin). <= 0 picks one hour.
	Bucket time.Duration
	// Retain is the retention horizon: buckets older than the newest
	// bucket by more than this are compacted into the frozen all-time
	// tail, bounding live memory. 0 keeps every bucket live.
	Retain time.Duration
	// AddTimeout bounds how long AddCtx may block on a full shard queue
	// before shedding the rest of the call with ErrOverloaded (the HTTP
	// ingest path maps it to 429 + Retry-After). One stalled shard then
	// costs at most one deadline per ingest call instead of hanging
	// every handler forever. 0 picks DefaultAddTimeout; negative blocks
	// forever (the pre-shedding behavior).
	AddTimeout time.Duration
	// Logger receives restore-fallback and other rare operational
	// warnings. nil logs nothing.
	Logger *slog.Logger
	// DisableObs turns off all instrumentation: no registry, and nil
	// metric objects, whose methods are no-ops. This is the benchmark
	// baseline, not an expected production setting.
	DisableObs bool
	// Tracer, when non-nil, spans every store operation that a request
	// can wait on — shard enqueue, per-shard apply, range merges,
	// snapshot cuts, checkpoint writes — into the request's trace (or a
	// background trace for periodic work). nil disables tracing at zero
	// cost: every span call is a nil-receiver no-op.
	Tracer *trace.Tracer
}

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

// Stats summarizes a Store for monitoring. IngestedBytes and
// IngestMBPerS only cover the block ingest paths (IngestBlocks,
// IngestFiles, POST /v1/ingest); records delivered through AddCtx have no
// byte representation to count. IngestMBPerS is a windowed rate — bytes
// over the last ~10 seconds — so it reads the daemon's current load, not
// a lifetime average diluted by idle time.
// Timewin is the bucket layout of the latest snapshot. The metric
// families themselves are exported by GET /metrics only.
type Stats struct {
	Shards          int      `json:"shards"`
	Metrics         []string `json:"metrics"`
	Ingested        uint64   `json:"ingested"`
	SnapshotSeq     uint64   `json:"snapshot_seq"`
	SnapshotRecords uint64   `json:"snapshot_records"`
	SnapshotBuilt   string   `json:"snapshot_built"`
	// UptimeS and SnapshotAgeS separate "the process just started" from
	// "the snapshot is stale": a daemon restarted a minute ago off a
	// 6-hour-old checkpoint shows uptime_s=60 with a fresh snapshot,
	// while checkpoint_age_s says how much a crash right now would lose.
	UptimeS      int64 `json:"uptime_s"`
	SnapshotAgeS int64 `json:"snapshot_age_s"`
	// CheckpointAgeS is the age of the last written or restored
	// checkpoint, -1 when none exists yet.
	CheckpointAgeS       int64        `json:"checkpoint_age_s"`
	CheckpointBytes      int64        `json:"checkpoint_bytes,omitempty"`
	CheckpointGeneration string       `json:"checkpoint_generation,omitempty"`
	IngestedBytes        uint64       `json:"ingested_bytes"`
	IngestMBPerS         float64      `json:"ingest_mb_per_s"`
	Timewin              timewin.Meta `json:"timewin"`
	// Build identifies the running binary (version, Go toolchain, VCS
	// revision) so a stats scrape is attributable to a deploy.
	Build obs.Build `json:"build"`
	// Trace summarizes the flight recorder (retention counters, slow
	// threshold); absent when the store runs without a Tracer.
	Trace *trace.RecorderStats `json:"trace,omitempty"`
}

// shardMsg is one unit of shard work: either a batch to observe or a
// control op to run between batches (snapshot merges, checkpoint writes
// and restore folds use ops, so they serialize with ingestion without
// any engine lock).
type shardMsg struct {
	// batch comes from the store's free list and is owned by whoever
	// holds the message: the send hands it to the shard goroutine, which
	// puts it back once applied. nil carries no batch.
	batch *[]logfmt.Record
	op    func(p *timewin.Partition)
	done  chan struct{}
	// span, when non-nil, covers this message's life on the shard: it
	// was started at enqueue time, gets a "dequeued" event when the
	// shard goroutine picks it up (so queue wait and apply time are
	// separable in the trace) and ends after the batch or op ran. The
	// span belongs to the enqueuer's trace; Span is safe to touch from
	// the shard goroutine.
	span *trace.Span
}

type shard struct {
	msgs chan shardMsg
	free *batchPool // where applied batches go back
	// kept holds, in order, the records this shard applied since the last
	// snapshot cut, for the next cut to replay into a clone of the
	// published snapshot (see RefreshCtx), packed into as few batches as
	// they fit. keeping says kept is every change to the partition since
	// that cut: the cut's op sets it, and it is cleared when a batch would
	// take kept past keepCap records, or when anything but this loop's
	// Observe changes the partition (restore's absorb). All of it is
	// touched only on the shard goroutine; a cut takes kept over inside
	// its op.
	kept     []*[]logfmt.Record
	keptRecs int
	keeping  bool
	keepCap  int // records: this shard's share of extendBudget
}

func (s *shard) loop(p *timewin.Partition, wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range s.msgs {
		m.span.Event("dequeued")
		if m.op != nil {
			m.op(p)
			close(m.done)
			m.span.End()
			continue
		}
		if b := m.batch; b != nil {
			for i := range *b {
				p.Observe(&(*b)[i])
			}
			m.span.SetAttrs(trace.Int("records", int64(len(*b))))
			s.keep(b)
		}
		m.span.End()
	}
}

// keep holds an applied batch for the next cut, or puts it back when
// the shard is not keeping or b would take kept past keepCap — in which
// case the shard stops keeping, and the next cut folds. A batch that
// fits in the last kept one is copied into it, so that small sends do
// not pin a whole batch each.
func (s *shard) keep(b *[]logfmt.Record) {
	if !s.keeping || s.keptRecs+len(*b) > s.keepCap {
		s.drop()
		s.free.put(b)
		return
	}
	s.keptRecs += len(*b)
	if n := len(s.kept); n > 0 {
		if last := s.kept[n-1]; len(*last)+len(*b) <= cap(*last) {
			*last = append(*last, *b...)
			s.free.put(b)
			return
		}
	}
	s.kept = append(s.kept, b)
}

// drop puts every kept batch back and stops keeping until the next cut.
func (s *shard) drop() {
	for _, b := range s.kept {
		s.free.put(b)
	}
	s.kept, s.keptRecs, s.keeping = nil, 0, false
}

// handOver starts a cut on the shard goroutine: it returns the batches
// applied since the last cut and whether they are all of what changed
// the partition since, and starts keeping afresh, so every later batch
// belongs to the next cut.
func (s *shard) handOver() (kept []*[]logfmt.Record, whole bool) {
	kept, whole = s.kept, s.keeping
	s.kept, s.keptRecs, s.keeping = nil, 0, true
	return kept, whole
}

// batchPool is the store's free list of shard batches, each of capacity
// pipeline.BatchSize. It holds pointers so that put does not allocate.
type batchPool struct {
	p   sync.Pool
	out atomic.Int64 // batches got and not yet put back
}

func (bp *batchPool) get() *[]logfmt.Record {
	bp.out.Add(1)
	if b, ok := bp.p.Get().(*[]logfmt.Record); ok {
		return b
	}
	b := make([]logfmt.Record, 0, pipeline.BatchSize)
	return &b
}

// put empties b — clearing it first, so the list pins no field strings —
// and returns it to the list. The caller must own b and drop it.
func (bp *batchPool) put(b *[]logfmt.Record) {
	clear(*b)
	*b = (*b)[:0]
	bp.out.Add(-1)
	bp.p.Put(b)
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

// shardQueue is the per-shard batch buffer: enough to keep shards busy,
// small enough that AddCtx exerts backpressure instead of buffering
// unboundedly.
const shardQueue = 8

// DefaultAddTimeout is how long AddCtx blocks on a full shard queue before
// shedding (Config.AddTimeout = 0). Generous: healthy shards drain a
// batch in microseconds, so reaching it means a shard is genuinely
// stalled, not briefly busy.
const DefaultAddTimeout = 10 * time.Second

// ErrOverloaded reports an AddCtx that shed load: a shard queue stayed
// full past the configured deadline. Some batches of the call may have
// been enqueued (the returned count says how many records); the rest
// were dropped. Callers should back off and retry.
var ErrOverloaded = errors.New("serve: store overloaded (shard queue full past deadline)")

// Store is the sharded live store. See the package comment for the
// concurrency design.
type Store struct {
	cfg        Config
	partCfg    timewin.Config // every shard partition's, and what restore decodes for
	modules    []string       // the metric modules every shard engine carries
	bucketSecs int64
	addTimeout time.Duration // 0 = never shed
	logger     *slog.Logger
	shards     []*shard
	batches    batchPool // free list of shard batches (see ingestAcc)
	start      time.Time

	snap      atomic.Pointer[Snapshot]
	seq       atomic.Uint64
	ingested  atomic.Uint64
	refreshMu sync.Mutex // serializes snapshot builds

	changed broadcast // woken at every snapshot publish

	ingestedBytes atomic.Uint64   // raw log bytes through the block paths
	rate          *obs.RateWindow // windowed byte rate behind ingest_mb_per_s

	reg       *obs.Registry // nil when DisableObs
	obsm      storeMetrics  // zero value (all no-ops) when DisableObs
	tracer    *trace.Tracer // nil = tracing disabled
	restoring atomic.Bool   // a checkpoint restore is in flight

	// rangeStall, when non-nil, runs once inside every shard op of fill
	// (each shard's part of a range read or of a fold cut) before its
	// merges — a test hook for injecting per-shard latency so trace
	// attribution can be pinned without depending on real load.
	rangeStall func(shard int)
	// ckptWriteStall, when non-nil, runs before each checkpoint shard
	// file is created — a test hook for holding the file write open to
	// pin that no shard goroutine waits on checkpoint I/O.
	ckptWriteStall func(shard int)

	ckptSeq  atomic.Uint64                  // checkpoint generation counter
	lastCkpt atomic.Pointer[CheckpointInfo] // most recent written or restored checkpoint
	ckptMu   sync.Mutex                     // serializes Checkpoint runs
	// skippedGens holds the generation directories (dir/name) Restore
	// found undecodable; pruning does not count them toward
	// keepGenerations. Guarded by ckptMu.
	skippedGens map[string]bool

	mu     sync.RWMutex // guards closed vs. in-flight sends
	closed bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// NewStore builds the shards and starts their goroutines (plus the
// background snapshot builder when Config.SnapshotEvery is set). The
// initial snapshot is an empty view, so queries work immediately.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 16 {
			cfg.Shards = 16
		}
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Hour
	}
	// Every engine of the store — hourly segments, cuts, range windows,
	// restored partitions — interns §5.4 URL keys into one table, so a
	// range window's URL index is its segments' indexes joined.
	cfg.Options = core.ShareURLIDs(cfg.Options)
	addTimeout := cfg.AddTimeout
	switch {
	case addTimeout == 0:
		addTimeout = DefaultAddTimeout
	case addTimeout < 0:
		addTimeout = 0 // block forever
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	st := &Store{cfg: cfg, bucketSecs: int64(cfg.Bucket / time.Second), addTimeout: addTimeout,
		logger: logger, start: time.Now(), stop: make(chan struct{}),
		rate: &obs.RateWindow{}, tracer: cfg.Tracer, skippedGens: map[string]bool{}}
	if !cfg.DisableObs {
		st.reg = obs.NewRegistry()
		st.obsm = newStoreMetrics(st.reg)
	}
	st.partCfg = timewin.Config{
		Options:   cfg.Options,
		Metrics:   cfg.Metrics,
		Bucket:    cfg.Bucket,
		Retain:    cfg.Retain,
		OnCompact: st.onCompact,
	}
	var retainBuckets int64
	for i := 0; i < cfg.Shards; i++ {
		p, err := timewin.New(st.partCfg)
		if err != nil {
			for _, sh := range st.shards {
				close(sh.msgs)
			}
			return nil, err
		}
		retainBuckets = p.RetainBuckets()
		sh := &shard{msgs: make(chan shardMsg, shardQueue), free: &st.batches,
			keepCap: extendBudget / cfg.Shards}
		st.shards = append(st.shards, sh)
		st.wg.Add(1)
		go sh.loop(p, &st.wg)
	}
	empty, err := core.NewAnalyzerFor(cfg.Options, cfg.Metrics...)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.modules = empty.Metrics()
	st.snap.Store((&Snapshot{An: empty, Built: time.Now(), Timewin: timewin.Meta{
		BucketSeconds: st.bucketSecs,
		RetainBuckets: int(retainBuckets),
	}}).stamped())
	if st.reg != nil {
		st.registerObsFuncs(st.reg)
		obs.RegisterRuntime(st.reg)
	}
	if cfg.SnapshotEvery > 0 {
		st.wg.Add(1)
		go st.refreshLoop(cfg.SnapshotEvery)
	}
	return st, nil
}

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

// shardKey routes a record to its shard: hashing client and host keeps
// related records together while distributing both dimensions.
func shardKey(rec *logfmt.Record) uint64 {
	return stats.Hash64(rec.ClientIP) ^ stats.Hash64(rec.Host)
}

// AddCtx routes records to their shards, in pipeline.BatchSize batches
// per shard, and blocks until every batch is enqueued — backpressure
// under overload, bounded by the configured AddTimeout: if a shard queue
// stays full past the deadline the call sheds the remaining batches and
// returns ErrOverloaded, so one stalled shard cannot hang every ingest
// path forever. The deadline covers the whole call, not each shard.
// Each record is copied once, into its shard's batch (see ingestAcc),
// so the caller may reuse recs. Returns the records actually enqueued
// (all of them when err is nil, 0 with ErrClosed after Close). On
// ErrOverloaded the enqueued count is exact but the enqueued SET is
// not an input-order prefix: records batch by shard hash, and the
// accepted batches are whichever enqueued before the stalled one —
// callers must treat a shed batch as indivisible (see handleIngest).
//
// When ctx holds a span the enqueue wait, the shed decision and each
// per-shard apply become child spans of it (the apply span covers queue
// wait plus fold, with a "dequeued" event separating them).
func (st *Store) AddCtx(ctx context.Context, recs []logfmt.Record) (uint64, error) {
	return st.add(recs, trace.FromContext(ctx))
}

func (st *Store) add(recs []logfmt.Record, sp *trace.Span) (uint64, error) {
	a := st.newIngestAcc(sp)
	for i := 0; i < len(recs) && a.err == nil; i++ {
		a.route(&recs[i])
	}
	a.flush()
	return a.added, a.err
}

// ingestAcc is the one routine records reach their shards through, for
// AddCtx and the block ingest path alike (one accumulator per AddCtx
// call, one per parse worker). It keeps one pending batch per shard,
// taken from the store's free list; route copies each record into the
// batch of the shard its hash picks — the only copy a record makes on
// its way in — and a batch that reaches pipeline.BatchSize is sent
// whole, while flush sends the partial ones. The channel send passes
// ownership: the shard goroutine applies the batch, clears it and puts
// it back on the free list, and the sender never touches it again. So
// on a warm store routing allocates nothing per record. Pending memory
// is bounded at shards × BatchSize records per accumulator. Copied
// records own their field strings (ParseBlock never aliases the block
// buffer), so they outlive the block.
//
// A send that finds its queue full waits against the deadline of its
// scope, armed lazily on the first such wait: an AddCtx call is one scope;
// on the block path every full batch is one and the final flush is
// another. The first send past its deadline sheds: the error sticks, and
// that batch, every other pending one and every later record are
// dropped, never counted.
type ingestAcc struct {
	st      *Store
	sp      *trace.Span        // the request span batches attach to (nil untraced)
	pending []*[]logfmt.Record // per shard; nil until the shard's first record
	added   uint64
	err     error       // sticky: the first failed send
	timer   *time.Timer // the scope's deadline; nil until a send waits
}

func (st *Store) newIngestAcc(sp *trace.Span) *ingestAcc {
	return &ingestAcc{st: st, sp: sp, pending: make([]*[]logfmt.Record, len(st.shards))}
}

// route copies rec into its shard's pending batch and sends the batch if
// that filled it, reporting whether it did.
func (a *ingestAcc) route(rec *logfmt.Record) bool {
	if a.err != nil {
		return false // shedding: the call is already failed
	}
	i := shardKey(rec) % uint64(len(a.pending))
	b := a.pending[i]
	if b == nil {
		b = a.st.batches.get()
		a.pending[i] = b
	}
	*b = append(*b, *rec)
	if len(*b) < pipeline.BatchSize {
		return false
	}
	a.send(int(i))
	return true
}

// flush sends every partial batch in shard order — or, once the
// accumulator has failed, puts them back uncounted — and ends the scope.
func (a *ingestAcc) flush() {
	for i, b := range a.pending {
		if b == nil {
			continue
		}
		if a.err != nil {
			a.pending[i] = nil
			a.st.batches.put(b)
			continue
		}
		a.send(i)
	}
	a.endScope()
}

// endScope stops the scope's deadline: the next send that has to wait
// arms a fresh one.
func (a *ingestAcc) endScope() {
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
}

// send hands shard i's pending batch to its shard.
func (a *ingestAcc) send(i int) {
	b := a.pending[i]
	a.pending[i] = nil
	n := uint64(len(*b))
	st := a.st
	if err := st.begin(); err != nil {
		a.err = err
		st.batches.put(b)
		return
	}
	defer st.mu.RUnlock()
	msg := shardMsg{batch: b}
	if a.sp != nil {
		msg.span = a.sp.Child("shard.apply")
		msg.span.SetAttrs(trace.Int("shard", int64(i)))
	}
	// Backpressure visibility: the fast path (queue has room) records a
	// zero wait, the contended path times the blocking send.
	select {
	case st.shards[i].msgs <- msg:
		st.obsm.backpressure.Observe(0)
		a.added += n
		st.ingested.Add(n)
		return
	default:
	}
	var deadline <-chan time.Time // nil (never ready) when shedding is disabled
	if st.addTimeout > 0 {
		if a.timer == nil {
			a.timer = time.NewTimer(st.addTimeout)
		}
		deadline = a.timer.C
	}
	wait := a.sp.Child("enqueue.wait")
	wait.SetAttrs(trace.Int("shard", int64(i)))
	t0 := time.Now()
	select {
	case st.shards[i].msgs <- msg:
		st.obsm.backpressure.Observe(time.Since(t0).Seconds())
		wait.End()
		a.added += n
		st.ingested.Add(n)
	case <-deadline:
		st.obsm.backpressure.Observe(time.Since(t0).Seconds())
		st.obsm.shed.Inc()
		a.err = fmt.Errorf("%w: shard %d after %v (%d records enqueued)",
			ErrOverloaded, i, st.addTimeout, a.added)
		wait.Fail(a.err)
		wait.End()
		// The apply span was started but its message never enqueued:
		// close it here or the trace would never publish.
		msg.span.Fail(a.err)
		msg.span.End()
		st.batches.put(b)
	}
}

// IngestBlocks drains a block stream into the store with a parse worker
// pool (workers <= 0 uses GOMAXPROCS): line splitting and parsing run
// concurrently instead of on the calling goroutine, so a fat POST body
// or log file no longer decodes on one core. Each worker routes its
// parsed records straight into per-shard batches (see ingestAcc): a
// record is copied once, from the worker's reused parse slot into the
// batch its shard applies. Returns the records added, the malformed
// lines skipped, and the stream's terminal error. On an ErrOverloaded
// shed, added counts an unspecified subset of the stream: each worker's
// sticky error stops only that worker's accumulator, and drops its
// pending batches uncounted, so records after the drop point may still
// have been accepted by other workers — the batch is not resumable from
// added.
func (st *Store) IngestBlocks(br *logfmt.BlockReader, workers int) (added, malformed uint64, err error) {
	return st.ingestBlockSources([]*pipeline.BlockSource{{R: br}}, workers, nil)
}

// IngestBlocksCtx is IngestBlocks carried inside a traced request: the
// block pipeline (read + parse stages, aggregated) and each shard
// enqueue/apply become child spans of the span ctx carries.
func (st *Store) IngestBlocksCtx(ctx context.Context, br *logfmt.BlockReader, workers int) (added, malformed uint64, err error) {
	return st.ingestBlockSources([]*pipeline.BlockSource{{R: br}}, workers, trace.FromContext(ctx))
}

// IngestFiles block-ingests every path (gzip-transparent): one block
// reader goroutine per file, all feeding the shared parse pool. When ctx
// holds a span the pipeline and each shard enqueue/apply become child
// spans of it (see IngestBlocksCtx).
func (st *Store) IngestFiles(ctx context.Context, paths []string, workers int) (added, malformed uint64, err error) {
	srcs, closer, err := pipeline.OpenBlockFiles(paths)
	if err != nil {
		return 0, 0, err
	}
	defer closer.Close()
	return st.ingestBlockSources(srcs, workers, trace.FromContext(ctx))
}

func (st *Store) ingestBlockSources(srcs []*pipeline.BlockSource, workers int, sp *trace.Span) (uint64, uint64, error) {
	psp := sp.Child("pipeline.blocks")
	out, stats, err := pipeline.RunBlockSources(srcs, workers, st.onBlock,
		func() *ingestAcc { return st.newIngestAcc(sp) },
		func(a *ingestAcc, rec *logfmt.Record) {
			if a.route(rec) {
				a.endScope() // one deadline per full batch
			}
		},
		func(dst, src *ingestAcc) {
			src.flush()
			dst.added += src.added
			if dst.err == nil {
				dst.err = src.err
			}
		},
	)
	out.flush()
	st.ingestedBytes.Add(stats.Bytes)
	// A store-side failure (shedding, closed) outranks the stream error:
	// it is what the caller must react to (back off, retry).
	if out.err != nil {
		err = out.err
	}
	// The pipeline's two stages (reading bytes vs parsing them) are
	// attributed as run totals on one span: per-block spans would drown
	// the trace, per-stage totals are what attribution needs.
	if psp != nil {
		psp.SetAttrs(
			trace.Int("records", int64(stats.Records)),
			trace.Int("malformed", int64(stats.Malformed)),
			trace.Int("bytes", int64(stats.Bytes)),
			trace.Float("read_s", stats.ReadSeconds),
			trace.Float("parse_s", stats.ParseSeconds),
		)
		psp.Fail(err)
		psp.End()
	}
	return out.added, stats.Malformed, err
}

// Current returns the latest published snapshot (never nil).
func (st *Store) Current() *Snapshot { return st.snap.Load() }

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
func (st *Store) Refresh() (*Snapshot, error) {
	return st.RefreshCtx(context.Background())
}

// RefreshCtx is Refresh inside a traced context: the cut is a
// "snapshot.cut" span, with a mode attribute (extend or fold) and the
// records it replayed, and a fold adds each shard's merge as a
// "snapshot.shard" child span. Without a span in ctx the cut is traced
// as its own background trace (when the store has a tracer), so periodic
// snapshot cost shows up in the flight recorder too.
//
// RefreshCtx is change-aware: when no records arrived since the
// published snapshot it returns that snapshot without rebuilding, so
// Seq moves only when the folded state can differ. That property is
// what keeps the rendered-doc cache hot and /v1/sync long-polls parked
// across idle background refresh ticks (and makes ?fresh=1 polling
// nearly free on an idle daemon) — but it also means a skipped Refresh
// does not touch Built: snapshot_age_s measures time since the data
// last changed, not since the last Refresh call.
func (st *Store) RefreshCtx(ctx context.Context) (*Snapshot, error) {
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
	cur := st.Current()
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
		all := []RangeWindow{{}}
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
			return st.Current(), nil
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

// ChangeSignal returns a channel closed at the next snapshot publish: a
// broadcast, so fetch it before reading Current and again after every
// wakeup.
func (st *Store) ChangeSignal() <-chan struct{} { return st.changed.wait() }

// Done returns a channel closed when the store shuts down, so parked
// long-polls can bail out instead of stalling Close.
func (st *Store) Done() <-chan struct{} { return st.stop }

// Registry returns the store's metric registry (nil with DisableObs).
// Serve it at GET /metrics; Server does this automatically.
func (st *Store) Registry() *obs.Registry { return st.reg }

// Restoring reports whether a checkpoint restore is in flight — the
// store answers queries (against whatever is already folded) but a
// readiness probe should report not-ready.
func (st *Store) Restoring() bool { return st.restoring.Load() }

// ErrClosed is returned by range queries against a closed store (the
// last published snapshot keeps serving all-time queries, but the shard
// partitions that range queries merge from are gone).
var ErrClosed = errors.New("serve: store is closed")

// ErrNoModule reports a read that names a metric module the store was
// built without (Config.Metrics): the state does not exist, so the read
// cannot be answered at any cost. The HTTP layer maps it to 422.
var ErrNoModule = errors.New("serve: store was built without a needed metric module")

// begin opens a run of shard ops: it takes the read side of st.mu, which
// keeps the shard channels open, and fails with ErrClosed on a closed
// store. On success the caller releases with st.mu.RUnlock once its ops
// have been awaited.
func (st *Store) begin() error {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return ErrClosed
	}
	return nil
}

// shardFn is a control op as each hands it out: with its shard index and
// the child span (nil untraced) that covers its queue wait plus
// execution, for result attrs. Its error fails that span.
type shardFn func(shard int, sp *trace.Span, p *timewin.Partition) error

// enqueue sends op to shard i, behind every message already queued
// there, and returns the channel closed once it ran; the op's error
// lands in *errp. Under a parent span the op gets a child span named
// name (attrs: shard index) with a "dequeued" event at pickup — the
// per-shard attribution a slow trace needs. The caller must hold the
// closed-store gate, or be shutdown's final op.
func (st *Store) enqueue(i int, sp *trace.Span, name string, op shardFn, errp *error) <-chan struct{} {
	done := make(chan struct{})
	child := sp.Child(name)
	child.SetAttrs(trace.Int("shard", int64(i)))
	st.shards[i].msgs <- shardMsg{op: func(p *timewin.Partition) {
		*errp = op(i, child, p)
		child.Fail(*errp)
	}, done: done, span: child}
	return done
}

// each is the one way a control op reaches the shards: it enqueues op on
// every shard and only then waits for all of them, so the shards run
// their ops at once and the wall-clock cost is the slowest shard's. Each
// op observes its shard after every batch enqueued before it, and writes
// only to its own per-shard slot (index by the shard argument); the
// caller combines the slots in shard order once each returns, so the
// result does not depend on how the ops interleaved. The error is the
// first op's in shard order.
//
// each takes the closed-store gate for the fan-out, and on a closed
// store runs nothing and returns ErrClosed — the one place a control op
// reports it. held skips the gate for the checkpoint cut, whose caller
// holds it already (CheckpointCtx) or runs after the close
// (CloseAndCheckpoint).
func (st *Store) each(held bool, sp *trace.Span, name string, op shardFn) error {
	if !held {
		if err := st.begin(); err != nil {
			return err
		}
		defer st.mu.RUnlock()
	}
	errs := make([]error, len(st.shards))
	dones := make([]<-chan struct{}, len(st.shards))
	for i := range st.shards {
		dones[i] = st.enqueue(i, sp, name, op, &errs[i])
	}
	for _, done := range dones {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

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

// RangeWindow is one window of a range read: its bounds, what it
// covered, and the analyzer its buckets merged into.
type RangeWindow struct {
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
func (st *Store) read(ctx context.Context, w timewin.Window, step int64, modules ...string) ([]RangeWindow, error) {
	if step < 0 || step%st.bucketSecs != 0 {
		return nil, st.errStep()
	}
	mods, err := st.projection(modules)
	if err != nil {
		return nil, err
	}
	wins := []RangeWindow{{Window: w}}
	if step > 0 {
		if wins, err = st.windows(w, step); err != nil || len(wins) == 0 {
			return nil, err
		}
	}
	err = st.fill(trace.FromContext(ctx), "range.shard", wins, mods,
		func(_ int, p *timewin.Partition, dst *core.Engine, w timewin.Window) (timewin.Coverage, error) {
			return st.rangeInto(p, dst, w)
		})
	if err != nil {
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
func (st *Store) windows(w timewin.Window, step int64) ([]RangeWindow, error) {
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
	var wins []RangeWindow
	for s := from; s < to; {
		e := to
		if uint64(to-s) > uint64(step) {
			e = s + step
		}
		wins = append(wins, RangeWindow{Window: timewin.Window{From: s, To: e}})
		s = e
	}
	return wins, nil
}

// fill is the one pass that merges the shards' engines into new ones,
// for a fold cut and every range read alike: it gives each of wins (at
// least one) an analyzer over modules (nil = every module), filled on
// every shard at once through each: op merges what shard's partition p
// holds over w into dst and reports what that covered. Each shard's
// span (named name) carries the buckets and records it covered, the
// days it merged from a rollup and the late records it replayed into
// them first (timewin.Partition.Rollups; a fold cut merges none).
//
// Each window has k = ⌈shards ÷ windows⌉ engines, its slots. Shard i
// starts at window i·windows/shards and wraps around, merging into slot
// i mod k of each under that engine's lock; then each window's slots
// merge in slot order and its coverage combines in shard order. So one
// window (a fold cut, a single-window read) has an uncontended engine
// per shard, merged in shard order, and a series of at least as many
// windows as shards one shared engine per window, never shards ×
// windows. Merge order does not change an engine's state (core's
// TestModuleLaws), so the interleaving does not show.
func (st *Store) fill(sp *trace.Span, name string, wins []RangeWindow, modules []string,
	op func(shard int, p *timewin.Partition, dst *core.Engine, w timewin.Window) (timewin.Coverage, error)) error {
	nw := len(wins)
	k := (len(st.shards) + nw - 1) / nw
	slots := make([]*core.Analyzer, nw*k)
	for e := range slots {
		an, err := core.NewAnalyzerFor(st.cfg.Options, modules...)
		if err != nil {
			return err
		}
		slots[e] = an
	}
	locks := make([]sync.Mutex, len(slots))
	covs := make([]timewin.Coverage, len(st.shards)*nw)
	if err := st.each(false, sp, name, func(i int, ssp *trace.Span, p *timewin.Partition) error {
		if st.rangeStall != nil {
			st.rangeStall(i)
		}
		var buckets, records int64
		days, replayed := p.Rollups()
		for n, first := 0, i*nw/len(st.shards); n < nw; n++ {
			j := (first + n) % nw
			e := j*k + i%k
			locks[e].Lock()
			c, err := op(i, p, slots[e].Engine, wins[j].Window)
			locks[e].Unlock()
			if err != nil {
				return err
			}
			buckets += int64(c.Buckets)
			records += int64(c.Records)
			covs[i*nw+j] = c
		}
		d, r := p.Rollups()
		ssp.SetAttrs(trace.Int("buckets", buckets), trace.Int("records", records),
			trace.Int("rollups", int64(d-days)), trace.Int("replayed", int64(r-replayed)))
		return nil
	}); err != nil {
		return err
	}
	for j := range wins {
		an := slots[j*k]
		for _, o := range slots[j*k+1 : (j+1)*k] {
			an.Merge(o)
		}
		wins[j].An = an
		for i := range st.shards {
			wins[j].Coverage.Extend(covs[i*nw+j])
		}
	}
	return nil
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

// Stats reports store counters.
func (st *Store) Stats() Stats {
	snap := st.Current()
	metrics := st.cfg.Metrics
	if metrics == nil {
		metrics = core.AllMetrics()
	}
	bytes := st.ingestedBytes.Load()
	// Windowed rate: block-ingest bytes over the last ~10 seconds. An
	// idle daemon reads 0 no matter how much it ingested at boot.
	mbps := math.Round(st.rate.Rate(10)/1e6*100) / 100
	out := Stats{
		Shards:          len(st.shards),
		Metrics:         metrics,
		Ingested:        st.ingested.Load(),
		SnapshotSeq:     snap.Seq,
		SnapshotRecords: snap.Records,
		SnapshotBuilt:   snap.Built.UTC().Format(time.RFC3339),
		UptimeS:         int64(time.Since(st.start).Seconds()),
		SnapshotAgeS:    int64(time.Since(snap.Built).Seconds()),
		CheckpointAgeS:  -1,
		IngestedBytes:   bytes,
		IngestMBPerS:    mbps,
		Timewin:         snap.Timewin,
	}
	if ck := st.lastCkpt.Load(); ck != nil {
		out.CheckpointAgeS = int64(time.Since(time.Unix(ck.CreatedUnix, 0)).Seconds())
		out.CheckpointBytes = ck.Bytes
		out.CheckpointGeneration = ck.Generation
	}
	out.Build = obs.ReadBuild()
	if st.tracer != nil {
		ts := st.tracer.Recorder().Stats()
		ts.SlowThresholdMS = float64(st.tracer.Slow()) / float64(time.Millisecond)
		out.Trace = ts
	}
	return out
}

// Tracer returns the store's tracer (nil when tracing is disabled).
func (st *Store) Tracer() *trace.Tracer { return st.tracer }

// Close stops the background builder and the shard goroutines. AddCtx
// becomes a no-op; the last published snapshot keeps serving.
func (st *Store) Close() { st.shutdown(nil) }

// CloseAndCheckpoint closes the store and cuts one final checkpoint
// into dir on the way down, in the only order that cannot lose data:
// new ingestion is rejected first, then the checkpoint ops run on the
// shard goroutines — each shard's channel is FIFO, so every batch
// acked (enqueued) before the close drains into the partition before
// its checkpoint is cut — and only then do the shard goroutines stop.
// This is what makes a graceful SIGTERM in cmd/censord persist
// everything POST /v1/ingest acknowledged.
func (st *Store) CloseAndCheckpoint(dir string) (CheckpointInfo, error) {
	var info CheckpointInfo
	err := ErrClosed
	st.shutdown(func() { info, err = st.checkpointSpan(dir, nil) })
	return info, err
}

// shutdown marks the store closed (rejecting new Adds), runs the
// optional final op while the shard goroutines are still draining
// their queues, then closes the channels and waits the goroutines out.
func (st *Store) shutdown(final func()) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	close(st.stop)
	st.mu.Unlock()
	// Between here and closing the channels only ops sent by final can
	// enter the shards: AddCtx and the public op paths check closed, and
	// any send that won the race against closed=true completed while we
	// held the write lock.
	if final != nil {
		final()
	}
	for _, sh := range st.shards {
		close(sh.msgs)
	}
	st.wg.Wait()
}
