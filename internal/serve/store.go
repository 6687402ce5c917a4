// Package serve turns the batch metric engine into a continuously
// running service: a sharded live store ingests log records while an
// immutable snapshot layer serves every experiment of the paper's
// evaluation over HTTP (see Server).
//
// Architecture: N hash-partitioned shards, each a single goroutine that
// owns one timewin.Partition — a ring of per-time-bucket core engines
// plus a frozen all-time tail — and drains a channel of record batches,
// so ingestion is lock-free and never blocks queries. Records reach the
// shards through one routine (ingestAcc), for Add and the block ingest
// paths alike: each is copied once, into its shard's batch, and batches
// come from a store-owned free list — the send hands one to the shard
// goroutine, which puts it back once applied. Everything else
// that touches a partition is a control op the shard runs between its
// batches, so engines are never touched concurrently. Control ops reach
// the shards one way, through each: under the closed-store gate, one op
// per shard, all running at once, each writing its own slot. The one
// exception is RangeSeries' window pass, which walks the shards one at a
// time because they share its per-window engines.
//
// Every whole-store view is cut by fold, built on each: an engine per
// shard, filled at once and merged in shard order. A snapshot is the
// fold of everything, atomically swapped into place, so queries read a
// consistent point-in-time engine and never take a lock. A range query
// (Store.Range) folds only the buckets a time window covers and the
// metric modules the caller names; Store.RangeSeries walks the shards
// into one engine per sub-window. Checkpoints cut one file per shard,
// and a restore absorbs them back in one fan-out.
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
	// AddTimeout bounds how long Add may block on a full shard queue
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
}

// Stats summarizes a Store for monitoring. IngestedBytes and
// IngestMBPerS only cover the block ingest paths (IngestBlocks,
// IngestFiles, POST /v1/ingest); records delivered through Add have no
// byte representation to count. IngestMBPerS is a windowed rate — bytes
// over the last ~10 seconds — so it reads the daemon's current load, not
// a lifetime average diluted by idle time.
// Timewin is the bucket layout of the latest snapshot. Obs is the full
// metric registry snapshot (the JSON face of GET /metrics); absent
// when the store runs with DisableObs.
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
			s.free.put(b)
		}
		m.span.End()
	}
}

// batchPool is the store's free list of shard batches, each of capacity
// pipeline.BatchSize. It holds pointers so that put does not allocate.
type batchPool struct{ p sync.Pool }

func (bp *batchPool) get() *[]logfmt.Record {
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
	bp.p.Put(b)
}

// shardQueue is the per-shard batch buffer: enough to keep shards busy,
// small enough that Add exerts backpressure instead of buffering
// unboundedly.
const shardQueue = 8

// DefaultAddTimeout is how long Add blocks on a full shard queue before
// shedding (Config.AddTimeout = 0). Generous: healthy shards drain a
// batch in microseconds, so reaching it means a shard is genuinely
// stalled, not briefly busy.
const DefaultAddTimeout = 10 * time.Second

// ErrOverloaded reports an Add that shed load: a shard queue stayed
// full past the configured deadline. Some batches of the call may have
// been enqueued (the returned count says how many records); the rest
// were dropped. Callers should back off and retry.
var ErrOverloaded = errors.New("serve: store overloaded (shard queue full past deadline)")

// Store is the sharded live store. See the package comment for the
// concurrency design.
type Store struct {
	cfg        Config
	modules    []string // the metric modules every shard engine carries
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

	// rangeStall, when non-nil, runs inside every range shard op before
	// the merge — a test hook for injecting per-shard latency so trace
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
	var retainBuckets int64
	for i := 0; i < cfg.Shards; i++ {
		p, err := timewin.New(timewin.Config{
			Options:   cfg.Options,
			Metrics:   cfg.Metrics,
			Bucket:    cfg.Bucket,
			Retain:    cfg.Retain,
			OnCompact: st.onCompact,
		})
		if err != nil {
			for _, sh := range st.shards {
				close(sh.msgs)
			}
			return nil, err
		}
		retainBuckets = p.RetainBuckets()
		sh := &shard{msgs: make(chan shardMsg, shardQueue), free: &st.batches}
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
	st.snap.Store(&Snapshot{An: empty, Built: time.Now(), Timewin: timewin.Meta{
		BucketSeconds: st.bucketSecs,
		RetainBuckets: int(retainBuckets),
	}})
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

// Add routes records to their shards, in pipeline.BatchSize batches per
// shard, and blocks until every batch is enqueued — backpressure under
// overload, bounded by the configured AddTimeout: if a shard queue
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
func (st *Store) Add(recs []logfmt.Record) (uint64, error) {
	return st.add(recs, nil)
}

// AddCtx is Add carried inside a traced request: when ctx holds a span
// the enqueue wait, the shed decision and each per-shard apply become
// child spans of it (the apply span covers queue wait plus fold, with a
// "dequeued" event separating them).
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
// Add and the block ingest path alike (one accumulator per Add call, one
// per parse worker). It keeps one pending batch per shard, taken from
// the store's free list; route copies each record into the batch of the
// shard its hash picks — the only copy a record makes on its way in —
// and a batch that reaches pipeline.BatchSize is sent whole, while
// flush sends the partial ones. The channel send passes ownership: the
// shard goroutine applies the batch, clears it and puts it back on the
// free list, and the sender never touches it again. So on a warm store
// routing allocates nothing per record. Pending memory is bounded at
// shards × BatchSize records per accumulator. Copied records own their
// field strings (ParseBlock never aliases the block buffer), so they
// outlive the block.
//
// A send that finds its queue full waits against the deadline of its
// scope, armed lazily on the first such wait: an Add call is one scope;
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
// reader goroutine per file, all feeding the shared parse pool.
func (st *Store) IngestFiles(paths []string, workers int) (added, malformed uint64, err error) {
	return st.IngestFilesCtx(context.Background(), paths, workers)
}

// IngestFilesCtx is IngestFiles under a traced context (see
// IngestBlocksCtx).
func (st *Store) IngestFilesCtx(ctx context.Context, paths []string, workers int) (added, malformed uint64, err error) {
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

// Refresh builds a new snapshot now and swaps it in: the fold of every
// shard's whole partition, each merged on its shard's goroutine after
// the batches enqueued before the request, so the snapshot is a
// consistent prefix of each shard's ingest stream. The shards merge at
// the same time: ingestion pauses on all of them for the length of one
// shard's merge instead of on each in turn.
func (st *Store) Refresh() (*Snapshot, error) {
	return st.RefreshCtx(context.Background())
}

// RefreshCtx is Refresh inside a traced context: each shard's merge
// becomes a "snapshot.shard" child span. Without a span in ctx the cut
// is traced as its own background "snapshot.cut" trace (when the store
// has a tracer), so periodic snapshot cost shows up in the flight
// recorder too.
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
	// Change detection: one cheap op round summing the shards' record
	// counts. Counts only grow and each shard's op runs after every
	// batch enqueued before it, so an unchanged total proves the shard
	// streams are at the same prefix the snapshot folded. Seq 0 (the
	// boot-time empty view) always rebuilds: a restore folds records
	// without publishing, and callers use the first Refresh to surface
	// them.
	if cur := st.Current(); cur.Seq > 0 {
		counts := make([]uint64, len(st.shards))
		if st.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
			counts[i] = p.Records()
			return nil
		}) != nil {
			return cur, nil
		}
		var total uint64
		for _, n := range counts {
			total += n
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
	metas := make([]timewin.Meta, len(st.shards))
	counts := make([]uint64, len(st.shards))
	an, err := st.fold(cut, "snapshot.shard", st.cfg.Metrics, func(i int, _ *trace.Span, p *timewin.Partition, dst *core.Engine) error {
		p.AllInto(dst)
		metas[i] = p.Meta()
		counts[i] = p.Records()
		return nil
	})
	if errors.Is(err, ErrClosed) {
		return st.Current(), nil
	}
	if err != nil {
		cut.Fail(err)
		return nil, err
	}
	var records uint64
	var meta timewin.Meta
	for i := range metas {
		timewin.MergeMeta(&meta, metas[i])
		records += counts[i]
	}
	cut.SetAttrs(trace.Int("records", int64(records)))
	snap := &Snapshot{
		An:      an,
		Seq:     st.seq.Add(1),
		Records: records,
		Built:   time.Now(),
		Timewin: meta,
	}
	st.snap.Store(snap)
	st.changed.wake()
	st.obsm.snapshots.Inc()
	st.obsm.snapshotSeconds.Observe(time.Since(t0).Seconds())
	return snap, nil
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

// each is the one way a control op reaches the shards (bar RangeSeries'
// window pass): it enqueues op on every shard and only then waits for
// all of them, so the shards run their ops at once and the wall-clock
// cost is the slowest shard's. Each op observes its shard after every
// batch enqueued before it, and writes only to its own per-shard slot
// (index by the shard argument); the caller combines the slots in shard
// order once each returns, so the result does not depend on how the ops
// interleaved. The error is the first op's in shard order.
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

// fold is the read every whole-store view is cut by: one empty analyzer
// per shard over the given modules (nil = every module), filled by op on
// every shard at once through each, and the per-shard analyzers merged
// into the first in shard order — so one shard means one engine and no
// extra merge.
func (st *Store) fold(sp *trace.Span, name string, modules []string,
	op func(shard int, sp *trace.Span, p *timewin.Partition, dst *core.Engine) error) (*core.Analyzer, error) {
	parts := make([]*core.Analyzer, len(st.shards))
	for i := range parts {
		an, err := core.NewAnalyzerFor(st.cfg.Options, modules...)
		if err != nil {
			return nil, err
		}
		parts[i] = an
	}
	if err := st.each(false, sp, name, func(i int, ssp *trace.Span, p *timewin.Partition) error {
		return op(i, ssp, p, parts[i].Engine)
	}); err != nil {
		return nil, err
	}
	for _, an := range parts[1:] {
		parts[0].Merge(an)
	}
	return parts[0], nil
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
	return st.RangeCtx(context.Background(), w, modules...)
}

// RangeCtx is Range inside a traced request: each shard's bucket merge
// becomes a "range.shard" child span carrying the shard index and the
// buckets/records it merged, so a slow range query's trace shows which
// shard (and which stage — queue wait vs merge) ate the time.
func (st *Store) RangeCtx(ctx context.Context, w timewin.Window, modules ...string) (*core.Analyzer, timewin.Coverage, error) {
	mods, err := st.projection(modules)
	if err != nil {
		return nil, timewin.Coverage{}, err
	}
	covs := make([]timewin.Coverage, len(st.shards))
	an, err := st.fold(trace.FromContext(ctx), "range.shard", mods, func(i int, ssp *trace.Span, p *timewin.Partition, dst *core.Engine) error {
		if st.rangeStall != nil {
			st.rangeStall(i)
		}
		c, err := st.rangeInto(p, dst, w)
		if err != nil {
			return err
		}
		covs[i] = c
		ssp.SetAttrs(trace.Int("buckets", int64(c.Buckets)), trace.Int("records", int64(c.Records)))
		return nil
	})
	if err != nil {
		return nil, timewin.Coverage{}, err
	}
	var cov timewin.Coverage
	for _, c := range covs {
		cov.Extend(c)
	}
	return an, cov, nil
}

// RangeWindow is one sub-window of a RangeSeries result.
type RangeWindow struct {
	Window   timewin.Window
	Coverage timewin.Coverage
	An       *core.Analyzer
}

// maxSeriesWindows bounds a single series query; each window costs one
// transient engine per sub-window plus a merge per covered bucket.
const maxSeriesWindows = 1024

// RangeSeries splits [w.From, w.To) into step-sized sub-windows and
// merges each one's buckets into its own transient analyzer, in a
// single pass over the shards. step must be a positive multiple of the
// bucket width so sub-windows align with bucket edges (an explicit From
// is aligned down, an explicit To aligned up). Open bounds default to
// the live ring: an open From starts at the oldest bucket live in
// *every* shard (the compacted tail cannot be split into sub-windows),
// an open To ends after the newest. An explicit From inside the tail
// fails with *timewin.RetentionError. modules projects the read as in
// Range.
func (st *Store) RangeSeries(w timewin.Window, step int64, modules ...string) ([]RangeWindow, error) {
	return st.RangeSeriesCtx(context.Background(), w, step, modules...)
}

// RangeSeriesCtx is RangeSeries inside a traced request; per-shard
// merges span like RangeCtx (one "range.shard" child per shard covers
// all that shard's sub-window merges). Unlike RangeCtx the shards are
// walked one at a time into one shared set of per-window engines:
// fanning out would need shards × windows transient engines, unbounded
// at maxSeriesWindows.
func (st *Store) RangeSeriesCtx(ctx context.Context, w timewin.Window, step int64, modules ...string) ([]RangeWindow, error) {
	if step <= 0 || step%st.bucketSecs != 0 {
		return nil, fmt.Errorf("serve: step must be a positive multiple of the bucket width (%ds)", st.bucketSecs)
	}
	mods, err := st.projection(modules)
	if err != nil {
		return nil, err
	}
	// The bucket layout across shards (the snapshot's Timewin field is
	// the same thing frozen at build time) bounds the open sides.
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
		an, err := core.NewAnalyzerFor(st.cfg.Options, mods...)
		if err != nil {
			return nil, err
		}
		wins = append(wins, RangeWindow{Window: timewin.Window{From: s, To: e}, An: an})
		s = e
	}
	// The window pass is the one shard walk that does not go through
	// each: the shards share the per-window engines, so they take turns.
	if err := st.begin(); err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	sp := trace.FromContext(ctx)
	for i := range st.shards {
		<-st.enqueue(i, sp, "range.shard", func(shard int, ssp *trace.Span, p *timewin.Partition) error {
			if st.rangeStall != nil {
				st.rangeStall(shard)
			}
			var buckets, records int64
			for j := range wins {
				c, err := st.rangeInto(p, wins[j].An.Engine, wins[j].Window)
				if err != nil {
					return err
				}
				buckets += int64(c.Buckets)
				records += int64(c.Records)
				wins[j].Coverage.Extend(c)
			}
			ssp.SetAttrs(trace.Int("buckets", buckets), trace.Int("records", records))
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
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

// Close stops the background builder and the shard goroutines. Add
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
	// enter the shards: Add and the public op paths check closed, and
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
