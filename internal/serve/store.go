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
	"errors"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/obs"
	"syriafilter/internal/obs/trace"
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

// Stats reports store counters.
func (st *Store) Stats() Stats {
	snap := st.current()
	bytes := st.ingestedBytes.Load()
	// Windowed rate: block-ingest bytes over the last ~10 seconds. An
	// idle daemon reads 0 no matter how much it ingested at boot.
	mbps := math.Round(st.rate.Rate(10)/1e6*100) / 100
	out := Stats{
		Shards:          len(st.shards),
		Metrics:         st.modules,
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

// ErrClosed is returned by range queries against a closed store (the
// last published snapshot keeps serving all-time queries, but the shard
// partitions that range queries merge from are gone).
var ErrClosed = errors.New("serve: store is closed")

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
