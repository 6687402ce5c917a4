package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/stats"
)

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

// IngestFiles block-ingests every path (gzip-transparent): one block
// reader goroutine per file, all feeding the shared parse pool. When ctx
// holds a span the block pipeline (read + parse stages, aggregated) and
// each shard enqueue/apply become child spans of it.
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
