package serve

import (
	"sync"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/timewin"
)

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
	// published snapshot (see refresh), packed into as few batches as
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

// shardQueue is the per-shard batch buffer: enough to keep shards busy,
// small enough that AddCtx exerts backpressure instead of buffering
// unboundedly.
const shardQueue = 8

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

// fill is the one pass that merges the shards' engines into new ones,
// for a fold cut and every range read alike: it gives each of wins (at
// least one) an analyzer over modules (nil = every module), filled on
// every shard at once through each: op merges what shard's partition p
// holds over w into dst and reports what that covered. Each shard's
// span (named name) carries the buckets and records it covered, the
// days it merged from a rollup and the late records it replayed into
// them first, as its coverages sum them (a fold cut merges none).
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
func (st *Store) fill(sp *trace.Span, name string, wins []rangeWindow, modules []string,
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
		var sum timewin.Coverage
		for n, first := 0, i*nw/len(st.shards); n < nw; n++ {
			j := (first + n) % nw
			e := j*k + i%k
			locks[e].Lock()
			c, err := op(i, p, slots[e].Engine, wins[j].Window)
			locks[e].Unlock()
			if err != nil {
				return err
			}
			sum.Extend(c)
			covs[i*nw+j] = c
		}
		ssp.SetAttrs(trace.Int("buckets", int64(sum.Buckets)), trace.Int("records", int64(sum.Records)),
			trace.Int("rollups", int64(sum.Rollups)), trace.Int("replayed", int64(sum.Replayed)))
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
