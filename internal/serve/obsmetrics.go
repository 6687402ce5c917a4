package serve

import (
	"strconv"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/timewin"
)

// storeMetrics holds the store's event-driven instruments. Every field
// is a nil-safe obs object, so the zero value (Config.DisableObs) is a
// complete set of no-ops — the ingest and checkpoint paths carry one
// code path whether or not the store is instrumented, which is exactly
// what BenchmarkObsOverhead compares.
type storeMetrics struct {
	records      *obs.Counter
	malformed    *obs.Counter
	bytes        *obs.Counter
	parseSeconds *obs.Histogram
	readSeconds  *obs.Histogram
	backpressure *obs.Histogram
	shed         *obs.Counter

	snapshots       *obs.Counter
	snapshotSkips   *obs.Counter
	snapshotSeconds *obs.Histogram

	rangeMergeBuckets *obs.Counter
	rangeMergeSeconds *obs.Histogram

	compactions *obs.Counter

	checkpointWrite  *obs.Histogram
	framesEncoded    *obs.Counter
	framesReused     *obs.Counter
	restores         *obs.Counter
	restoreFallbacks *obs.Counter
}

func newStoreMetrics(r *obs.Registry) storeMetrics {
	return storeMetrics{
		records: r.Counter("censord_ingest_records_total",
			"Well-formed records parsed by the block ingest paths."),
		malformed: r.Counter("censord_ingest_malformed_total",
			"Malformed lines skipped by the block ingest paths."),
		bytes: r.Counter("censord_ingest_bytes_total",
			"Raw log bytes consumed by the block ingest paths (post-gunzip)."),
		parseSeconds: r.Histogram("censord_ingest_parse_seconds",
			"Per-block parse latency (its _count is the blocks parsed).", nil),
		readSeconds: r.Histogram("censord_ingest_read_seconds",
			"Per-block read latency (file/socket I/O plus line snapping, "+
				"before parsing) — the upstream half of ingest.", nil),
		backpressure: r.Histogram("censord_ingest_backpressure_seconds",
			"Time Add spent blocked on a full shard queue (0 = enqueued immediately).", nil),
		shed: r.Counter("censord_ingest_shed_total",
			"Ingest calls shed with ErrOverloaded (HTTP 429) after blocking "+
				"the full backpressure deadline on a stalled shard."),

		snapshots: r.Counter("censord_snapshot_cuts_total",
			"Snapshot rebuilds (Refresh calls that completed)."),
		snapshotSkips: r.Counter("censord_snapshot_skips_total",
			"Refresh calls that found no new records and kept the published "+
				"snapshot (Seq unchanged, so doc-cache keys and sync tokens stay put)."),
		snapshotSeconds: r.Histogram("censord_snapshot_build_seconds",
			"Snapshot build duration.", nil),

		rangeMergeBuckets: r.Counter("censord_range_merge_buckets_total",
			"Bucket merges performed by range queries across all shards."),
		rangeMergeSeconds: r.Histogram("censord_range_merge_seconds",
			"Per-shard range merge duration (its _count is the merges: "+
				"RangeInto calls that covered something).", nil),

		compactions: r.Counter("censord_timewin_compactions_total",
			"Retention compaction passes across all shard partitions."),

		checkpointWrite: r.Histogram("censord_checkpoint_write_seconds",
			"Checkpoint write duration (all shards, fsyncs included; "+
				"its _count is the checkpoints written).", nil),
		framesEncoded: r.Counter("censord_checkpoint_frames_encoded_total",
			"Bucket and tail frames checkpoints had to encode: their "+
				"record count moved since the frame was last cut."),
		framesReused: r.Counter("censord_checkpoint_frames_reused_total",
			"Bucket and tail frames checkpoints wrote from the memo "+
				"without encoding (unchanged since cut, or seeded by a restore)."),
		restores: r.Counter("censord_checkpoint_restores_total",
			"Checkpoints restored."),
		restoreFallbacks: r.Counter("censord_checkpoint_restore_fallbacks_total",
			"Checkpoint generations skipped during restore because they "+
				"failed to decode (corruption, truncation, config mismatch)."),
	}
}

// onBlock is the pipeline's per-block hook: it feeds the ingest
// instruments and the windowed byte rate as blocks complete (so a long
// streaming POST moves ingest_mb_per_s while still running).
func (st *Store) onBlock(b pipeline.BlockStats) {
	st.obsm.records.Add(b.Records)
	st.obsm.malformed.Add(b.Malformed)
	st.obsm.bytes.Add(b.Bytes)
	st.obsm.readSeconds.Observe(b.ReadSeconds)
	st.obsm.parseSeconds.Observe(b.ParseSeconds)
	st.rate.Add(b.Bytes)
}

// onCompact is every shard partition's compaction hook; it fires on the
// shard goroutines concurrently, which the atomic obs objects allow.
// Compaction passes — rare, inline with ingest, and invisible to any
// single request — are also recorded as single-span background traces so
// an ingest stall caused by a big compaction shows up in the flight
// recorder.
func (st *Store) onCompact(buckets int, seconds float64) {
	st.obsm.compactions.Inc()
	st.tracer.Op("timewin.compact",
		time.Now().Add(-time.Duration(seconds*float64(time.Second))), nil,
		trace.Int("buckets", int64(buckets)))
}

// rangeInto is every range read's per-shard merge, measured where it
// runs: one that covered something counts in the range-merge metrics.
func (st *Store) rangeInto(p *timewin.Partition, dst *core.Engine, w timewin.Window) (timewin.Coverage, error) {
	t0 := time.Now()
	c, err := p.RangeInto(dst, w)
	if c.Buckets > 0 || c.Tail {
		st.obsm.rangeMergeBuckets.Add(uint64(c.Buckets))
		st.obsm.rangeMergeSeconds.Observe(time.Since(t0).Seconds())
	}
	return c, err
}

// registerObsFuncs registers the scrape-sampled series: state another
// subsystem already maintains (record totals, queue depths, checkpoint
// generation) read through closures at scrape time instead of being
// double-counted on the hot path.
func (st *Store) registerObsFuncs(r *obs.Registry) {
	r.CounterFunc("censord_store_records_total",
		"Records folded into the store, restored checkpoints included "+
			"(monotone across a warm restart).",
		func() float64 { return float64(st.ingested.Load()) })
	r.GaugeFunc("censord_store_shards", "Configured shard count.",
		func() float64 { return float64(len(st.shards)) })
	for i, sh := range st.shards {
		sh := sh
		r.GaugeFunc("censord_shard_queue_depth",
			"Batches and ops waiting in each shard's channel.",
			func() float64 { return float64(len(sh.msgs)) },
			"shard", strconv.Itoa(i))
	}

	r.GaugeFunc("censord_snapshot_seq", "Sequence number of the published snapshot.",
		func() float64 { return float64(st.Current().Seq) })

	r.GaugeFunc("censord_timewin_live_buckets",
		"Distinct live time buckets across shards, at the published snapshot.",
		func() float64 { return float64(len(st.Current().Timewin.Buckets)) })

	r.GaugeFunc("censord_checkpoint_generation",
		"Generation sequence of the last written or restored checkpoint "+
			"(restores continue the restored sequence).",
		func() float64 { return float64(st.ckptSeq.Load()) })
	r.GaugeFunc("censord_checkpoint_bytes", "Size of the last checkpoint.",
		func() float64 {
			if ck := st.lastCkpt.Load(); ck != nil {
				return float64(ck.Bytes)
			}
			return 0
		})

	r.CounterFunc("censord_intern_strings_total",
		"Strings added to the parser interning tables (process-wide, cold path only).",
		func() float64 { return float64(logfmt.InternStats()) })
}

// readMetrics holds the read-path instruments: the rendered-doc cache
// and /v1/sync long-polling. Like storeMetrics, the zero value is a
// complete set of nil-receiver no-ops, so a Server over an
// uninstrumented store carries the same code path.
type readMetrics struct {
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	syncWait *obs.Histogram
}

func newReadMetrics(r *obs.Registry) readMetrics {
	return readMetrics{
		cacheHits: r.Counter("censord_doccache_hits_total",
			"Rendered-doc cache hits, If-None-Match 304 revalidations included "+
				"(both skip the render entirely)."),
		cacheMisses: r.Counter("censord_doccache_misses_total",
			"Rendered-doc cache misses (a full render ran)."),
		cacheEvictions: r.Counter("censord_doccache_evictions_total",
			"Entries evicted from the rendered-doc cache to stay under its 64 MiB budget."),

		syncWait: r.Histogram("censord_sync_wait_seconds",
			"Time parked /v1/sync long-polls spent waiting, whatever ended the wait.", nil),
	}
}
