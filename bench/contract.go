package main

import (
	"encoding/json"
	"strings"

	"syriafilter/internal/core"
	"syriafilter/internal/render"
)

// This file is the single definition of what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds,
// and the per-layer metrics with the end-to-end metric each is expected
// to move. BENCHMARK.json at the repository root is generated from it
// (go run . -manifest) and a unit test keeps the two equal.

// runSeconds is the measuring time of one driver run (BENCHMARK.json's
// run_seconds); phase lengths scale with -seconds relative to it.
const runSeconds = 40

// workload is one configuration every phase of a run is executed under.
type workload struct {
	Name string
	Why  string
	// Requests sizes the syngen corpus (and the matching -requests the
	// programs under test need to derive their databases).
	Requests int
	// Exp is the -exp argument both censorlyzer and censord receive.
	Exp string
	// IDs are the experiments Exp resolves to: what the batch run
	// prints and what the daemon can render.
	IDs []string
	// SyncIDs ride the /v1/sync long-poll; RangeIDs are swept over the
	// four /v1/range windows.
	SyncIDs  []string
	RangeIDs []string
}

var lightIDs = []string{"table1", "table3", "table11", "table12", "fig5"}

var workloads = []workload{
	{
		Name:     "full",
		Why:      "1M requests through all 18 metric modules and 29 docs: core.Observe and the discovery renders dominate every phase",
		Requests: 1_000_000, Exp: "all", IDs: render.Order(),
		SyncIDs:  []string{"table4", "fig5", "table8"},
		RangeIDs: []string{"table1", "table4", "fig5", "table8"},
	},
	{
		Name:     "light",
		Why:      "same corpus, 4 cheap modules and 5 docs: read, split, parse and routing dominate; tokens/domains/render work is bypassed",
		Requests: 1_000_000, Exp: strings.Join(lightIDs, ","), IDs: lightIDs,
		SyncIDs:  []string{"table1", "fig5", "table12"},
		RangeIDs: []string{"table1", "table11", "fig5", "table12"},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// modules is the metric-module subset the workload's experiments need
// (nil = every module, which is what -exp all runs).
func (w workload) modules() []string {
	if w.Exp == "all" {
		return nil
	}
	mods, err := core.ModulesFor(w.IDs...)
	if err != nil {
		panic(err) // the ids above are literals known to core
	}
	return mods
}

// metricDef describes one reported metric. Bound is set on end-to-end
// metrics only. Moves names the end-to-end metric a per-layer metric is
// predicted to move (README prints it; BENCHMARK.json has no field for
// it).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "batch_mb_s", Unit: "MB/s", Better: higher, Bound: 0.25},
	{Name: "batch_cpu_s_per_gb", Unit: "s/GB", Better: lower, Bound: 0.25},
	{Name: "batch_peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.15},
	{Name: "ingest_mb_s", Unit: "MB/s", Better: higher, Bound: 0.25},
	{Name: "ingest_paced_p50_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "boot_mb_s", Unit: "MB/s", Better: higher, Bound: 0.25},
	{Name: "hit_rps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "visible_p50_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "doc_cold_sweep_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "range_sweep_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "checkpoint_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "restore_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer lists the fixed per-layer metrics; one
// core.observe.<module>.ns_per_rec per metric module is appended below.
var perLayer = []metricDef{
	{Name: "logfmt.read.ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "batch_mb_s (light most), ingest_mb_s, boot_mb_s"},
	{Name: "logfmt.parse.ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "batch_mb_s (light most), ingest_mb_s, boot_mb_s"},
	{Name: "logfmt.parse.allocs_per_rec", Unit: "allocs/rec", Better: lower, Moves: "batch_cpu_s_per_gb, batch_peak_rss_mb"},
	{Name: "logfmt.malformed", Unit: "count", Better: lower, Moves: "none (validity: syngen writes no malformed lines)"},
	{Name: "logfmt.bytes_per_rec", Unit: "bytes/rec", Better: lower, Moves: "none (converts MB/s to records/s)"},

	{Name: "pipeline.w1_mb_s", Unit: "MB/s", Better: higher, Moves: "batch_cpu_s_per_gb"},
	{Name: "pipeline.wn_mb_s", Unit: "MB/s", Better: higher, Moves: "batch_mb_s"},
	{Name: "pipeline.scaling", Unit: "ratio", Better: higher, Moves: "batch_mb_s without batch_cpu_s_per_gb"},
	{Name: "pipeline.overhead_ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "batch_mb_s, batch_cpu_s_per_gb"},

	{Name: "core.observe.ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "batch_mb_s, ingest_mb_s, boot_mb_s on full; little on light"},
	{Name: "core.observe.allocs_per_rec", Unit: "allocs/rec", Better: lower, Moves: "batch_cpu_s_per_gb, batch_peak_rss_mb"},
	{Name: "core.merge.s", Unit: "s", Better: lower, Moves: "visible_p50_s, batch_mb_s (final merge)"},
	{Name: "core.marshal_state.s", Unit: "s", Better: lower, Moves: "checkpoint_s"},
	{Name: "core.unmarshal_state.s", Unit: "s", Better: lower, Moves: "restore_s"},
	{Name: "core.state_bytes", Unit: "bytes", Better: lower, Moves: "checkpoint_s, restore_s"},

	{Name: "render.all.s", Unit: "s", Better: lower, Moves: "doc_cold_sweep_s, visible_p50_s"},
	{Name: "render.discovery.s", Unit: "s", Better: lower, Moves: "doc_cold_sweep_s on full (most of it); absent on light"},
	{Name: "render.encode.s", Unit: "s", Better: lower, Moves: "doc_cold_sweep_s"},
	{Name: "render.diff.s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "render.doc_bytes", Unit: "bytes", Better: lower, Moves: "hit_rps, doc_cold_sweep_s"},

	{Name: "timewin.observe.ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "ingest_mb_s, boot_mb_s"},
	{Name: "timewin.all_into.s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "timewin.range_into.s", Unit: "s", Better: lower, Moves: "range_sweep_s"},
	{Name: "timewin.buckets", Unit: "count", Better: lower, Moves: "visible_p50_s, range_sweep_s (merge count)"},
	{Name: "timewin.marshal_state.s", Unit: "s", Better: lower, Moves: "checkpoint_s"},

	{Name: "serve.store.add.ns_per_rec", Unit: "ns/rec", Better: lower, Moves: "ingest_mb_s, boot_mb_s"},
	{Name: "serve.store.ingest_blocks.mb_s", Unit: "MB/s", Better: higher, Moves: "ingest_mb_s, boot_mb_s"},
	{Name: "serve.store.refresh.s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "serve.store.refresh_noop.s", Unit: "s", Better: lower, Moves: "none end to end (idle snapshot ticks)"},
	{Name: "serve.store.checkpoint.s", Unit: "s", Better: lower, Moves: "checkpoint_s"},
	{Name: "serve.store.restore.s", Unit: "s", Better: lower, Moves: "restore_s"},
	{Name: "serve.handler.hit.ns", Unit: "ns", Better: lower, Moves: "hit_rps"},
	{Name: "serve.handler.cold.s", Unit: "s", Better: lower, Moves: "doc_cold_sweep_s"},

	{Name: "serve.ingest.parse_share", Unit: "ratio", Better: lower, Moves: "ingest_mb_s (flat share with rising backpressure = shard apply is the bottleneck)"},
	{Name: "serve.ingest.read_share", Unit: "ratio", Better: lower, Moves: "ingest_mb_s"},
	{Name: "serve.ingest.backpressure_share", Unit: "ratio", Better: lower, Moves: "ingest_mb_s"},
	{Name: "serve.ingest.shed_total", Unit: "count", Better: lower, Moves: "failed operations"},
	{Name: "serve.shard.queue_depth_max", Unit: "count", Better: lower, Moves: "ingest_paced_p50_s"},
	{Name: "serve.snapshot.cuts", Unit: "count", Better: lower, Moves: "visible_p50_s (one per refresh round)"},
	{Name: "serve.snapshot.skips", Unit: "count", Better: higher, Moves: "hit_rps (a skipped cut keeps the cache)"},
	{Name: "serve.snapshot.build_mean_s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "serve.doccache.hit_ratio", Unit: "ratio", Better: higher, Moves: "hit_rps (must be >= 0.99 in the hit phase)"},
	{Name: "serve.doccache.evictions", Unit: "count", Better: lower, Moves: "hit_rps"},
	{Name: "serve.sync.wait_mean_s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "serve.sync.delta_ratio", Unit: "ratio", Better: higher, Moves: "visible_p50_s (bytes on the wire)"},
	{Name: "serve.range.merge_mean_s", Unit: "s", Better: lower, Moves: "range_sweep_s"},
	{Name: "serve.checkpoint_bytes", Unit: "bytes", Better: lower, Moves: "checkpoint_s, restore_s (repeats exactly for a seed)"},
	{Name: "serve.rss_mb", Unit: "MB", Better: lower, Moves: "none (daemon memory after the read phase)"},
	{Name: "serve.term_s", Unit: "s", Better: lower, Moves: "restore_s (the other half of a restart)"},

	{Name: "http.ingest.p95_s", Unit: "s", Better: lower, Moves: "ingest_paced_p50_s (tail)"},
	{Name: "http.ingest.saturated_p50_s", Unit: "s", Better: lower, Moves: "ingest_mb_s"},
	{Name: "http.hit.p50_s", Unit: "s", Better: lower, Moves: "hit_rps"},
	{Name: "http.hit.p95_s", Unit: "s", Better: lower, Moves: "hit_rps (tail)"},
	{Name: "http.revalidate.p50_s", Unit: "s", Better: lower, Moves: "hit_rps"},
	{Name: "http.read_under_ingest.p50_s", Unit: "s", Better: lower, Moves: "none gated (bimodal: cache hit or fresh cut)"},
	{Name: "http.refresh_post.p50_s", Unit: "s", Better: lower, Moves: "visible_p50_s"},
	{Name: "http.sync.wake_p50_s", Unit: "s", Better: lower, Moves: "visible_p50_s"},

	{Name: "obs.scrape_s", Unit: "s", Better: lower, Moves: "none (cost of watching)"},
	{Name: "obs.metrics_bytes", Unit: "bytes", Better: lower, Moves: "none (cost of watching)"},

	{Name: "synth.generate.recs_per_s", Unit: "recs/s", Better: higher, Moves: "setup_s"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: lower, Moves: "validity: > 0.25 marks the run noisy"},
	{Name: "gen.late_p95_s", Unit: "s", Better: lower, Moves: "validity of ingest_paced_p50_s"},
	{Name: "gen.connections", Unit: "count", Better: lower, Moves: "none (provenance)"},
	{Name: "env.build_s", Unit: "s", Better: lower, Moves: "none (excluded from setup_s)"},
	{Name: "env.calib_before_s", Unit: "s", Better: lower, Moves: "validity: differing > 15% from after marks the run noisy"},
	{Name: "env.calib_after_s", Unit: "s", Better: lower, Moves: "validity"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher, Moves: "hit_rps traced / untraced"},
	{Name: "trace.spans", Unit: "count", Better: lower, Moves: "none"},
	{Name: "trace.record_life.self_share", Unit: "ratio", Better: higher, Moves: "none (stages must cover >= 0.9 of the traced record life)"},
}

func init() {
	for _, m := range core.AllMetrics() {
		perLayer = append(perLayer, metricDef{
			Name: "core.observe." + m + ".ns_per_rec", Unit: "ns/rec", Better: lower,
			Moves: "batch_mb_s, ingest_mb_s, boot_mb_s on workloads whose -exp resolves to " + m,
		})
	}
}

// manifestJSON renders BENCHMARK.json exactly as the benchmark contract
// spells it.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}
