package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
)

// world is the seed-derived configuration (category database, Tor
// consensus, ground truth) censorlyzer and censord rebuild from
// -seed/-requests; the in-process oracle and probes build it the same
// way.
type world struct {
	gen *synth.Generator
	opt core.Options
}

func (r *run) world() (*world, error) {
	gen, err := synth.New(synth.Config{Seed: r.seed, TotalRequests: r.w.Requests})
	if err != nil {
		return nil, err
	}
	return &world{gen: gen, opt: core.Options{
		Categories: gen.CategoryDB(),
		Consensus:  gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}}, nil
}

// renderAll is what censorlyzer -json prints for ids, byte for byte.
func (w *world) renderAll(an *core.Analyzer, ids []string) ([]byte, error) {
	var out []byte
	for _, id := range ids {
		doc, err := render.Render(id, render.Context{An: an, Gen: w.gen})
		if err != nil {
			return nil, err
		}
		b, err := render.EncodeJSON(doc)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// analyzeFiles is censorlyzer's ingest, run inside the harness.
func (w *world) analyzeFiles(paths, modules []string, workers int) (*core.Analyzer, pipeline.BlockStats, error) {
	return pipeline.RunFilesBlocks(paths, workers,
		func() *core.Analyzer {
			a, err := core.NewAnalyzerFor(w.opt, modules...)
			if err != nil {
				panic(err) // module names come from core.ModulesFor
			}
			return a
		},
		func(a *core.Analyzer, rec *logfmt.Record) { a.Observe(rec) },
		func(dst, src *core.Analyzer) { dst.Merge(src) },
	)
}

func (r *run) batchArgs(files []string) []string {
	return []string{"-input", strings.Join(files, ","), "-requests", r.requestsArg(),
		"-seed", r.seedArg(), "-exp", r.w.Exp, "-json", "-log-level", "warn"}
}

// splitDocs indexes NDJSON docs by their "id" field.
func splitDocs(ndjson []byte) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, line := range bytes.SplitAfter(ndjson, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &head); err != nil || head.ID == "" {
			return nil, fmt.Errorf("batch output: not a doc line: %.80q", line)
		}
		out[head.ID] = line
	}
	return out, nil
}

// resolvedModules asks the CLI itself (censorlyzer -list) which metric
// modules the workload's experiments resolve to, so "the light workload
// bypasses tokens" is checked against the program, not assumed.
func (r *run) resolvedModules() ([]string, error) {
	p := runProc(r.bins.censorlyzer, "-list")
	if p.err != nil {
		return nil, fmt.Errorf("censorlyzer -list: %w", p.err)
	}
	want := map[string]bool{}
	for _, id := range r.w.IDs {
		want[id] = true
	}
	set := map[string]bool{}
	for _, line := range strings.Split(string(p.stdout), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !want[f[0]] {
			continue
		}
		for _, m := range strings.Split(f[len(f)-1], ",") {
			set[m] = true
		}
	}
	var mods []string
	for m := range set {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	return mods, nil
}

// batchPhase measures the researcher's use: one fresh censorlyzer
// process per run over the whole corpus, exec to exit.
func (r *run) batchPhase() error {
	mods, err := r.resolvedModules()
	if err != nil {
		return err
	}
	r.prov.Modules = mods
	want := r.w.modules()
	if want == nil {
		want = core.AllMetrics()
	}
	want = append([]string(nil), want...)
	sort.Strings(want)
	r.res.op(strings.Join(mods, ",") == strings.Join(want, ","),
		"censorlyzer -list resolves %s to modules %v, want %v", r.w.Exp, mods, want)

	args := r.batchArgs(r.corpus.files)
	ref := runProc(r.bins.censorlyzer, append(args, "-workers", "1")...)
	if !r.res.op(ref.err == nil, "censorlyzer -workers 1: %v: %s", ref.err, ref.stderr) {
		return ref.err
	}
	if r.batchDocs, err = splitDocs(ref.stdout); err != nil {
		return err
	}
	r.res.op(len(r.batchDocs) == len(r.w.IDs), "censorlyzer printed %d docs, want %d", len(r.batchDocs), len(r.w.IDs))

	gb := float64(r.corpus.bytes) / 1e9
	var mbs, cpu []timed
	var rss []float64
	trace := newTraceID()
	for i, t0 := 0, time.Now(); i < minBatchRuns || time.Since(t0) < r.plan.batch; i++ {
		sp := r.rec.begin(trace, 0, "batch.run")
		p := runProc(r.bins.censorlyzer, args...)
		r.rec.end(sp)
		if !r.res.op(p.err == nil, "censorlyzer run %d: %v: %s", i, p.err, p.stderr) {
			continue
		}
		r.res.op(bytes.Equal(p.stdout, ref.stdout), "censorlyzer run %d: default-workers output differs from -workers 1", i)
		end := p.start.Add(p.wall)
		mbs = append(mbs, timed{r.mbPerS(p.wall), p.start, end})
		cpu = append(cpu, timed{p.cpu / gb, p.start, end})
		rss = append(rss, p.hwmMB)
	}
	if len(mbs) == 0 {
		return fmt.Errorf("no censorlyzer run succeeded")
	}
	r.putRates("batch_mb_s", mbs)
	r.putDurations("batch_cpu_s_per_gb", cpu)
	r.res.putMedian("batch_peak_rss_mb", rss)

	// The same analysis through the library, inside the harness: the CLI
	// must add nothing to (and lose nothing from) what the packages
	// compute.
	w, err := r.world()
	if err != nil {
		return err
	}
	an, stats, err := w.analyzeFiles(r.corpus.files, r.w.modules(), 0)
	if err != nil {
		return err
	}
	inproc, err := w.renderAll(an, r.w.IDs)
	if err != nil {
		return err
	}
	r.res.op(bytes.Equal(inproc, ref.stdout), "in-process RunFilesBlocks+render differs from censorlyzer -json")
	r.res.op(stats.Records == r.records, "pipeline parsed %d records, corpus has %d", stats.Records, r.records)
	r.res.put("logfmt.malformed", float64(stats.Malformed))
	return nil
}
