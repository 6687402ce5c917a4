// Command censorlyzer reproduces the paper's evaluation: it runs any (or
// all) of the table/figure analyses over a Blue Coat log corpus and prints
// paper-style output (or, with -json, the same machine-readable documents
// cmd/censord serves over HTTP).
//
// The corpus either comes from log files previously written by cmd/syngen
// (-input, comma-separated paths, gzip-transparent) or is synthesized in
// memory (-requests). Either way -seed must match the corpus seed, because
// the Tor consensus and the category database are derived from it.
//
// Usage:
//
//	censorlyzer -requests 1000000 -seed 1 -exp all
//	censorlyzer -input sg42.csv,sg43.csv.gz -seed 1 -exp table4,fig8
//	censorlyzer -exp table4 -json
//	censorlyzer -exp fig5 -from 2011-08-01 -to 2011-08-04
//	censorlyzer -list
//
// -from/-to (unix seconds, RFC3339 or 2006-01-02[THH:MM], half-open
// [from, to)) restrict the analysis to records inside the window — the
// same predicate cmd/censord's /v1/range endpoint evaluates, so a
// bucket-aligned window produces byte-identical -json output.
//
// -save-state/-load-state make batch runs incremental: -save-state
// writes the analyzed engine state (gzip-framed, crash-safe via
// temp-file + rename) after the run, and -load-state folds a previously
// saved state in before rendering — so tonight's logs extend
// yesterday's results without re-reading yesterday's corpus:
//
//	censorlyzer -input day1.csv -seed 1 -save-state state.ckpt.gz
//	censorlyzer -input day2.csv -seed 1 -load-state state.ckpt.gz -save-state state.ckpt.gz
//
// The loaded state must come from a run with the same -seed (the
// derived databases are configuration, not state) and a module subset
// covering this run's -exp selection.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
	"syriafilter/internal/timewin"
)

// logger carries the batch run's structured diagnostics (results go to
// stdout, diagnostics to stderr); main replaces it per the -log flags.
var logger = slog.Default()

func main() {
	var (
		input    = flag.String("input", "", "comma-separated log files (empty: synthesize in memory; gzip ok)")
		requests = flag.Int("requests", 1_000_000, "synthetic corpus size")
		seed     = flag.Uint64("seed", 1, "corpus seed (must match the generator that produced -input)")
		exps     = flag.String("exp", "all", "comma-separated experiment ids (table1..table15, fig1..fig10, https, bt, gcache) or 'all'")
		workers  = flag.Int("workers", 0, "analysis workers (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit one JSON document per experiment (the cmd/censord wire format)")
		list     = flag.Bool("list", false, "print the experiment ids and the metric modules each resolves to, then exit")
		fromF    = flag.String("from", "", "only analyze records at or after this time (unix seconds, RFC3339 or 2006-01-02[THH:MM])")
		toF      = flag.String("to", "", "only analyze records before this time (exclusive, same formats)")
		loadF    = flag.String("load-state", "", "fold a previously saved engine state in before rendering (incremental runs)")
		saveF    = flag.String("save-state", "", "write the final engine state to this file (gzip; temp-file + rename)")
		logLevel = flag.String("log-level", "info", "diagnostic log verbosity: debug, info, warn or error")
		logFmt   = flag.String("log-format", "text", "diagnostic log encoding: text or json")
		version  = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		fmt.Printf("censorlyzer %s (%s, rev %s)\n", b.Version, b.GoVersion, b.VCSRevision)
		return
	}

	l, err := obs.NewLogger(os.Stderr, *logLevel, *logFmt)
	if err != nil {
		fatal(err)
	}
	logger = l
	slog.SetDefault(l)

	win, err := timewin.ParseWindow(*fromF, *toF)
	if err != nil {
		fatal(err)
	}

	if *list {
		listExperiments(os.Stdout)
		return
	}

	ids, metrics, err := render.Select(*exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "censorlyzer:", err)
		os.Exit(2)
	}

	gen, err := synth.New(synth.Config{Seed: *seed, TotalRequests: *requests})
	if err != nil {
		fatal(err)
	}
	an, err := analyze(gen, *input, *workers, metrics, win)
	if err != nil {
		fatal(err)
	}

	if *loadF != "" {
		// Fold the saved state in through a fresh same-subset analyzer:
		// UnmarshalState replaces state, Merge accumulates it.
		loaded, err := core.NewAnalyzerFor(analyzerOptions(gen), metrics...)
		if err != nil {
			fatal(err)
		}
		if err := readStateFile(*loadF, loaded.Engine); err != nil {
			fatal(err)
		}
		loaded.Merge(an)
		an = loaded
	}
	if *saveF != "" {
		if err := writeStateFile(*saveF, an.Engine); err != nil {
			fatal(err)
		}
		logger.Info("saved engine state", "path", *saveF)
	}

	cx := render.Context{An: an, Gen: gen}
	for _, id := range ids {
		doc, err := render.Render(id, cx)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			// One document per line — render.EncodeJSON is the shared
			// encoder, so this is byte-identical to what cmd/censord's
			// /v1/experiments/{id} endpoint serves (and caches).
			b, err := render.EncodeJSON(doc)
			if err != nil {
				fatal(err)
			}
			if _, err := os.Stdout.Write(b); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Printf("\n### %s — %s\n\n", id, doc.Title)
		fmt.Print(doc.Text())
	}
}

// listExperiments prints every experiment id, its title, and the metric
// modules it resolves to via core.ModulesFor.
func listExperiments(w *os.File) {
	for _, id := range render.Order() {
		mods, err := core.ModulesFor(id)
		if err != nil {
			mods = []string{"?"}
		}
		fmt.Fprintf(w, "%-12s %-55s %s\n", id, render.Title(id), strings.Join(mods, ","))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "censorlyzer:", err)
	os.Exit(1)
}

// analyzerOptions derives the engine configuration from the generator;
// saved state carries accumulated counts only, so -load-state requires
// the same configuration (same -seed) to be meaningful.
func analyzerOptions(gen *synth.Generator) core.Options {
	return core.Options{
		Categories: gen.CategoryDB(),
		Consensus:  gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
}

// readStateFile loads an engine state written by writeStateFile
// (gzip-transparent via pipeline.OpenReader, so a raw state stream also
// loads).
func readStateFile(path string, e *core.Engine) error {
	r, closer, err := pipeline.OpenReader(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	if err := e.ReadState(r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeStateFile writes the engine state gzip-framed, via temp-file +
// rename so an interrupted run never clobbers the previous state.
func writeStateFile(path string, e *core.Engine) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	zw := gzip.NewWriter(tmp)
	err = e.WriteState(zw)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// analyze builds the Analyzer from files or by synthesizing the corpus.
// metrics restricts the engine to a module subset (nil = all); input
// files are block-ingested — line splitting and parsing spread across
// the worker pool, not one decode goroutine per file — so even a single
// large file scans on every core. Records outside win are skipped (the
// zero window keeps everything).
func analyze(gen *synth.Generator, input string, workers int, metrics []string, win timewin.Window) (*core.Analyzer, error) {
	newAcc := func() *core.Analyzer {
		a, err := core.NewAnalyzerFor(analyzerOptions(gen), metrics...)
		if err != nil {
			fatal(err)
		}
		return a
	}
	if input == "" {
		an := newAcc()
		proxysim.Emit(gen, func(rec *logfmt.Record) {
			if win.Contains(rec.Time) {
				an.Observe(rec)
			}
		})
		return an, nil
	}
	var paths []string
	for _, path := range strings.Split(input, ",") {
		paths = append(paths, strings.TrimSpace(path))
	}
	an, stats, err := pipeline.RunFilesBlocks(paths, workers,
		newAcc,
		func(a *core.Analyzer, r *logfmt.Record) {
			if win.Contains(r.Time) {
				a.Observe(r)
			}
		},
		func(dst, src *core.Analyzer) { dst.Merge(src) },
	)
	if err != nil {
		return nil, err
	}
	if stats.Malformed > 0 {
		logger.Warn("skipped malformed lines", "count", stats.Malformed)
	}
	return an, nil
}
