// Command syngen synthesizes a Blue Coat log corpus: it generates the
// calibrated client workload, filters it through the simulated SG-9000
// cluster, and writes one CSV log file per proxy (or a single combined
// file), in the 26-field format of the leaked logs.
//
// Usage:
//
//	syngen -requests 1000000 -seed 1 -out logs/            # one file per proxy
//	syngen -requests 200000 -seed 7 -combined corpus.csv   # single file
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

func main() {
	var (
		requests = flag.Int("requests", 1_000_000, "approximate corpus size")
		seed     = flag.Uint64("seed", 1, "generator seed")
		outDir   = flag.String("out", "", "output directory (one sg-NN.csv per proxy)")
		combined = flag.String("combined", "", "single combined output file")
		quiet    = flag.Bool("quiet", false, "suppress the summary")
	)
	flag.Parse()
	if (*outDir == "") == (*combined == "") {
		fmt.Fprintln(os.Stderr, "syngen: exactly one of -out or -combined is required")
		os.Exit(2)
	}

	gen, err := synth.New(synth.Config{Seed: *seed, TotalRequests: *requests})
	if err != nil {
		fatal(err)
	}
	writers := map[int]*logfmt.Writer{}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	newWriter := func(path string) (*logfmt.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		w := logfmt.NewWriter(f)
		if err := w.WriteHeader(); err != nil {
			return nil, err
		}
		return w, nil
	}

	if *combined != "" {
		w, err := newWriter(*combined)
		if err != nil {
			fatal(err)
		}
		writers[0] = w
	} else {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for sg := logfmt.FirstProxy; sg <= logfmt.LastProxy; sg++ {
			w, err := newWriter(filepath.Join(*outDir, fmt.Sprintf("sg-%d.csv", sg)))
			if err != nil {
				fatal(err)
			}
			writers[sg] = w
		}
	}

	// Track the corpus time span: the generator spreads record
	// timestamps across the paper's Jul 22 – Aug 6 2011 capture window
	// (deterministically per seed), which is what makes censord's
	// /v1/range and censorlyzer -from/-to queries non-degenerate.
	var minTime, maxTime int64
	c := proxysim.Emit(gen, func(rec *logfmt.Record) {
		if minTime == 0 || rec.Time < minTime {
			minTime = rec.Time
		}
		if rec.Time > maxTime {
			maxTime = rec.Time
		}
		w := writers[0]
		if w == nil {
			w = writers[rec.Proxy()]
		}
		if err := w.Write(rec); err != nil {
			fatal(err)
		}
	})
	var written uint64
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		written += w.Count()
	}
	if !*quiet {
		span := ""
		if written > 0 {
			const layout = "2006-01-02 15:04"
			span = fmt.Sprintf(" spanning %s .. %s UTC",
				time.Unix(minTime, 0).UTC().Format(layout),
				time.Unix(maxTime, 0).UTC().Format(layout))
		}
		fmt.Printf("wrote %d records (seed %d)%s: %.2f%% allowed, %.2f%% censored, %.2f%% errors, %.2f%% cached\n",
			written, *seed, span,
			pct(c.Allowed, c.Total), pct(c.Censored, c.Total),
			pct(c.Errors, c.Total), pct(c.Proxied, c.Total))
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "syngen:", err)
	os.Exit(1)
}
