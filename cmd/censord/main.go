// Command censord is the live monitoring daemon: it continuously ingests
// Blue Coat log records into a sharded metric-engine store and serves
// every experiment of the paper's evaluation over HTTP, from immutable
// point-in-time snapshots.
//
// Log sources: files given with -input are ingested at boot (read in
// blocks, one reader per file feeding a shared parse pool,
// gzip-transparent); a directory given with -watch is polled for new
// files, which are ingested as they appear; and POST /v1/ingest accepts
// log batches while serving.
//
// -seed and -requests must match the syngen invocation that produced the
// corpus, because the category database, Tor consensus and ground-truth
// ruleset are derived from them (exactly like cmd/censorlyzer).
//
// Usage:
//
//	censord -addr :8080 -input logs/sg-42.csv,logs/sg-43.csv.gz -seed 1
//	censord -addr :8080 -watch spool/ -seed 1
//
// Then:
//
//	curl localhost:8080/healthz          # liveness: ok whenever up
//	curl localhost:8080/readyz           # readiness: 503 until boot completes
//	curl localhost:8080/metrics          # Prometheus text exposition
//	curl localhost:8080/debug/traces     # flight recorder: slow/error traces
//	curl localhost:8080/v1/tables/4
//	curl localhost:8080/v1/figures/8?format=text
//	curl 'localhost:8080/v1/range/table4?from=2011-08-01&to=2011-08-04'
//	curl 'localhost:8080/v1/range/fig5?from=2011-08-01&to=2011-08-07&step=24h'
//	curl 'localhost:8080/v1/sync?ids=table4&timeout=30s'   # long-poll for changes
//	curl -X POST --data-binary @more.csv localhost:8080/v1/ingest?refresh=1
//
// The read path is cost-proportional to change, not to poll rate:
// rendered doc/range responses are cached by snapshot generation in a
// 64 MiB budget (censord_doccache_* meters it), every doc endpoint
// serves a strong ETag and answers If-None-Match revalidation with a
// body-less 304, responses gzip on Accept-Encoding, and GET /v1/sync
// long-polls for changes: it parks (at most 1,024 polls at once, 429
// beyond) until a snapshot cut changes something, then returns only
// the changed experiments, each as its full doc, plus a resume token.
// Background snapshot ticks that find no new records do not bump the
// generation, so an idle daemon serves entirely from cache and keeps
// pollers parked.
//
// The HTTP listener comes up immediately; checkpoint restore and boot
// ingest run behind it with /readyz reporting "restoring" then
// "loading" (503) until the first snapshot is cut, and "draining"
// (503) again from SIGTERM until exit so load balancers stop routing
// before the queues flush. The daemon is hardened for unattended
// multi-week runs: explicit HTTP read/write/idle timeouts, a 64 MiB
// POST /v1/ingest body cap (413 beyond it), and bounded ingest
// backpressure — a shard queue stalled past -shed-after fails the
// request with 429 + Retry-After instead of hanging the handler
// (censord_ingest_shed_total counts these).
// POST /v1/checkpoint cuts a checkpoint on demand when -checkpoint is
// set. Every request is traced (W3C traceparent honored, X-Request-ID
// derived otherwise): traces of 250ms or longer and errored ones are
// always retained in the in-memory flight recorder at GET
// /debug/traces, the rest sampled 1 in 16. Logs are structured
// (log/slog) — -log-level selects verbosity, -log-format text|json the
// encoding — and every request is access-logged with an X-Request-ID.
// -debug-addr serves net/http/pprof on a second, separately bindable
// listener so profilers never share the public port.
//
// Ingested records are partitioned into -bucket wide time buckets (by
// record time, see internal/timewin), which is what /v1/range merges on
// demand; -retain bounds live memory by compacting old buckets into a
// frozen all-time tail.
//
// With -checkpoint the daemon survives restarts warm: it restores the
// newest decodable checkpoint generation at boot — when the newest is
// damaged it falls back one generation at a time (two are kept on disk
// for exactly this), cold-booting with a logged warning only when
// nothing decodes — checkpoints every
// -checkpoint-every while serving, and cuts a final checkpoint on
// graceful shutdown after flushing every acknowledged ingest batch. On
// a warm restart do not re-pass the -input files the checkpoint already
// covers — state is additive:
//
//	censord -addr :8080 -input logs/... -seed 1 -checkpoint /var/lib/censord
//	# later, after a restart:
//	censord -addr :8080 -seed 1 -checkpoint /var/lib/censord
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/obs"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/render"
	"syriafilter/internal/serve"
	"syriafilter/internal/synth"
)

// watchEvery is the -watch poll interval.
const watchEvery = 5 * time.Second

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		input     = flag.String("input", "", "comma-separated log files ingested at boot (gzip ok)")
		watch     = flag.String("watch", "", "directory polled every 5s for new log files")
		seed      = flag.Uint64("seed", 1, "corpus seed (must match the generator that produced the logs)")
		requests  = flag.Int("requests", 1_000_000, "corpus size the generator was run with (shapes the derived databases)")
		exps      = flag.String("exp", "all", "comma-separated experiment ids to serve ('all' = every metric module)")
		shards    = flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS, capped at 16)")
		snapEvery = flag.Duration("snapshot-every", 2*time.Second, "background snapshot rebuild period (0 = only on demand)")
		bucket    = flag.Duration("bucket", time.Hour, "time-partition bucket width for /v1/range queries")
		retain    = flag.Duration("retain", 30*24*time.Hour, "retention horizon: buckets older than the newest record by more than this are compacted into the frozen all-time tail (0 = keep every bucket live)")
		ckptDir   = flag.String("checkpoint", "", "checkpoint directory: restore state from it at boot (warm restart), checkpoint into it periodically and on graceful shutdown")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval when -checkpoint is set (0 = only on shutdown)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		debugAddr = flag.String("debug-addr", "", "optional listen address serving /debug/pprof on its own listener (empty = disabled)")
		shedAfter = flag.Duration("shed-after", serve.DefaultAddTimeout, "ingest load-shedding deadline: a shard queue full past this sheds the request with 429 instead of blocking the handler (negative = block forever)")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		fmt.Printf("censord %s (%s, rev %s)\n", b.Version, b.GoVersion, b.VCSRevision)
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)
	build := obs.ReadBuild()
	logger.Info("censord starting", "version", build.Version,
		"go", build.GoVersion, "revision", build.VCSRevision, "dirty", build.Dirty)

	// The flight recorder is always on: tracing is how a multi-week
	// unattended run explains its own latency outliers after the fact.
	// Traces of trace.DefaultSlow (250ms) or longer are always kept.
	tracer := trace.New(trace.Config{Logger: logger})

	gen, err := synth.New(synth.Config{Seed: *seed, TotalRequests: *requests})
	if err != nil {
		fatal(err)
	}

	_, metrics, err := render.Select(*exps)
	if err != nil {
		fatal(err)
	}

	opt := core.Options{
		Categories: gen.CategoryDB(),
		Consensus:  gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}

	store, err := serve.NewStore(serve.Config{
		Options:       opt,
		Metrics:       metrics,
		Shards:        *shards,
		SnapshotEvery: *snapEvery,
		Bucket:        *bucket,
		Retain:        *retain,
		AddTimeout:    *shedAfter,
		Logger:        logger,
		Tracer:        tracer,
	})
	if err != nil {
		fatal(err)
	}

	// The listener comes up before restore and boot ingest: /healthz and
	// /metrics answer immediately, /readyz holds 503 ("restoring", then
	// "loading") until the boot goroutine cuts the first snapshot.
	ready := serve.NewReadiness("restoring")
	stop := make(chan struct{})
	var loops sync.WaitGroup // watch + checkpoint loops, started once ready
	var boot sync.WaitGroup
	boot.Add(1)
	go func() {
		defer boot.Done()

		// Warm restart: fold the last good checkpoint back in before any
		// boot-time ingest. A missing manifest is a normal cold boot; a
		// damaged checkpoint is logged and ignored (cold boot) rather than
		// fatal — the daemon's job is to come back up.
		if *ckptDir != "" {
			switch info, err := store.Restore(*ckptDir); {
			case err == nil:
				logger.Info("checkpoint restored", "records", info.Records,
					"generation", info.Generation,
					"created", time.Unix(info.CreatedUnix, 0).UTC().Format(time.RFC3339))
			case errors.Is(err, serve.ErrNoCheckpoint):
				logger.Info("no checkpoint, cold boot", "dir", *ckptDir)
			default:
				logger.Warn("checkpoint restore failed, cold boot", "err", err)
			}
		}

		ready.Set("loading")
		seen := map[string]bool{}
		if *input != "" {
			var paths []string
			for _, path := range strings.Split(*input, ",") {
				path = strings.TrimSpace(path)
				paths = append(paths, path)
				// Cleaned, so the watch loop (which joins dir + name) does not
				// re-ingest a boot file spelled differently on the flag.
				seen[filepath.Clean(path)] = true
			}
			n, err := ingestFiles(logger, store, paths)
			if err != nil {
				fatal(err)
			}
			logger.Info("boot ingest complete", "records", n, "files", len(paths))
		}
		if _, err := store.Refresh(); err != nil {
			fatal(err)
		}
		ready.Set("ok")
		logger.Info("ready")

		if *watch != "" {
			loops.Add(1)
			go func() {
				defer loops.Done()
				store.WatchDir(*watch, watchEvery, seen, stop)
			}()
			logger.Info("watching", "dir", *watch, "every", watchEvery)
		}
		if *ckptDir != "" && *ckptEvery > 0 {
			loops.Add(1)
			go func() {
				defer loops.Done()
				checkpointLoop(logger, store, *ckptDir, *ckptEvery, stop)
			}()
			logger.Info("checkpointing", "dir", *ckptDir, "every", *ckptEvery)
		}
	}()

	opts := []serve.ServerOption{serve.WithLogger(logger), serve.WithReadiness(ready)}
	if *ckptDir != "" {
		dir := *ckptDir
		opts = append(opts, serve.WithCheckpoint(func(ctx context.Context) (serve.CheckpointInfo, error) {
			return store.CheckpointCtx(ctx, dir)
		}))
	}
	handler := serve.NewServer(store, gen, opts...)
	// Every timeout is explicit: an unattended daemon must shed stuck
	// peers (slow-loris headers, wedged uploads, dead keep-alives) on
	// its own instead of accumulating goroutines for weeks.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute, // covers the whole request body
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "shards", store.Stats().Shards,
		"bucket", *bucket, "retain", *retain, "snapshot_every", *snapEvery)

	// pprof lives on its own listener so profiles are reachable (and
	// firewallable) independently of the public API port, and never
	// routable from it. Explicit handlers, not DefaultServeMux: nothing
	// else can sneak onto this mux.
	var dsrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
		logger.Info("pprof", "addr", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		// Flip /readyz to 503 "draining" before anything else: load
		// balancers stop routing while in-flight requests and queued
		// ingest batches still drain normally.
		ready.Set("draining")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		if dsrv != nil {
			dsrv.Shutdown(ctx)
		}
		cancel()
	}
	boot.Wait() // an in-flight boot ingest finishes before the store closes
	close(stop)
	loops.Wait()
	if *ckptDir != "" {
		// Final checkpoint: the store flushes every acked batch before
		// cutting it, so a graceful shutdown persists everything
		// POST /v1/ingest acknowledged.
		info, err := store.CloseAndCheckpoint(*ckptDir)
		if err != nil {
			logger.Warn("final checkpoint failed", "err", err)
		} else {
			logger.Info("final checkpoint", "generation", info.Generation,
				"records", info.Records, "bytes", info.Bytes)
		}
	} else {
		store.Close()
	}
}

// checkpointLoop cuts a checkpoint every interval until stop closes
// (the final shutdown checkpoint is CloseAndCheckpoint's job).
func checkpointLoop(logger *slog.Logger, store *serve.Store, dir string, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			info, err := store.Checkpoint(dir)
			if err != nil {
				logger.Warn("checkpoint failed", "err", err)
				continue
			}
			logger.Info("checkpoint", "generation", info.Generation,
				"records", info.Records, "bytes", info.Bytes)
		}
	}
}

// ingestFiles feeds the paths into the store through the block-parallel
// path: one block-reader goroutine per file, line splitting and parsing
// spread across the worker pool, the store's shards parallelizing the
// analysis side.
func ingestFiles(logger *slog.Logger, store *serve.Store, paths []string) (uint64, error) {
	added, malformed, err := store.IngestFiles(context.Background(), paths, 0)
	if malformed > 0 {
		logger.Warn("skipped malformed lines", "count", malformed)
	}
	return added, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "censord:", err)
	os.Exit(1)
}
