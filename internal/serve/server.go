package serve

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
	"syriafilter/internal/timewin"
)

// Server is the HTTP query API over a Store:
//
//	GET  /healthz                     liveness + snapshot freshness
//	GET  /readyz                      readiness (503 while restoring/loading)
//	GET  /metrics                     Prometheus text exposition
//	GET  /v1/stats                    store counters, build identity, trace stats
//	GET  /v1/experiments              experiment index (id, kind, title, modules)
//	GET  /v1/experiments/{id}         any experiment (table4, fig8, https, ...)
//	GET  /v1/tables/{id}              tables only; "table4" or bare "4"
//	GET  /v1/figures/{id}             figures only; "fig8" or bare "8"
//	GET  /v1/range/{id}               any experiment over ?from&to (&step)
//	GET  /v1/sync                     incremental long-poll (?since&timeout&ids)
//	POST /v1/ingest                   CSV log lines (gzip ok) into the store
//	POST /v1/snapshot                 force a snapshot rebuild
//	POST /v1/checkpoint               cut a checkpoint now (WithCheckpoint)
//	GET  /debug/traces                flight recorder: retained traces (?limit&min_ms)
//	GET  /debug/traces/{id}           one trace as a nested span tree
//
// The GET /v1 endpoints share one read path (read.go): JSON by default,
// aligned text with ?format=text, any other format 400; gzip when
// asked; an id no renderer knows 404 and one this daemon cannot render
// (no generator, module not kept) 422, before anything is built. JSON
// bodies are the render.Doc encoding — byte-identical to
// `censorlyzer -json` over the same records, which is what the CI smoke
// test diffs — and a cache-served or gzip-served body is byte-identical
// to a fresh render. ?fresh=1 on a doc route rebuilds the snapshot
// first (503 until the daemon is ready). Bodies carry strong ETags
// derived from their generation and revalidate with If-None-Match →
// 304; GET /v1/sync turns the same generations into long-polling that
// answers with the full docs of what changed (see handleSync).
//
// Unless the store runs with DisableObs, every route is wrapped in the
// obs middleware: per-route request/status-class counters, an in-flight
// gauge, a latency histogram, and (with WithLogger) a structured access
// log line per request carrying an X-Request-ID.
type Server struct {
	store   *Store
	gen     *synth.Generator
	mux     *http.ServeMux
	start   time.Time
	logger  *slog.Logger
	ready   *Readiness
	maxBody int64 // MaxIngestBody outside tests
	ckptFn  func(ctx context.Context) (CheckpointInfo, error)

	// boot is a per-process nonce prefixed to every ETag and sync
	// token. Seq restarts from zero with the process, so a validator
	// that survived a restart could otherwise match fresh state it does
	// not describe; the nonce makes cross-process validators miss (a
	// full response / full resync) instead of silently serving stale.
	boot string

	cacheBytes    int64
	cache         *docCache
	readm         readMetrics
	syncMaxParked int // DefaultSyncMaxParked outside tests
	syncWaiting   atomic.Int64
	tracker       syncTracker

	// The experiment index, frozen at boot: plain and gzip.
	index     [2]*docEntry
	indexETag string
}

// MaxIngestBody caps POST /v1/ingest bodies in wire bytes (before
// gunzip); a larger upload answers 413 and should be split.
const MaxIngestBody int64 = 64 << 20

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithLogger sets the structured logger for per-request access logs
// (nil disables them, the default).
func WithLogger(l *slog.Logger) ServerOption { return func(s *Server) { s.logger = l } }

// WithReadiness wires an external readiness signal into GET /readyz,
// letting the daemon report "restoring"/"loading" during boot (and
// "draining" during shutdown). Without it /readyz follows only the
// store's own restore state.
func WithReadiness(r *Readiness) ServerOption { return func(s *Server) { s.ready = r } }

// WithCheckpoint enables POST /v1/checkpoint: fn cuts a checkpoint now
// and returns what was written. The daemon wires this to
// Store.CheckpointCtx with its -checkpoint dir (the ctx carries the
// request's trace span); without the option the endpoint answers 501.
func WithCheckpoint(fn func(ctx context.Context) (CheckpointInfo, error)) ServerOption {
	return func(s *Server) { s.ckptFn = fn }
}

// NewServer wires the routes. gen is the optional ground-truth world;
// without it the generator-requiring experiments (probing, groundtruth)
// answer 422.
func NewServer(store *Store, gen *synth.Generator, opts ...ServerOption) *Server {
	s := &Server{store: store, gen: gen, mux: http.NewServeMux(), start: time.Now(),
		boot: bootNonce(), maxBody: MaxIngestBody,
		cacheBytes: DefaultDocCacheBytes, syncMaxParked: DefaultSyncMaxParked}
	for _, opt := range opts {
		opt(s)
	}
	s.tracker.docs = map[string]*docTrack{}
	reg := store.Registry()
	if reg != nil {
		s.readm = newReadMetrics(reg)
	}
	s.cache = newDocCache(s.cacheBytes, &s.readm)
	s.buildIndex()
	handle := func(pattern, route string, h http.HandlerFunc) {
		if reg == nil {
			s.mux.Handle(pattern, h)
			return
		}
		s.mux.Handle(pattern, obs.Middleware(obs.NewHTTPMetrics(reg, route), s.logger, store.Tracer(), h))
	}
	handle("GET /healthz", "/healthz", s.handleHealth)
	handle("GET /readyz", "/readyz", s.handleReady)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /v1/experiments", "/v1/experiments", s.handleIndex)
	handle("GET /v1/experiments/{id}", "/v1/experiments/{id}", s.handleDoc("", ""))
	handle("GET /v1/tables/{id}", "/v1/tables/{id}", s.handleDoc("table", "table"))
	handle("GET /v1/figures/{id}", "/v1/figures/{id}", s.handleDoc("figure", "fig"))
	handle("GET /v1/range/{id}", "/v1/range/{id}", s.handleRange)
	handle("GET /v1/sync", "/v1/sync", s.handleSync)
	handle("POST /v1/ingest", "/v1/ingest", s.handleIngest)
	handle("POST /v1/snapshot", "/v1/snapshot", s.handleSnapshot)
	handle("POST /v1/checkpoint", "/v1/checkpoint", s.handleCheckpoint)
	handle("GET /debug/traces", "/debug/traces", s.handleTraces)
	handle("GET /debug/traces/{id}", "/debug/traces/{id}", s.handleTrace)
	if reg != nil {
		// The scrape itself is instrumented too — http_requests_total
		// {route="/metrics"} shows scraper health.
		handle("GET /metrics", "/metrics", s.handleMetrics)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryLater marks w as the answer to a request the daemon cannot take
// right now — it is restoring, draining, closed or shedding load (the
// 503s and 429s) — so the client knows to come back, and returns w for
// the write that follows.
func retryLater(w http.ResponseWriter) http.ResponseWriter {
	w.Header().Set("Retry-After", "1")
	return w
}

// handleHealth is the liveness probe: it answers 200 "ok" whenever the
// process can serve HTTP at all, even mid-restore. Readiness — is this
// instance safe to route traffic to — is /readyz's question.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"uptime_seconds":   int64(time.Since(s.start).Seconds()),
		"ingested":         s.store.ingested.Load(),
		"snapshot_seq":     snap.Seq,
		"snapshot_records": snap.Records,
		"snapshot_age_sec": int64(time.Since(snap.Built).Seconds()),
	})
}

// servingState is "ok" once the instance should receive traffic, and
// otherwise what it is busy with: "restoring" during a checkpoint
// restore, whatever the wired Readiness reports during boot and drain.
func (s *Server) servingState() string {
	state := s.ready.State() // nil-safe: no signal wired reads "ok"
	if state == "ok" && s.store.Restoring() {
		state = "restoring"
	}
	return state
}

// handleReady is the readiness probe: 200 {"status":"ok"}, or 503 with
// the blocking state.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state := s.servingState()
	status := http.StatusOK
	if state != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"status": state})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.store.Registry().WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// buildIndex precomputes the experiment index once at construction:
// the renderer registry and module mapping are immutable after boot,
// so GET /v1/experiments serves frozen bytes (plain and gzip) with a
// content-hash ETag.
func (s *Server) buildIndex() {
	type entry struct {
		ID      string   `json:"id"`
		Kind    string   `json:"kind"`
		Title   string   `json:"title"`
		Modules []string `json:"modules"`
	}
	var out []entry
	for _, id := range render.Order() {
		mods, err := core.ModulesFor(id)
		if err != nil {
			continue
		}
		out = append(out, entry{ID: id, Kind: render.Kind(id), Title: render.Title(id), Modules: mods})
	}
	body, err := render.EncodeJSON(out)
	if err != nil {
		// Unreachable for the static registry; keep the handler failing
		// loudly rather than panicking the constructor.
		return
	}
	s.index = [2]*docEntry{newDocEntry(body, nil), newDocEntry(gzipBytes(body), nil)}
	h := fnv.New64a()
	h.Write(body)
	// Content-derived, deliberately without the boot nonce: identical
	// builds serve identical indexes, so cross-restart 304s are sound
	// here.
	s.indexETag = `"idx-` + strconv.FormatUint(h.Sum64(), 36) + `"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	v, ok := negotiate(w, r, r.URL.Query().Get("format"))
	if !ok {
		return
	}
	e := s.index[0]
	if v.gzip {
		e = s.index[1]
	}
	if e == nil {
		writeError(w, http.StatusInternalServerError, "experiment index unavailable")
		return
	}
	// The index has one representation, whatever format asks for.
	answer(w, r, variant{format: "json", gzip: v.gzip}, s.indexETag, func() (*docEntry, bool) { return e, true })
}

// handleDoc serves one experiment against the current (or, with
// ?fresh=1, a just-rebuilt) snapshot. kind restricts the route to
// tables or figures, whose ids may then be given bare ("4" for
// "table4"), resolved through a table built here rather than by
// concatenating on every request; "" accepts any experiment.
func (s *Server) handleDoc(kind, prefix string) http.HandlerFunc {
	bare := map[string]string{}
	for _, id := range render.Order() {
		if render.Kind(id) == kind && strings.HasPrefix(id, prefix) {
			bare[id[len(prefix):]] = id
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if kind != "" {
			if full, ok := bare[id]; ok {
				id = full
			} else if !strings.HasPrefix(id, prefix) {
				id = prefix + id
			}
			if render.Kind(id) != kind {
				writeError(w, http.StatusNotFound, "%s is not a %s id", id, kind)
				return
			}
		}
		// Most doc reads carry no query: read none rather than parse an
		// empty one into a map.
		var fresh, format string
		if r.URL.RawQuery != "" {
			q := r.URL.Query()
			fresh, format = q.Get("fresh"), q.Get("format")
		}
		snap := s.store.Current()
		if fresh == "1" {
			if s.gateServing(w) {
				return
			}
			var err error
			if snap, err = s.store.RefreshCtx(r.Context()); err != nil {
				writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
				return
			}
		}
		s.serveCached(w, r, format, source{id: id, snap: snap})
	}
}

// gateServing rejects requests that would observe (or snapshot)
// half-restored state: while the daemon is restoring a checkpoint or
// replaying boot files, /v1/snapshot, /v1/range, /v1/checkpoint and the
// cuts that ?fresh=1 and ?refresh=1 ask for would race the async boot —
// a snapshot cut mid-restore publishes a partial view, and range
// queries merge partially-folded partitions.
// Answer 503 + Retry-After so clients (and LBs) come back once
// /readyz flips. Returns true when the request was rejected.
func (s *Server) gateServing(w http.ResponseWriter) bool {
	state := s.servingState()
	if state == "ok" {
		return false
	}
	writeError(retryLater(w), http.StatusServiceUnavailable, "service %s; retry shortly", state)
	return true
}

// handleRange is the windowed query endpoint: ?from&to bound the
// window, ?step turns the answer into a series (see source for both
// bodies and for what they cache under). Ranges that begin inside
// the compacted retention tail answer 422 with the horizon.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	if s.gateServing(w) {
		return
	}
	q := r.URL.Query()
	win, err := timewin.ParseWindow(q.Get("from"), q.Get("to"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var step int64
	if stepStr := q.Get("step"); stepStr != "" {
		if step, err = timewin.ParseStep(stepStr); err == nil && step <= 0 {
			err = s.store.errStep()
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.serveCached(w, r, q.Get("format"), source{id: r.PathValue("id"), win: win, step: step,
		window: fmt.Sprintf("%d:%d:%d", win.From, win.To, step)})
}

// handleIngest accepts a batch of CSV log lines (the 26-field Blue Coat
// format of internal/logfmt), transparently gunzipping when the body is
// gzip (Content-Encoding header or magic bytes). The body is sliced into
// line-aligned blocks and parsed on a worker pool (see Store.IngestBlocks),
// so a large upload decodes on every core instead of the request
// goroutine. Malformed lines are counted and skipped, like the file
// reader. ?refresh=1 rebuilds the snapshot after the batch so it is
// immediately queryable; until the daemon is ready such a request is
// refused whole (503), like POST /v1/snapshot.
//
// Failure semantics: a body over MaxIngestBody answers 413 (the cap
// applies to wire bytes, before gunzip). A store shedding
// load answers 429 with Retry-After — the daemon never buffers
// unboundedly or hangs the handler on a stalled shard. The response's
// "added" field counts the records folded before the shed, but that
// set is an UNSPECIFIED SUBSET of the batch, not a prefix: records
// hash to shards and parse on independent workers, so drops can land
// at any input position. A shed batch is therefore indivisible from
// the client's view — resending the whole upload re-folds the
// accepted subset (engines fold once per record, nothing dedups),
// dropping it keeps the subset counted. Producers that need exact
// counts should disable shedding (AddTimeout < 0 / -shed-after -1s)
// and let a full queue block them, or reconcile against
// censord_store_records_total (records folded) after a 429 — not
// censord_ingest_records_total, which counts records parsed, the
// dropped ones included. A closed (draining) store answers 503.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	refresh := r.URL.Query().Get("refresh") == "1"
	// Refused whole, before a record is added: a resend then cannot
	// count the batch twice.
	if refresh && s.gateServing(w) {
		return
	}
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	body := io.Reader(br)
	magic, _ := br.Peek(2)
	if r.Header.Get("Content-Encoding") == "gzip" ||
		(len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b) {
		zr, err := gzip.NewReader(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "gzip: %v", err)
			return
		}
		defer zr.Close()
		body = zr
	}
	added, malformed, err := s.store.IngestBlocksCtx(r.Context(), logfmt.NewBlockReader(body), 0)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge,
				"body exceeds the %d byte ingest cap (%d records accepted); split the upload", tooBig.Limit, added)
		case errors.Is(err, ErrOverloaded):
			writeJSON(retryLater(w), http.StatusTooManyRequests, map[string]any{
				"error": err.Error(), "added": added, "malformed": malformed,
			})
		case errors.Is(err, ErrClosed):
			writeError(retryLater(w), http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "ingest after %d records: %v", added, err)
		}
		return
	}
	resp := map[string]any{"added": added, "malformed": malformed}
	if refresh {
		snap, err := s.store.RefreshCtx(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
		resp["snapshot_seq"] = snap.Seq
		resp["snapshot_records"] = snap.Records
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.gateServing(w) {
		return
	}
	snap, err := s.store.RefreshCtx(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot_seq":     snap.Seq,
		"snapshot_records": snap.Records,
		"built":            snap.Built.UTC().Format(time.RFC3339),
	})
}

// handleCheckpoint cuts a checkpoint on demand (501 when the embedder
// did not wire one — the daemon needs a -checkpoint dir). Gated like
// /v1/snapshot: a checkpoint cut mid-restore would persist a partial
// fold as if it were a complete generation.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.ckptFn == nil {
		writeError(w, http.StatusNotImplemented, "checkpointing not configured (start with -checkpoint)")
		return
	}
	if s.gateServing(w) {
		return
	}
	info, err := s.ckptFn(r.Context())
	if err != nil {
		if errors.Is(err, ErrClosed) {
			writeError(retryLater(w), http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// traceSummary is one row of the /debug/traces list: enough to scan for
// the slow or errored trace, small enough that a big ring lists fast.
// The span tree itself is one more GET away.
type traceSummary struct {
	ID         string  `json:"id"`
	Root       string  `json:"root"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Slow       bool    `json:"slow"`
	Error      bool    `json:"error"`
	Spans      int     `json:"spans"`
}

// handleTraces lists the flight recorder's retained traces, newest
// first (?limit caps the list, default 50; ?min_ms filters short
// traces). Deliberately NOT gated by gateServing: the recorder exists
// precisely to diagnose a daemon that is draining, restoring or
// shedding, so it must stay readable in every state — the 503s those
// states produce are themselves traced (status >= 500 marks the trace
// errored, which pins it in the ring).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.store.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (store has no tracer)")
		return
	}
	q := r.URL.Query()
	limit := 50
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	var minMS float64
	if v := q.Get("min_ms"); v != "" {
		minMS, _ = strconv.ParseFloat(v, 64)
	}
	traces := tr.Recorder().Snapshot(limit, minMS)
	out := make([]traceSummary, 0, len(traces))
	for _, t := range traces {
		out = append(out, traceSummary{
			ID:         t.ID,
			Root:       t.Root,
			Start:      time.Unix(0, t.StartUnixNano).UTC().Format(time.RFC3339Nano),
			DurationMS: t.DurationMS,
			Slow:       t.Slow,
			Error:      t.Error,
			Spans:      len(t.Spans),
		})
	}
	st := tr.Recorder().Stats()
	st.SlowThresholdMS = float64(tr.Slow()) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, map[string]any{"stats": st, "traces": out})
}

// handleTrace serves one retained trace as a nested span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.store.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (store has no tracer)")
		return
	}
	id := r.PathValue("id")
	t := tr.Recorder().Find(id)
	if t == nil {
		writeError(w, http.StatusNotFound,
			"trace %q not retained (evicted, sampled out, or never recorded)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":            t.ID,
		"root":          t.Root,
		"start":         time.Unix(0, t.StartUnixNano).UTC().Format(time.RFC3339Nano),
		"duration_ms":   t.DurationMS,
		"slow":          t.Slow,
		"error":         t.Error,
		"dropped_spans": t.DroppedSpans,
		"tree":          t.TreeView(),
	})
}
