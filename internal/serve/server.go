package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
	"syriafilter/internal/timewin"
)

// Server is the HTTP query API over a Store:
//
//	GET  /healthz                     liveness + snapshot freshness
//	GET  /readyz                      readiness (503 while restoring/loading)
//	GET  /metrics                     Prometheus text exposition
//	GET  /v1/stats                    store counters (+ "obs" metric snapshot)
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
// Query endpoints serve JSON by default and aligned text with
// ?format=text; ?fresh=1 rebuilds the snapshot before answering. JSON
// bodies are the render.Doc encoding — byte-identical to
// `censorlyzer -json` over the same records, which is what the CI smoke
// test diffs.
//
// Unless the store runs with DisableObs, every route is wrapped in the
// obs middleware: per-route request/status-class counters, an in-flight
// gauge, a latency histogram, and (with WithLogger) a structured access
// log line per request carrying an X-Request-ID.
//
// Read-path caching: doc, range and index responses are cached by
// content generation (snapshot Seq for docs, a window fingerprint for
// ranges) in a byte-bounded LRU, served with strong ETags and gzip
// variants, and revalidated with If-None-Match → 304. GET /v1/sync
// turns the same generations into incremental long-polling: see
// handleSync. The invariant throughout is that a cache-served or
// gzip-served body is byte-identical to a fresh render — keys change
// whenever the content can.
type Server struct {
	store   *Store
	gen     *synth.Generator
	mux     *http.ServeMux
	start   time.Time
	logger  *slog.Logger
	ready   *Readiness
	maxBody int64
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
	syncMaxParked int
	syncWaiting   atomic.Int64
	tracker       syncTracker

	indexPlain []byte
	indexGz    []byte
	indexETag  string
}

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

// WithMaxBody caps POST /v1/ingest request bodies at n wire bytes
// (pre-gunzip); larger uploads fail with 413. <= 0 leaves bodies
// unbounded (the default, for embedders that trust their callers).
func WithMaxBody(n int64) ServerOption { return func(s *Server) { s.maxBody = n } }

// WithCheckpoint enables POST /v1/checkpoint: fn cuts a checkpoint now
// and returns what was written. The daemon wires this to
// Store.CheckpointCtx with its -checkpoint dir (the ctx carries the
// request's trace span); without the option the endpoint answers 501.
func WithCheckpoint(fn func(ctx context.Context) (CheckpointInfo, error)) ServerOption {
	return func(s *Server) { s.ckptFn = fn }
}

// WithDocCacheBytes caps the rendered-doc cache (default
// DefaultDocCacheBytes; <= 0 disables caching — every request renders
// fresh, though ETags and 304s still work because they derive from the
// generation, not the cache).
func WithDocCacheBytes(n int64) ServerOption { return func(s *Server) { s.cacheBytes = n } }

// WithSyncMaxParked bounds how many /v1/sync long-polls may be parked
// at once; excess polls are shed with 429 + Retry-After so a poller
// herd cannot pin unbounded handler goroutines. Default
// DefaultSyncMaxParked; <= 0 sheds every park attempt (long-polling
// effectively disabled, ?since still answers immediately when data
// already changed).
func WithSyncMaxParked(n int) ServerOption { return func(s *Server) { s.syncMaxParked = n } }

// NewServer wires the routes. gen is the optional ground-truth world;
// without it the generator-requiring experiments (probing, groundtruth)
// answer 422.
func NewServer(store *Store, gen *synth.Generator, opts ...ServerOption) *Server {
	s := &Server{store: store, gen: gen, mux: http.NewServeMux(), start: time.Now(),
		boot:       bootNonce(),
		cacheBytes: DefaultDocCacheBytes, syncMaxParked: DefaultSyncMaxParked}
	for _, opt := range opts {
		opt(s)
	}
	s.tracker.docs = map[string]*docTrack{}
	reg := store.Registry()
	if reg != nil {
		s.readm = newReadMetrics(reg)
		reg.GaugeFunc("censord_sync_waiting", "/v1/sync long-polls currently parked.",
			func() float64 { return float64(s.syncWaiting.Load()) })
	}
	s.cache = newDocCache(s.cacheBytes, docCacheMetrics{
		hits: s.readm.cacheHits, misses: s.readm.cacheMisses,
		evictions: s.readm.cacheEvictions, bytes: s.readm.cacheBytes,
	})
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
	handle("GET /v1/experiments/{id}", "/v1/experiments/{id}", s.handleExperiment)
	handle("GET /v1/tables/{id}", "/v1/tables/{id}", s.handleTable)
	handle("GET /v1/figures/{id}", "/v1/figures/{id}", s.handleFigure)
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

// handleReady is the readiness probe: 503 with the blocking state
// ("restoring" during a checkpoint restore, whatever the wired
// Readiness reports during boot) and 200 {"status":"ok"} once the
// instance should receive traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state := s.ready.State() // nil-safe: no signal wired reads "ok"
	if state == "ok" && s.store.Restoring() {
		state = "restoring"
	}
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
	s.indexPlain = body
	s.indexGz = gzipBytes(body)
	h := fnv.New64a()
	h.Write(body)
	// Content-derived, deliberately without the boot nonce: identical
	// builds serve identical indexes, so cross-restart 304s are sound
	// here.
	s.indexETag = `"idx-` + strconv.FormatUint(h.Sum64(), 36) + `"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if s.indexPlain == nil {
		writeError(w, http.StatusInternalServerError, "experiment index unavailable")
		return
	}
	w.Header().Set("Vary", "Accept-Encoding")
	w.Header().Set("ETag", s.indexETag)
	if etagMatch(r.Header.Get("If-None-Match"), s.indexETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := s.indexPlain
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		body = s.indexGz
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// bootNonce builds the per-process validator prefix (see Server.boot).
func bootNonce() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d.%d", os.Getpid(), time.Now().UnixNano())
	return strconv.FormatUint(h.Sum64(), 36)
}

// etagFor derives the strong ETag of one cached response variant. The
// key's generation component only changes when the content can, so
// equality of ETags implies byte-equality of bodies — within one
// process life; the boot nonce keeps validators from leaking across
// restarts, where Seq resets.
func (s *Server) etagFor(k docKey) string {
	parts := []string{s.boot, strconv.FormatUint(k.gen, 36), k.id, k.window, k.format}
	if k.gzip {
		parts = append(parts, "gz")
	}
	return `"` + strings.Join(parts, ".") + `"`
}

// etagMatch implements If-None-Match: a comma-separated list of
// entity tags (weak prefixes tolerated, compared strongly) or "*".
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client asked for gzip responses.
// Deliberately simple: a "gzip" token anywhere in Accept-Encoding that
// is not explicitly disabled with q=0.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if hasQ {
			if v := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(q), "q=")); v == "0" || v == "0.0" || v == "0.00" || v == "0.000" {
				return false
			}
		}
		return true
	}
	return false
}

// gzipBytes compresses b at the default level. gzip output for a given
// input is deterministic (the header carries no mod time), so cached
// and fresh gzip variants stay byte-identical.
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	s.serveDoc(w, r, r.PathValue("id"), "")
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !strings.HasPrefix(id, "table") {
		id = "table" + id
	}
	s.serveDoc(w, r, id, "table")
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !strings.HasPrefix(id, "fig") {
		id = "fig" + id
	}
	s.serveDoc(w, r, id, "figure")
}

// gateServing rejects requests that would observe (or snapshot)
// half-restored state: while the daemon is restoring a checkpoint or
// replaying boot files, /v1/snapshot, /v1/range and /v1/checkpoint
// would race the async boot — a snapshot cut mid-restore publishes a
// partial view, and range queries merge partially-folded partitions.
// Answer 503 + Retry-After so clients (and LBs) come back once
// /readyz flips. Returns true when the request was rejected.
func (s *Server) gateServing(w http.ResponseWriter) bool {
	state := s.ready.State() // nil-safe: no signal wired reads "ok"
	if state == "ok" && s.store.Restoring() {
		state = "restoring"
	}
	if state == "ok" {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "service %s; retry shortly", state)
	return true
}

// handleRange is the windowed query endpoint. Without step it merges
// every bucket the window covers into one transient engine and renders
// the experiment Doc over it — for a window covering the whole corpus
// the body is byte-identical to the all-time snapshot (and to
// `censorlyzer -json`). With step it renders one Doc per step-sized
// sub-window and returns a Series. Either way the engines carry only
// the modules core.ModulesFor names for the experiment, so the merge
// costs what the doc reads, not what the daemon keeps. Ranges that
// begin inside the compacted retention tail answer 422 with the horizon.
//
// Range responses cache under a window-content fingerprint instead of
// the snapshot Seq (range queries read the live partitions, not the
// snapshot): see rangeFingerprint. A fully-frozen window — no records
// arriving inside it — therefore keeps hitting across snapshot
// generations, and its ETag keeps revalidating.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	if s.gateServing(w) {
		return
	}
	id := r.PathValue("id")
	if render.Title(id) == "" {
		writeError(w, http.StatusNotFound, "%v", render.UnknownID(id))
		return
	}
	// The merge folds only the modules the doc reads; a daemon built
	// without one of them cannot render the doc at all, which is known
	// before any shard is asked for anything.
	mods, err := core.ModulesFor(id)
	if err == nil {
		mods, err = s.store.projection(mods)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "render: %s: %v", id, err)
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
		if step, err = timewin.ParseStep(stepStr); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	format := "json"
	if q.Get("format") == "text" {
		format = "text"
	}
	gz := acceptsGzip(r)

	fp, cacheable := s.rangeFingerprint(r.Context(), win)
	var key docKey
	var etag string
	if cacheable {
		key = docKey{gen: fp, id: id,
			window: fmt.Sprintf("%d:%d:%d", win.From, win.To, step),
			format: format, gzip: gz}
		etag = s.etagFor(key)
		w.Header().Set("Vary", "Accept-Encoding")
		if etagMatch(r.Header.Get("If-None-Match"), etag) {
			// The fingerprint is content-derived, so a match proves the
			// client's body is current even on a cold cache: 304 with
			// zero merge and zero render.
			s.readm.cacheHits.Inc()
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if e := s.cache.get(key); e != nil {
			s.writeRangeBody(w, e.etag, e.headers, format, gz, e.body)
			return
		}
	}

	// Miss (or uncacheable): run the real query.
	var body []byte
	var hdrs [][2]string
	if step > 0 {
		body = s.buildRangeSeries(w, r, id, mods, win, step, format)
	} else {
		body, hdrs = s.buildRangeDoc(w, r, id, mods, win, format)
	}
	if body == nil {
		return // the builder wrote the error response
	}
	gzBody := body
	if gz {
		gzBody = gzipBytes(body)
	}
	if cacheable {
		// Verify-then-store: only cache if the window's content did not
		// move while we merged — the fingerprint sandwich proves the body
		// corresponds to the key (per-bucket record counts are monotone,
		// so equal fingerprints before and after bracket an unchanged
		// window).
		if fp2, ok := s.rangeFingerprint(r.Context(), win); ok && fp2 == fp {
			plainKey := key
			plainKey.gzip = false
			s.cache.put(plainKey, &docEntry{body: body, etag: s.etagFor(plainKey), headers: hdrs})
			if gz {
				s.cache.put(key, &docEntry{body: gzBody, etag: etag, headers: hdrs})
			}
		}
	}
	s.writeRangeBody(w, etag, hdrs, format, gz, gzBody)
}

// writeRangeBody writes a 200 range response: optional strong ETag,
// the X-Range-* coverage headers, content type by format, and the
// (possibly gzipped) body.
func (s *Server) writeRangeBody(w http.ResponseWriter, etag string, hdrs [][2]string, format string, gz bool, body []byte) {
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	for _, h := range hdrs {
		w.Header().Set(h[0], h[1])
	}
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// buildRangeDoc runs the uncached single-doc range query and encodes
// the response body; on failure it writes the error response itself
// and returns a nil body.
func (s *Server) buildRangeDoc(w http.ResponseWriter, r *http.Request, id string, mods []string, win timewin.Window, format string) ([]byte, [][2]string) {
	an, cov, err := s.store.RangeCtx(r.Context(), win, mods...)
	if err != nil {
		s.writeRangeError(w, err)
		return nil, nil
	}
	rsp := trace.FromContext(r.Context()).Child("render")
	doc, err := render.Render(id, render.Context{An: an, Gen: s.gen})
	rsp.End()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return nil, nil
	}
	hdrs := [][2]string{
		{"X-Range-From", fmt.Sprint(cov.FromUnix)},
		{"X-Range-To", fmt.Sprint(cov.ToUnix)},
		{"X-Range-Records", fmt.Sprint(cov.Records)},
		// Bucket *merges* summed across shards — the query's cost, not the
		// distinct-bucket layout (/v1/stats reports that).
		{"X-Range-Buckets", fmt.Sprint(cov.Buckets)},
	}
	if format == "text" {
		return []byte(doc.Text()), hdrs
	}
	body, err := render.EncodeJSON(doc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, nil
	}
	return body, hdrs
}

// buildRangeSeries is buildRangeDoc for ?step= series responses.
func (s *Server) buildRangeSeries(w http.ResponseWriter, r *http.Request, id string, mods []string, win timewin.Window, step int64, format string) []byte {
	wins, err := s.store.RangeSeriesCtx(r.Context(), win, step, mods...)
	if err != nil {
		s.writeRangeError(w, err)
		return nil
	}
	rsp := trace.FromContext(r.Context()).Child("render")
	rsp.SetAttrs(trace.Int("windows", int64(len(wins))))
	series := &render.Series{ID: id, Kind: render.Kind(id), Title: render.Title(id), StepSeconds: step}
	for _, rw := range wins {
		doc, err := render.Render(id, render.Context{An: rw.An, Gen: s.gen})
		if err != nil {
			rsp.Fail(err)
			rsp.End()
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return nil
		}
		series.Windows = append(series.Windows, render.SeriesWindow{
			FromUnix: rw.Window.From,
			ToUnix:   rw.Window.To,
			Records:  rw.Coverage.Records,
			Doc:      doc,
		})
	}
	rsp.End()
	if format == "text" {
		return []byte(series.Text())
	}
	body, err := render.EncodeJSON(series)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil
	}
	return body
}

// rangeFingerprint is Store.rangeFingerprint under the request's
// "cache.lookup" span.
func (s *Server) rangeFingerprint(ctx context.Context, win timewin.Window) (uint64, bool) {
	sp := trace.FromContext(ctx).Child("cache.lookup")
	defer sp.End()
	return s.store.rangeFingerprint(win)
}

// writeRangeError maps range-query failures: retention violations are
// 422 (the data exists only compacted), as is a module the store never
// kept; bad windows/steps are 400, a closed store is 503.
func (s *Server) writeRangeError(w http.ResponseWriter, err error) {
	var re *timewin.RetentionError
	switch {
	case errors.As(err, &re), errors.Is(err, ErrNoModule):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// serveDoc serves one experiment against the current (or, with
// ?fresh=1, a just-rebuilt) snapshot, through the rendered-doc cache:
// the response is keyed by (Seq, id, format, gzip), revalidated with
// If-None-Match (304, zero render, zero body — counted as the cheapest
// kind of cache hit), and byte-identical to a fresh render on every
// path. wantKind restricts the endpoint to tables or figures; ""
// accepts any experiment.
func (s *Server) serveDoc(w http.ResponseWriter, r *http.Request, id, wantKind string) {
	if wantKind != "" && render.Kind(id) != wantKind {
		writeError(w, http.StatusNotFound, "%s is not a %s id", id, wantKind)
		return
	}
	snap := s.store.Current()
	if r.URL.Query().Get("fresh") == "1" {
		var err error
		if snap, err = s.store.RefreshCtx(r.Context()); err != nil {
			writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
	}
	format := "json"
	if r.URL.Query().Get("format") == "text" {
		format = "text"
	}
	gz := acceptsGzip(r)
	key := docKey{gen: snap.Seq, id: id, format: format, gzip: gz}
	etag := s.etagFor(key)
	w.Header().Set("Vary", "Accept-Encoding")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		// Clients only ever hold ETags from successful responses of this
		// process life (the boot nonce sees to that), so a match proves
		// the body they have is current: no render, no body.
		s.readm.cacheHits.Inc()
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Snapshot-Seq", fmt.Sprint(snap.Seq))
		w.Header().Set("X-Snapshot-Records", fmt.Sprint(snap.Records))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	e, err := s.cachedDoc(r.Context(), snap, id, format, gz)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, render.ErrUnknownID) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Snapshot-Seq", fmt.Sprint(snap.Seq))
	w.Header().Set("X-Snapshot-Records", fmt.Sprint(snap.Records))
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
}

// cachedDoc returns the cached encoding of (snap, id, format, gz),
// rendering — and for gz, compressing the (likewise cached) plain
// variant — on miss. Returned entries are byte-identical to a fresh
// render by construction: keys embed the snapshot Seq, which changes
// whenever the folded state can. Render errors are returned, never
// cached.
func (s *Server) cachedDoc(ctx context.Context, snap *Snapshot, id, format string, gz bool) (*docEntry, error) {
	key := docKey{gen: snap.Seq, id: id, format: format, gzip: gz}
	sp := trace.FromContext(ctx).Child("cache.lookup")
	sp.SetAttrs(trace.Str("id", id), trace.Int("seq", int64(snap.Seq)))
	if e := s.cache.get(key); e != nil {
		sp.SetAttrs(trace.Int("hit", 1))
		sp.End()
		return e, nil
	}
	sp.SetAttrs(trace.Int("hit", 0))
	sp.End()
	e := &docEntry{etag: s.etagFor(key)}
	if gz {
		plain, err := s.cachedDoc(ctx, snap, id, format, false)
		if err != nil {
			return nil, err
		}
		e.body = gzipBytes(plain.body)
	} else {
		rsp := trace.FromContext(ctx).Child("render")
		doc, err := render.Render(id, render.Context{An: snap.An, Gen: s.gen})
		if err != nil {
			rsp.Fail(err)
			rsp.End()
			return nil, err
		}
		if format == "text" {
			e.body = []byte(doc.Text())
		} else {
			b, err := render.EncodeJSON(doc)
			if err != nil {
				rsp.Fail(err)
				rsp.End()
				return nil, err
			}
			e.body = b
			e.doc = doc
		}
		rsp.End()
	}
	s.cache.put(key, e)
	return e, nil
}

// handleIngest accepts a batch of CSV log lines (the 26-field Blue Coat
// format of internal/logfmt), transparently gunzipping when the body is
// gzip (Content-Encoding header or magic bytes). The body is sliced into
// line-aligned blocks and parsed on a worker pool (see Store.IngestBlocks),
// so a large upload decodes on every core instead of the request
// goroutine. Malformed lines are counted and skipped, like the file
// reader. ?refresh=1 rebuilds the snapshot after the batch so it is
// immediately queryable.
//
// Failure semantics: with WithMaxBody, an oversized body answers 413
// (the cap applies to wire bytes, before gunzip). A store shedding
// load answers 429 with Retry-After — the daemon never buffers
// unboundedly or hangs the handler on a stalled shard. The response's
// "added" field counts the records folded before the shed, but that
// set is an UNSPECIFIED SUBSET of the batch, not a prefix: records
// hash to shards and parse on independent workers, so drops can land
// at any input position. A shed batch is therefore indivisible from
// the client's view — resending the whole upload re-folds the
// accepted subset (engines fold once per record, nothing dedups),
// dropping it keeps the subset counted. Producers that need exact
// counts should disable shedding (AddTimeout <= 0 / -shed-after -1s)
// and let a full queue block them, or reconcile against
// censord_ingest_records_total after a 429. A closed (draining)
// store answers 503.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	rbody := r.Body
	if s.maxBody > 0 {
		rbody = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	br := bufio.NewReader(rbody)
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
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": err.Error(), "added": added, "malformed": malformed,
			})
		case errors.Is(err, ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "ingest after %d records: %v", added, err)
		}
		return
	}
	resp := map[string]any{"added": added, "malformed": malformed}
	if r.URL.Query().Get("refresh") == "1" {
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
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
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
