package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

// The one way a GET leaves the daemon: admit (can this id answer 200
// here?), negotiate (which variant?), through (that variant's body at
// the current generation, cached or built), answer (validator, headers,
// body or 304). A generation is whatever changes exactly when the body
// can — the snapshot Seq for docs, a window fingerprint for ranges, the
// content hash of the boot-time index — so cache keys and ETags made of
// it are never wrong, only unreachable, and a matching If-None-Match
// proves the client's copy current with no lookup, merge or render. It
// is honoured only for a request that would otherwise answer 200.

// variant is what negotiate read off a request: the body format and
// whether the client takes gzip.
type variant struct {
	format string // "json" or "text"
	gzip   bool
}

// negotiate resolves ?format= (absent means json) and Accept-Encoding.
// A format no endpoint knows is 400; ok=false means it was written.
func negotiate(w http.ResponseWriter, r *http.Request, format string) (v variant, ok bool) {
	switch format {
	case "":
		format = "json"
	case "json", "text":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (accepted: json, text)", format)
		return v, false
	}
	return variant{format: format, gzip: acceptsGzip(r)}, true
}

// acceptsGzip reports whether the client asked for gzip responses.
// Deliberately simple: a "gzip" token anywhere in Accept-Encoding that
// is not explicitly disabled with q=0.
func acceptsGzip(r *http.Request) bool {
	for rest, more := r.Header.Get("Accept-Encoding"), true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
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

// admit decides, without rendering, whether id can answer 200 on this
// daemon, and writes the refusal when it cannot: 404 for an id no
// renderer knows, 422 for one that needs the generator this daemon
// lacks or reads a module the store was built without. On success it
// returns the modules the doc reads, which is what a range read folds.
func (s *Server) admit(w http.ResponseWriter, id string) (mods []string, ok bool) {
	if err := render.Check(id, render.Context{Gen: s.gen}); err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, render.ErrUnknownID) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return nil, false
	}
	mods, err := core.ModulesFor(id)
	if err == nil {
		mods, err = s.store.projection(mods)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "render: %s: %v", id, err)
		return nil, false
	}
	return mods, true
}

// bootNonce builds the per-process validator prefix (see Server.boot).
func bootNonce() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d.%d", os.Getpid(), time.Now().UnixNano())
	return strconv.FormatUint(h.Sum64(), 36)
}

// etagFor derives the strong ETag of one cached response variant from
// its key: equal ETags are equal bodies, within one process life (see
// Server.boot).
func (s *Server) etagFor(k docKey) string {
	b := make([]byte, 0, 96) // on the stack: the string is the one allocation
	b = append(append(b, '"'), s.boot...)
	b = strconv.AppendUint(append(b, '.'), k.gen, 36)
	for _, part := range []string{k.id, k.window, k.format} {
		b = append(append(b, '.'), part...)
	}
	if k.gzip {
		b = append(b, ".gz"...)
	}
	return string(append(b, '"'))
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

// Header values a read sends whatever it reads, shared by every response
// so that setting one allocates nothing. Their slices are full (len ==
// cap), net/http copies a header map before writing it, and nothing here
// edits a value in place, so no response can change another's.
var (
	varyHeader = []string{"Accept-Encoding"}
	gzipHeader = []string{"gzip"}
	jsonHeader = []string{"application/json"}
	textHeader = []string{"text/plain; charset=utf-8"}
)

// answer writes the response to a read: a body-less 304 when etag ("":
// no validator) matches the request's If-None-Match, reported by
// returning true; otherwise the entry body fetches, in v's encoding and
// content type. body runs only when the validator misses, and writes
// its own error when it returns ok=false.
func answer(w http.ResponseWriter, r *http.Request, v variant, etag string, body func() (e *docEntry, ok bool)) (notModified bool) {
	h := w.Header()
	h["Vary"] = varyHeader
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		h.Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	e, ok := body()
	if !ok {
		return false
	}
	if etag != "" {
		h.Set("ETag", etag)
	}
	for k, vs := range e.headers {
		h[k] = vs
	}
	if v.gzip {
		h["Content-Encoding"] = gzipHeader
	}
	if v.format == "text" {
		h["Content-Type"] = textHeader
	} else {
		h["Content-Type"] = jsonHeader
	}
	h["Content-Length"] = e.length
	w.Write(e.body)
	return false
}

// source is what a cached read reads, the one thing that differs
// between them. A doc route (and /v1/sync) reads id off a snapshot. A
// range reads it over a window of the live partitions instead, under
// the window's content fingerprint (Store.rangeFingerprint): a window
// no record arrives in keeps its entries and its ETag across cuts.
type source struct {
	id   string
	snap *Snapshot // a doc read; nil for a range read, which has:

	mods   []string // the modules id reads (admit fills it in), all a range merge folds
	win    timewin.Window
	step   int64  // > 0: a series, one doc per step-sized sub-window; 0: one doc
	window string // the cache key's "from:to:step"
}

// generation reads src's current generation; ok=false means the read is
// not cacheable right now (a closed store, a window that begins inside
// the compacted tail) and gets no validator.
func (s *Server) generation(ctx context.Context, src *source) (gen uint64, ok bool) {
	if src.snap != nil {
		return src.snap.Seq, true
	}
	sp := trace.FromContext(ctx).Child("cache.lookup")
	defer sp.End()
	return s.store.rangeFingerprint(src.win)
}

// build produces src's plain body in format, with the headers that
// describe it; on failure, the status to answer with. Every body is
// rendered from a run of engines — the snapshot's, or a range read's:
// the merge of the buckets a window covers (over the whole corpus,
// byte-identical to the snapshot's), or one such merge per step-sized
// sub-window — and only the last keeps the render.Series around its
// docs.
func (s *Server) build(ctx context.Context, src *source, format string) (*docEntry, int, error) {
	var headers http.Header
	var wins []RangeWindow
	var err error
	if src.snap != nil {
		wins = []RangeWindow{{An: src.snap.An}}
	} else if wins, err = s.store.read(ctx, src.win, src.step, src.mods...); err == nil && src.step == 0 {
		cov := wins[0].Coverage
		headers = http.Header{
			"X-Range-From":    {fmt.Sprint(cov.FromUnix)},
			"X-Range-To":      {fmt.Sprint(cov.ToUnix)},
			"X-Range-Records": {fmt.Sprint(cov.Records)},
			// Bucket *merges* summed across shards — the query's cost, not the
			// distinct-bucket layout (/v1/stats reports that).
			"X-Range-Buckets": {fmt.Sprint(cov.Buckets)},
		}
	}
	if err != nil {
		// Retention violations are 422 (the data exists only compacted),
		// bad windows and steps 400, a closed store 503.
		var re *timewin.RetentionError
		switch {
		case errors.As(err, &re):
			return nil, http.StatusUnprocessableEntity, err
		case errors.Is(err, ErrClosed):
			return nil, http.StatusServiceUnavailable, err
		}
		return nil, http.StatusBadRequest, err
	}
	rsp := trace.FromContext(ctx).Child("render")
	defer rsp.End()
	// Each doc lands in its window's slot, so the body is the one a serial
	// loop would build and the error is the first in window order.
	series := &render.Series{ID: src.id, Kind: render.Kind(src.id), Title: render.Title(src.id), StepSeconds: src.step,
		Windows: make([]render.SeriesWindow, len(wins))}
	errs := make([]error, len(wins))
	workers := parallel(len(wins), func(j int) {
		rw := &wins[j]
		doc, err := render.Render(src.id, render.Context{An: rw.An, Gen: s.gen})
		series.Windows[j] = render.SeriesWindow{FromUnix: rw.Window.From, ToUnix: rw.Window.To, Records: rw.Coverage.Records, Doc: doc}
		errs[j] = err
	})
	rsp.SetAttrs(trace.Int("windows", int64(len(wins))), trace.Int("workers", int64(workers)))
	for _, err := range errs {
		if err != nil {
			rsp.Fail(err)
			return nil, http.StatusUnprocessableEntity, err
		}
	}
	var body interface{ Text() string } = series
	if src.step == 0 {
		body = series.Windows[0].Doc
	}
	var out []byte
	if format == "text" {
		out = []byte(body.Text())
	} else if out, err = render.EncodeJSON(body); err != nil {
		rsp.Fail(err)
		return nil, http.StatusInternalServerError, err
	}
	return newDocEntry(out, headers), 0, nil
}

// parallel calls fn(0) … fn(n-1) on up to GOMAXPROCS goroutines, the
// caller's among them, and returns once every call has, with how many
// goroutines ran; a single call runs on the caller alone.
func parallel(n int, fn func(i int)) (workers int) {
	workers = min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return workers
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return workers
}

// through is the one cache-through: the entry stored under k, or else
// built — the plain body by build, the gzip variant from the (likewise
// cached) plain one — and stored only if the generation still reads
// k.gen afterwards: a body built while its window moved is served once
// and not kept. cacheable=false (k.gen is then meaningless) skips the
// cache both ways.
func (s *Server) through(ctx context.Context, src *source, k docKey, cacheable bool) (e *docEntry, status int, err error) {
	c := s.cache
	if !cacheable {
		c = nil // a nil cache misses and stores nothing
	}
	sp := trace.FromContext(ctx).Child("cache.lookup")
	var hit int64
	if e = c.get(k); e != nil {
		hit = 1
	}
	sp.SetAttrs(trace.Str("id", k.id), trace.Int("hit", hit))
	sp.End()
	if e != nil {
		return e, 0, nil
	}
	if k.gzip {
		plainKey := k
		plainKey.gzip = false
		plain, status, err := s.through(ctx, src, plainKey, cacheable)
		if err != nil {
			return nil, status, err
		}
		e = newDocEntry(gzipBytes(plain.body), plain.headers)
	} else if e, status, err = s.build(ctx, src, k.format); err != nil {
		return nil, status, err
	}
	if cacheable {
		if now, ok := s.generation(ctx, src); ok && now == k.gen {
			c.put(k, e)
		}
	}
	return e, 0, nil
}

// serveCached is the read path end to end, for every read that has a
// generation to cache under: admit src.id, negotiate the variant, and
// answer with src's body at the generation it reads now. A matching
// validator is the cheapest hit there is and is counted as one. src is
// taken by value and copied to the heap by a miss only, so that a hit
// allocates no source.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, format string, src source) {
	var ok bool
	if src.mods, ok = s.admit(w, src.id); !ok {
		return
	}
	v, ok := negotiate(w, r, format)
	if !ok {
		return
	}
	if src.snap != nil {
		// Which snapshot answers is known without the body: said on a 304 too.
		h := w.Header()
		h["X-Snapshot-Seq"], h["X-Snapshot-Records"] = src.snap.seqHeader, src.snap.recordsHeader
	}
	gen, cacheable := s.generation(r.Context(), &src)
	k := docKey{gen: gen, id: src.id, window: src.window, format: v.format, gzip: v.gzip}
	etag := ""
	if cacheable {
		etag = s.etagFor(k)
	}
	if answer(w, r, v, etag, func() (*docEntry, bool) {
		miss := src
		e, status, err := s.through(r.Context(), &miss, k, cacheable)
		if err != nil {
			writeError(w, status, "%v", err)
			return nil, false
		}
		return e, true
	}) {
		s.readm.cacheHits.Inc()
	}
}
