package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"syriafilter/internal/obs/trace"
)

// HTTPMetrics is one route's pre-resolved instrument set: request
// counters by status class, an in-flight gauge and a latency histogram.
// Resolving them once per route at wiring time keeps the per-request
// path free of map lookups and label formatting.
type HTTPMetrics struct {
	byClass  [6]*Counter // index = status/100 (1xx..5xx; 0 catches the rest)
	inFlight *Gauge
	latency  *Histogram
	route    string
}

var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// NewHTTPMetrics registers the per-route HTTP series on r:
//
//	http_requests_total{route, code}   counter
//	http_in_flight{route}              gauge
//	http_request_seconds{route}        histogram
func NewHTTPMetrics(r *Registry, route string) *HTTPMetrics {
	m := &HTTPMetrics{route: route}
	for i, class := range statusClasses {
		m.byClass[i] = r.Counter("http_requests_total",
			"HTTP requests by route and status class.", "route", route, "code", class)
	}
	m.inFlight = r.Gauge("http_in_flight", "In-flight HTTP requests by route.", "route", route)
	m.latency = r.Histogram("http_request_seconds",
		"HTTP request latency by route.", nil, "route", route)
	return m
}

// statusWriter captures the response status and size for metrics and
// access logs. It deliberately implements only the core interface plus
// Flush: the API serves buffered JSON/text, so ReaderFrom/Hijacker
// passthrough is not needed.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// statusWriters recycles Middleware's statusWriters: each is reset as it
// is taken, and again, dropping the ResponseWriter, once the handler
// returned and its status and size were read.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqSeq numbers requests within this process; combined with the boot
// nanotime it yields process-unique request ids without coordination.
var (
	reqSeq atomic.Uint64
	bootID = uint64(time.Now().UnixNano()) & 0xffffff
)

// newReqID formats the next request id as fmt's "%06x-%08x" would, in
// a buffer on the stack: the string is its one allocation.
func newReqID() string {
	var b [40]byte
	id := appendHex(b[:0], bootID, 6)
	id = append(id, '-')
	return string(appendHex(id, reqSeq.Add(1), 8))
}

// appendHex appends v in lowercase hex, zero-padded to width digits.
func appendHex(dst []byte, v uint64, width int) []byte {
	var b [16]byte
	digits := strconv.AppendUint(b[:0], v, 16)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Middleware wraps next with the route's metrics, a root trace span
// when tr is non-nil and, when logger is non-nil, a structured access
// log line per request carrying a process-unique request id (also
// exposed to the client as X-Request-ID, and honored when the client
// supplies one).
//
// Trace identity: an inbound W3C traceparent header continues the
// caller's trace; absent (or malformed) traceparent, the trace id is
// derived deterministically from the request id, so a trace is
// findable at /debug/traces from the X-Request-ID the client already
// has. The outbound traceparent names the root span so future
// cross-peer fan-out can link to it. Responses with status >= 500 mark
// the trace errored, which pins it in the flight recorder.
func Middleware(m *HTTPMetrics, logger *slog.Logger, tr *trace.Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)

		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = newReqID()
		}
		w.Header().Set("X-Request-ID", reqID)

		var sp *trace.Span
		if tr != nil {
			traceID, parent, ok := trace.ParseTraceparent(r.Header.Get(trace.Traceparent))
			if !ok {
				traceID, parent = trace.DeriveTraceID(reqID), trace.SpanID{}
			}
			sp = tr.RootFrom(r.Method+" "+m.route, traceID, parent)
			sp.SetAttrs(
				trace.Str("request_id", reqID),
				trace.Str("method", r.Method),
				trace.Str("path", r.URL.Path),
			)
			w.Header().Set("Traceparent", trace.FormatTraceparent(sp.TraceID(), sp.ID()))
			r = r.WithContext(trace.NewContext(r.Context(), sp))
		}

		sw := statusWriters.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status, bytes := sw.status, sw.bytes
		*sw = statusWriter{}
		statusWriters.Put(sw)

		elapsed := time.Since(start)
		if status == 0 {
			status = http.StatusOK
		}
		class := status / 100
		if class < 1 || class > 5 {
			class = 0
		}
		m.byClass[class].Inc()
		m.latency.Observe(elapsed.Seconds())

		if sp != nil {
			sp.SetAttrs(trace.Int("status", int64(status)), trace.Int("bytes", bytes))
			if status >= 500 {
				sp.Fail(fmt.Errorf("http %d", status))
			}
			sp.End()
		}

		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "http",
				slog.String("id", reqID),
				slog.String("method", r.Method),
				slog.String("route", m.route),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", bytes),
				slog.Duration("dur", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}
