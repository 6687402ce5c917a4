package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"syriafilter/internal/obs/trace"
)

func TestMiddleware(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "/v1/thing/{id}")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := Middleware(m, logger, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.inFlight.Value() != 1 {
			t.Errorf("in_flight during request = %d, want 1", m.inFlight.Value())
		}
		if r.URL.Path == "/v1/thing/miss" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}))

	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/thing/42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Error("no X-Request-ID header")
	}
	resp2, err := http.Get(srv.URL + "/v1/thing/miss")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id2 := resp2.Header.Get("X-Request-ID"); id2 == id {
		t.Error("request ids not unique")
	}

	// Caller-supplied ids are honored (trace propagation).
	req, _ := http.NewRequest("GET", srv.URL+"/v1/thing/1", nil)
	req.Header.Set("X-Request-ID", "caller-id-7")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got != "caller-id-7" {
		t.Errorf("X-Request-ID = %q, want caller-supplied caller-id-7", got)
	}

	if n := m.byClass[2].Value(); n != 2 {
		t.Errorf("2xx counter = %d, want 2", n)
	}
	if n := m.byClass[4].Value(); n != 1 {
		t.Errorf("4xx counter = %d, want 1", n)
	}
	if m.inFlight.Value() != 0 {
		t.Errorf("in_flight after requests = %d, want 0", m.inFlight.Value())
	}
	if m.latency.Count() != 3 {
		t.Errorf("latency observations = %d, want 3", m.latency.Count())
	}

	logs := logBuf.String()
	for _, want := range []string{`"route":"/v1/thing/{id}"`, `"status":404`, `"id":"caller-id-7"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %s in:\n%s", want, logs)
		}
	}
}

// TestMiddlewareTracing: a traced request gets a root span findable in
// the flight recorder, an inbound traceparent continues the caller's
// trace, a malformed one falls back to the X-Request-ID derivation, and
// 5xx responses mark the trace errored.
func TestMiddlewareTracing(t *testing.T) {
	tr := trace.New(trace.Config{Slow: -1}) // retain everything
	r := NewRegistry()
	m := NewHTTPMetrics(r, "/v1/thing/{id}")
	h := Middleware(m, nil, tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sp := trace.FromContext(r.Context()); sp == nil {
			t.Error("no span in request context")
		}
		if r.URL.Path == "/v1/thing/boom" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))

	// Inbound traceparent: the response echoes the same trace id with
	// the new root span id, and the recorder holds the trace under it.
	inbound := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req := httptest.NewRequest("GET", "/v1/thing/42", nil)
	req.Header.Set("traceparent", inbound)
	h.ServeHTTP(httptest.NewRecorder(), req)
	// The recorder publishes synchronously on End, so Find works now.
	found := tr.Recorder().Find("0af7651916cd43dd8448eb211c80319c")
	if found == nil {
		t.Fatal("trace with inbound id not in recorder")
	}
	if found.Error {
		t.Error("2xx trace marked errored")
	}

	// Malformed traceparent: trace id is derived from the request id,
	// so the trace is findable from the X-Request-ID the client got.
	req2 := httptest.NewRequest("GET", "/v1/thing/7", nil)
	req2.Header.Set("traceparent", "garbage")
	req2.Header.Set("X-Request-ID", "fallback-7")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	want := trace.DeriveTraceID("fallback-7")
	if got := rec2.Header().Get("Traceparent"); !strings.Contains(got, want.String()) {
		t.Errorf("Traceparent = %q, want derived trace id %s", got, want)
	}
	if tr.Recorder().Find(want.String()) == nil {
		t.Error("derived-id trace not in recorder")
	}

	// 5xx pins the trace as errored.
	req3 := httptest.NewRequest("GET", "/v1/thing/boom", nil)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	tid, _, ok := trace.ParseTraceparent(rec3.Header().Get("Traceparent"))
	if !ok {
		t.Fatalf("response Traceparent unparsable: %q", rec3.Header().Get("Traceparent"))
	}
	boom := tr.Recorder().Find(tid.String())
	if boom == nil {
		t.Fatal("5xx trace not in recorder")
	}
	if !boom.Error {
		t.Error("5xx trace not marked errored")
	}
}

// TestMiddlewareNilLogger: metrics without access logging.
func TestMiddlewareNilLogger(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "/x")
	h := Middleware(m, nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/x", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if m.byClass[2].Value() != 1 {
		t.Errorf("2xx counter = %d, want 1", m.byClass[2].Value())
	}
}

// A request id keeps fmt's "%06x-%08x" shape: each part zero-padded to
// its width, and wider when the number needs it.
func TestRequestIDShape(t *testing.T) {
	for _, v := range []uint64{0, 0xa, 0xabc, 0xffffff, 0x1000000, 1<<40 + 7, 1<<64 - 1} {
		for _, width := range []int{6, 8} {
			if got, want := string(appendHex(nil, v, width)), fmt.Sprintf("%0*x", width, v); got != want {
				t.Errorf("appendHex(%#x, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
	seq := reqSeq.Load()
	if got, want := newReqID(), fmt.Sprintf("%06x-%08x", bootID, seq+1); got != want {
		t.Errorf("newReqID() = %q, want %q", got, want)
	}
}
