package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"syriafilter/internal/obs/trace"
)

// traceNode mirrors the /debug/traces/{id} tree payload for decoding.
type traceNode struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*traceNode   `json:"children"`
}

// walk applies fn to every node in the tree.
func (n *traceNode) walk(fn func(*traceNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// The PR's acceptance criterion: a /v1/range request slowed by an
// injected per-shard stall produces a retrievable trace at
// /debug/traces/{id} whose span tree attributes the latency to the
// right stage — the stalled range.shard span dominates, not HTTP
// dispatch or rendering.
func TestRangeTraceAttributesInjectedStall(t *testing.T) {
	f := corpus(t)
	tr := trace.New(trace.Config{Slow: 100 * time.Millisecond})
	store, err := NewStore(Config{
		Options: f.opt, Shards: 4, Bucket: time.Hour, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const stall = 250 * time.Millisecond
	store.rangeStall = func(shard int) {
		if shard == 0 {
			time.Sleep(stall)
		}
	}
	store.add(f.records[:4096], nil)
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	// A single window and a day-step series: the series' shards merge into
	// shared per-window engines, so a stalled shard must still own its
	// own span, and the render span says how many workers it ran on.
	for _, read := range []struct{ name, path string }{
		{"window", "/v1/range/table1"},
		{"series", "/v1/range/table1?step=24h"},
	} {
		t.Run(read.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + read.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("range status = %d", resp.StatusCode)
			}
			traceID, _, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
			if !ok {
				t.Fatalf("unparsable Traceparent response header: %q", resp.Header.Get("Traceparent"))
			}

			// The stalled request crossed the slow threshold, so the recorder
			// must have pinned it regardless of sampling.
			resp2, err := http.Get(srv.URL + "/debug/traces/" + traceID.String())
			if err != nil {
				t.Fatal(err)
			}
			defer resp2.Body.Close()
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("GET /debug/traces/%s status = %d", traceID, resp2.StatusCode)
			}
			var got struct {
				ID         string     `json:"id"`
				DurationMS float64    `json:"duration_ms"`
				Slow       bool       `json:"slow"`
				Tree       *traceNode `json:"tree"`
			}
			if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.ID != traceID.String() {
				t.Errorf("trace id = %s, want %s", got.ID, traceID)
			}
			if !got.Slow {
				t.Error("stalled trace not marked slow")
			}

			// Attribution: the slowest range.shard span carries the injected
			// stall (shard 0), dominates the request, and dwarfs both the other
			// shards and the render span — reading this tree answers "where did
			// the time go" correctly.
			var slowShard, render *traceNode
			shardSpans := 0
			got.Tree.walk(func(n *traceNode) {
				switch n.Name {
				case "range.shard":
					shardSpans++
					if slowShard == nil || n.DurationMS > slowShard.DurationMS {
						slowShard = n
					}
				case "render":
					render = n
				}
			})
			if shardSpans != 4 {
				t.Fatalf("range.shard spans = %d, want 4 (one per shard)", shardSpans)
			}
			if slowShard == nil || render == nil {
				t.Fatal("trace tree missing range.shard or render span")
			}
			stallMS := float64(stall) / float64(time.Millisecond)
			if slowShard.DurationMS < stallMS {
				t.Errorf("slowest range.shard = %.1fms, want >= injected %.0fms", slowShard.DurationMS, stallMS)
			}
			if shard, ok := slowShard.Attrs["shard"].(float64); !ok || shard != 0 {
				t.Errorf("slowest range.shard attrs = %v, want shard 0", slowShard.Attrs)
			}
			if slowShard.DurationMS < 0.5*got.DurationMS {
				t.Errorf("stalled shard %.1fms does not dominate request %.1fms",
					slowShard.DurationMS, got.DurationMS)
			}
			if render.DurationMS > slowShard.DurationMS/2 {
				t.Errorf("render %.1fms rivals the stalled shard %.1fms — misattributed",
					render.DurationMS, slowShard.DurationMS)
			}
			windows, _ := render.Attrs["windows"].(float64)
			workers, _ := render.Attrs["workers"].(float64)
			if (read.name == "series") != (windows > 1) ||
				workers != float64(min(runtime.GOMAXPROCS(0), int(windows))) {
				t.Errorf("render attrs = %v, want windows > 1 for a series only and workers = min(GOMAXPROCS, windows)", render.Attrs)
			}

			// The list view carries the same trace, and /v1/stats surfaces the
			// recorder's retention counters plus build identity.
			var list struct {
				Stats  trace.RecorderStats `json:"stats"`
				Traces []struct {
					ID   string `json:"id"`
					Slow bool   `json:"slow"`
				} `json:"traces"`
			}
			resp3, err := http.Get(srv.URL + "/debug/traces?min_ms=100")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			resp3.Body.Close()
			found := false
			for _, s := range list.Traces {
				if s.ID == traceID.String() {
					found = s.Slow
				}
			}
			if !found {
				t.Errorf("trace %s not listed slow at /debug/traces?min_ms=100", traceID)
			}
			if list.Stats.KeptSlow == 0 {
				t.Error("recorder stats report no slow traces kept")
			}
		})
	}

	stats := store.Stats()
	if stats.Trace == nil || stats.Trace.SlowThresholdMS != 100 {
		t.Errorf("Stats().Trace = %+v, want slow_threshold_ms 100", stats.Trace)
	}
	if stats.Build.GoVersion == "" {
		t.Error("Stats().Build.GoVersion empty")
	}
}

// Tracing disabled (no Tracer in Config): the debug endpoints answer
// 404 and request handling is unaffected.
func TestTracesEndpointDisabled(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.add(f.records[:512], nil)
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store, f.gen))
	defer srv.Close()

	for _, path := range []string{"/debug/traces", "/debug/traces/deadbeef"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/range/table1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("range without tracer = %d, want 200", resp.StatusCode)
	}
	if tp := resp.Header.Get("Traceparent"); tp != "" {
		t.Errorf("Traceparent header emitted with tracing disabled: %q", tp)
	}
}
