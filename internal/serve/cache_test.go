package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"syriafilter/internal/render"
)

// docCacheBytes sets the server's doc cache budget (0 disables it).
func docCacheBytes(n int64) ServerOption { return func(s *Server) { s.cacheBytes = n } }

// newTestServer builds a store over the first n fixture records, cuts a
// snapshot, and wraps it in a Server with the given options.
func newTestServer(t *testing.T, n int, opts ...ServerOption) (*Store, *Server) {
	t.Helper()
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if n > 0 {
		if _, err := store.add(f.records[:n], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	return store, NewServer(store, f.gen, opts...)
}

// get runs one in-process GET and returns the recorder.
func get(s *Server, path string, hdr ...[2]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	for _, h := range hdr {
		req.Header.Set(h[0], h[1])
	}
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	return rw
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The tentpole invariant: for every experiment id and both formats, the
// cache-served body (second request) is byte-identical to the fresh
// render (first request, and a cache-disabled server over the same
// store), and the gzip variant decompresses to exactly the plain body.
func TestDocCacheByteIdentity(t *testing.T) {
	store, cached := newTestServer(t, 8000)
	uncached := NewServer(store, corpus(t).gen, docCacheBytes(0))

	for _, id := range render.Order() {
		for _, format := range []string{"json", "text"} {
			path := "/v1/experiments/" + id + "?format=" + format
			fresh := get(cached, path) // miss: renders and fills the cache
			hit := get(cached, path)   // hit: served from the cache
			control := get(uncached, path)
			if fresh.Code != 200 || hit.Code != 200 || control.Code != 200 {
				t.Fatalf("%s: status %d/%d/%d", path, fresh.Code, hit.Code, control.Code)
			}
			if !bytes.Equal(hit.Body.Bytes(), fresh.Body.Bytes()) {
				t.Errorf("%s: cache hit differs from fresh render", path)
			}
			if !bytes.Equal(hit.Body.Bytes(), control.Body.Bytes()) {
				t.Errorf("%s: cache hit differs from cache-disabled server", path)
			}
			if fresh.Header().Get("ETag") == "" || fresh.Header().Get("ETag") != hit.Header().Get("ETag") {
				t.Errorf("%s: ETag unstable across cache hit: %q vs %q",
					path, fresh.Header().Get("ETag"), hit.Header().Get("ETag"))
			}
			gz := get(cached, path, [2]string{"Accept-Encoding", "gzip"})
			if gz.Code != 200 || gz.Header().Get("Content-Encoding") != "gzip" {
				t.Fatalf("%s: gzip variant status %d encoding %q", path, gz.Code, gz.Header().Get("Content-Encoding"))
			}
			if !bytes.Equal(gunzip(t, gz.Body.Bytes()), fresh.Body.Bytes()) {
				t.Errorf("%s: gzip variant does not decompress to the plain body", path)
			}
		}
	}
}

// ETags revalidate while the snapshot generation holds and change when
// it moves: If-None-Match answers 304 with no body, and after new
// records and a snapshot cut the same validator gets a full 200 with a
// different tag.
func TestETagRevalidation(t *testing.T) {
	f := corpus(t)
	store, srv := newTestServer(t, 4000)

	first := get(srv, "/v1/tables/4")
	etag := first.Header().Get("ETag")
	if first.Code != 200 || etag == "" {
		t.Fatalf("status %d, etag %q", first.Code, etag)
	}
	reval := get(srv, "/v1/tables/4", [2]string{"If-None-Match", etag})
	if reval.Code != 304 || reval.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d, body %d bytes (want 304, empty)", reval.Code, reval.Body.Len())
	}
	// Weak-prefix and list forms must match too.
	if rw := get(srv, "/v1/tables/4", [2]string{"If-None-Match", `W/"nope", ` + etag}); rw.Code != 304 {
		t.Errorf("list-form If-None-Match: status %d, want 304", rw.Code)
	}
	// A validator is only honoured for a request that would otherwise
	// answer 200: nothing vouches for a doc that does not exist, or for a
	// format nobody serves.
	for path, want := range map[string]int{
		"/v1/experiments/nope":      404,
		"/v1/tables/99":             404,
		"/v1/range/nope":            404,
		"/v1/tables/4?format=xml":   400,
		"/v1/range/table4?format=x": 400,
		"/v1/experiments?format=x":  400,
	} {
		for _, inm := range []string{"", "*", etag} {
			if rw := get(srv, path, [2]string{"If-None-Match", inm}); rw.Code != want || rw.Header().Get("ETag") != "" {
				t.Errorf("%s with If-None-Match %s: status %d, ETag %q; want %d and none",
					path, inm, rw.Code, rw.Header().Get("ETag"), want)
			}
		}
	}

	if _, err := store.add(f.records[4000:8000], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	after := get(srv, "/v1/tables/4", [2]string{"If-None-Match", etag})
	if after.Code != 200 {
		t.Fatalf("post-cut revalidation: status %d, want 200", after.Code)
	}
	if after.Header().Get("ETag") == etag {
		t.Error("ETag did not change across a snapshot cut with new records")
	}
	if bytes.Equal(after.Body.Bytes(), first.Body.Bytes()) {
		t.Error("body did not change across a snapshot cut with new records")
	}
}

// Refresh with no new records keeps the published snapshot: Seq (and
// with it every cache key and sync token) only moves when data does.
func TestRefreshSkipsWhenUnchanged(t *testing.T) {
	store, _ := newTestServer(t, 2000)
	s1, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Seq != s1.Seq {
		t.Errorf("idle Refresh moved Seq %d -> %d", s1.Seq, s2.Seq)
	}
	if _, err := store.add(corpus(t).records[2000:2100], nil); err != nil {
		t.Fatal(err)
	}
	s3, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if s3.Seq <= s2.Seq {
		t.Errorf("Refresh after new records kept Seq %d", s3.Seq)
	}
}

// The experiment index is frozen at boot: stable content ETag, 304
// revalidation, and a gzip variant holding the same bytes.
func TestIndexCached(t *testing.T) {
	_, srv := newTestServer(t, 1000)
	first := get(srv, "/v1/experiments")
	etag := first.Header().Get("ETag")
	if first.Code != 200 || !strings.HasPrefix(etag, `"idx-`) {
		t.Fatalf("status %d, etag %q", first.Code, etag)
	}
	if rw := get(srv, "/v1/experiments", [2]string{"If-None-Match", etag}); rw.Code != 304 {
		t.Errorf("index revalidation: status %d, want 304", rw.Code)
	}
	gz := get(srv, "/v1/experiments", [2]string{"Accept-Encoding", "gzip"})
	if gz.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("index gzip variant not encoded")
	}
	if !bytes.Equal(gunzip(t, gz.Body.Bytes()), first.Body.Bytes()) {
		t.Error("index gzip variant differs from plain body")
	}
}

// Range responses cache under the window-content fingerprint: a frozen
// window keeps its ETag across snapshot cuts that do not touch it, and
// cache-served range bodies equal fresh merges.
func TestRangeCacheByteIdentity(t *testing.T) {
	store, srv := newTestServer(t, 6000)
	meta := store.Current().Timewin
	if len(meta.Buckets) == 0 {
		t.Skip("fixture produced no live buckets")
	}
	from := meta.Buckets[0].StartUnix
	to := from + meta.BucketSeconds
	path := fmt.Sprintf("/v1/range/table4?from=%d&to=%d", from, to)

	fresh := get(srv, path)
	if fresh.Code != 200 {
		t.Fatalf("%s: status %d body %.200s", path, fresh.Code, fresh.Body.String())
	}
	etag := fresh.Header().Get("ETag")
	if etag == "" {
		t.Fatal("range response carries no ETag")
	}
	hit := get(srv, path)
	if !bytes.Equal(hit.Body.Bytes(), fresh.Body.Bytes()) {
		t.Error("cached range body differs from fresh merge")
	}
	if hit.Header().Get("X-Range-Records") != fresh.Header().Get("X-Range-Records") {
		t.Error("cached range lost its X-Range-* headers")
	}
	if rw := get(srv, path, [2]string{"If-None-Match", etag}); rw.Code != 304 {
		t.Errorf("range revalidation: status %d, want 304", rw.Code)
	}
	// A snapshot cut over unrelated data must not invalidate a frozen
	// window: equal fingerprint, equal ETag, still 304.
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	if rw := get(srv, path, [2]string{"If-None-Match", etag}); rw.Code != 304 {
		t.Errorf("frozen-window revalidation after idle cut: status %d, want 304", rw.Code)
	}
}

// The LRU respects its byte budget and counts evictions.
func TestDocCacheEviction(t *testing.T) {
	c := newDocCache(2048, &readMetrics{})
	body := make([]byte, 400)
	var keys []docKey
	for i := 0; i < 8; i++ {
		k := docKey{gen: uint64(i), id: "x", format: "json"}
		c.put(k, &docEntry{body: body})
		keys = append(keys, k)
	}
	c.mu.Lock()
	n, b := len(c.entries), c.bytes
	c.mu.Unlock()
	if b > 2048 {
		t.Errorf("cache holds %d bytes, budget 2048", b)
	}
	if n >= 8 {
		t.Errorf("cache kept all %d entries; expected evictions", n)
	}
	if c.get(keys[0]) != nil {
		t.Error("coldest entry survived eviction")
	}
	if c.get(keys[7]) == nil {
		t.Error("hottest entry was evicted")
	}
	// Oversized entries are refused outright.
	c.put(docKey{gen: 99, id: "big"}, &docEntry{body: make([]byte, 4096)})
	if c.get(docKey{gen: 99, id: "big"}) != nil {
		t.Error("entry larger than the whole budget was cached")
	}
	// A nil cache (caching disabled) is inert.
	var nc *docCache
	nc.put(keys[0], &docEntry{body: body})
	if nc.get(keys[0]) != nil {
		t.Error("nil cache returned an entry")
	}
}
