package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/render"
)

func decodeSync(t *testing.T, rw *httptest.ResponseRecorder) syncResponse {
	t.Helper()
	if rw.Code != 200 {
		t.Fatalf("sync status %d: %.300s", rw.Code, rw.Body.String())
	}
	var resp syncResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("sync body: %v", err)
	}
	return resp
}

// A zero-token sync against a populated store answers immediately with
// every requested id as a full doc, byte-identical to the GET endpoint.
func TestSyncFullResync(t *testing.T) {
	_, srv := newTestServer(t, 4000)
	resp := decodeSync(t, get(srv, "/v1/sync?ids=table4,fig8"))
	if resp.TimedOut || len(resp.Changed) != 2 {
		t.Fatalf("timed_out=%v changed=%d, want immediate full resync of 2 ids", resp.TimedOut, len(resp.Changed))
	}
	if resp.Next != srv.boot+"."+fmt.Sprint(resp.Seq) {
		t.Errorf("next token %q does not carry the boot nonce and seq", resp.Next)
	}
	for _, ch := range resp.Changed {
		if ch.Full == nil {
			t.Fatalf("%s: zero-token sync must ship the full doc", ch.ID)
		}
		want := get(srv, "/v1/experiments/"+ch.ID).Body.Bytes()
		if !bytes.Equal(ch.Full, bytes.TrimSuffix(want, []byte("\n"))) {
			t.Errorf("%s: sync full doc differs from GET body", ch.ID)
		}
	}
}

// A sync at the current token with new data arriving mid-park wakes on
// the snapshot cut — well before the timeout — and reports only what
// changed.
func TestSyncLongPollWakeup(t *testing.T) {
	f := corpus(t)
	store, srv := newTestServer(t, 4000)
	token := fmt.Sprint(store.Current().Seq)

	done := make(chan syncResponse, 1)
	start := time.Now()
	go func() {
		rw := get(srv, "/v1/sync?ids=table4&timeout=30s&since="+token)
		var resp syncResponse
		json.Unmarshal(rw.Body.Bytes(), &resp)
		done <- resp
	}()
	// Give the poll a moment to park, then change the data and cut.
	time.Sleep(50 * time.Millisecond)
	if _, err := store.Add(f.records[4000:8000]); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-done:
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("wakeup took %v; the poll rode its timeout instead of the cut", elapsed)
		}
		if resp.TimedOut {
			t.Error("woken poll reported timed_out")
		}
		if len(resp.Changed) != 1 || resp.Changed[0].ID != "table4" {
			t.Errorf("changed = %+v, want exactly table4", resp.Changed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll never returned after a snapshot cut")
	}
}

// With no change, the poll parks for its full timeout and returns empty
// with the same token.
func TestSyncTimeout(t *testing.T) {
	store, srv := newTestServer(t, 2000)
	token := fmt.Sprint(store.Current().Seq)
	start := time.Now()
	resp := decodeSync(t, get(srv, "/v1/sync?ids=table4&timeout=150ms&since="+token))
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("poll returned after %v, before its 150ms timeout", elapsed)
	}
	if !resp.TimedOut || len(resp.Changed) != 0 {
		t.Errorf("timed_out=%v changed=%d, want empty timeout response", resp.TimedOut, len(resp.Changed))
	}
	if resp.Seq != store.Current().Seq {
		t.Errorf("timeout response seq %d, want current %d", resp.Seq, store.Current().Seq)
	}
}

// Sequential sync: after one generation of new data, the second sync
// carries the change; when the renderer can diff, it ships a row-level
// delta that is smaller than the full doc.
func TestSyncIncremental(t *testing.T) {
	f := corpus(t)
	store, srv := newTestServer(t, 4000)
	first := decodeSync(t, get(srv, "/v1/sync?ids=table4"))

	if _, err := store.Add(f.records[4000:4200]); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	second := decodeSync(t, get(srv, "/v1/sync?ids=table4&since="+first.Next))
	if len(second.Changed) != 1 {
		t.Fatalf("changed = %d, want 1", len(second.Changed))
	}
	ch := second.Changed[0]
	full := get(srv, "/v1/experiments/table4").Body.Bytes()
	switch {
	case ch.Delta != nil:
		var d render.Delta
		if err := json.Unmarshal(ch.Delta, &d); err != nil {
			t.Fatalf("delta does not decode: %v", err)
		}
		if d.ID != "table4" {
			t.Errorf("delta id %q", d.ID)
		}
		if len(ch.Delta) >= len(full) {
			t.Errorf("delta (%d bytes) not smaller than full doc (%d)", len(ch.Delta), len(full))
		}
	case ch.Full != nil:
		if !bytes.Equal(ch.Full, bytes.TrimSuffix(full, []byte("\n"))) {
			t.Error("sync full doc differs from GET body")
		}
	default:
		t.Fatal("change carries neither full nor delta")
	}

	// An unchanged third sync is empty; the short timeout keeps the
	// no-op long-poll from parking for DefaultSyncTimeout.
	third := decodeSync(t, get(srv, "/v1/sync?ids=table4&timeout=50ms&since="+second.Next))
	if len(third.Changed) != 0 {
		t.Errorf("no-op sync reported %d changes", len(third.Changed))
	}
}

// Tokens from another process life (wrong boot nonce) or beyond the
// current generation trigger a full resync, never a park or stale data;
// malformed tokens are 400.
func TestSyncTokenHandling(t *testing.T) {
	_, srv := newTestServer(t, 2000)
	foreign := decodeSync(t, get(srv, "/v1/sync?ids=table4&since=zzzz.7&timeout=10s"))
	if len(foreign.Changed) != 1 || foreign.Changed[0].Full == nil {
		t.Error("foreign-boot token did not trigger an immediate full resync")
	}
	future := decodeSync(t, get(srv, "/v1/sync?ids=table4&since=999999&timeout=10s"))
	if len(future.Changed) != 1 {
		t.Error("future token did not trigger an immediate full resync")
	}
	if rw := get(srv, "/v1/sync?since=notanumber"); rw.Code != 400 {
		t.Errorf("malformed token: status %d, want 400", rw.Code)
	}
	if rw := get(srv, "/v1/sync?timeout=fast"); rw.Code != 400 {
		t.Errorf("malformed timeout: status %d, want 400", rw.Code)
	}
	if rw := get(srv, "/v1/sync?ids=nope"); rw.Code != 404 {
		t.Errorf("unknown id: status %d, want 404", rw.Code)
	}
	if rw := get(srv, "/v1/sync?format=text"); rw.Code != 400 {
		t.Errorf("format=text: status %d, want 400", rw.Code)
	}
}

// Parked polls resolve when the daemon drains: flipping readiness wakes
// them with 503 instead of letting them pin the shutdown deadline, and
// closing the store does the same.
func TestSyncDrainWakeup(t *testing.T) {
	f := corpus(t)
	for _, tc := range []struct {
		name  string
		drain func(*Store, *Readiness)
	}{
		{"readiness-flip", func(_ *Store, r *Readiness) { r.Set("draining") }},
		{"store-close", func(st *Store, _ *Readiness) { st.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewStore(Config{Options: f.opt, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if _, err := store.Add(f.records[:1000]); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Refresh(); err != nil {
				t.Fatal(err)
			}
			ready := NewReadiness("ok")
			srv := NewServer(store, f.gen, WithReadiness(ready))
			token := fmt.Sprint(store.Current().Seq)

			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- get(srv, "/v1/sync?ids=table4&timeout=30s&since="+token) }()
			time.Sleep(50 * time.Millisecond)
			tc.drain(store, ready)
			select {
			case rw := <-done:
				if rw.Code != 503 {
					t.Errorf("drained poll answered %d, want 503", rw.Code)
				}
				if rw.Header().Get("Retry-After") == "" {
					t.Error("drained poll carries no Retry-After")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked poll hung through drain — SIGTERM would stall")
			}
		})
	}
}

// The parked-poll bound sheds excess long-polls with 429 instead of
// accumulating goroutines: the poll one past DefaultSyncMaxParked
// sheds, and a bound of zero disables parking entirely.
func TestSyncParkedShed(t *testing.T) {
	store, srv := newTestServer(t, 2000)
	srv.syncMaxParked = 0
	token := fmt.Sprint(store.Current().Seq)
	rw := get(srv, "/v1/sync?ids=table4&timeout=10s&since="+token)
	if rw.Code != 429 {
		t.Fatalf("park over the bound answered %d, want 429", rw.Code)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	// Shedding only applies to parking: an immediate answer still works.
	if rw := get(srv, "/v1/sync?ids=table4"); rw.Code != 200 {
		t.Errorf("immediate sync sheds too: status %d", rw.Code)
	}

	// With a bound of 1, a second concurrent park sheds while the first
	// stays parked.
	srv2 := NewServer(store, corpus(t).gen)
	srv2.syncMaxParked = 1
	parked := make(chan *httptest.ResponseRecorder, 1)
	// The parked poll resolves at cleanup: closing the store fires its
	// Done arm, so the goroutine never outlives the test binary.
	go func() {
		parked <- get(srv2, "/v1/sync?ids=table4&timeout=30s&since="+token)
	}()
	// Wait until the first poll is actually parked.
	deadline := time.Now().Add(5 * time.Second)
	for srv2.syncWaiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first poll never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if rw := get(srv2, "/v1/sync?ids=table4&timeout=10s&since="+token); rw.Code != 429 {
		t.Errorf("second park answered %d, want 429", rw.Code)
	}
	// A spurious wakeup (same Seq) must re-park, not return early.
	store.changed.wake()
	select {
	case rw := <-parked:
		t.Fatalf("parked poll returned on a no-change wakeup: status %d", rw.Code)
	case <-time.After(100 * time.Millisecond):
	}

	// At the default bound, the 1,025th concurrent park sheds. The
	// parked polls resolve at cleanup like the one above.
	srv3 := NewServer(store, corpus(t).gen)
	for i := 0; i < DefaultSyncMaxParked; i++ {
		go get(srv3, "/v1/sync?ids=table4&timeout=30s&since="+token)
	}
	deadline = time.Now().Add(10 * time.Second)
	for srv3.syncWaiting.Load() < DefaultSyncMaxParked {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d polls parked", srv3.syncWaiting.Load(), DefaultSyncMaxParked)
		}
		time.Sleep(time.Millisecond)
	}
	if rw := get(srv3, "/v1/sync?ids=table4&timeout=10s&since="+token); rw.Code != 429 || !strings.Contains(rw.Body.String(), "1024") {
		t.Errorf("poll %d answered %d %s, want 429 naming the bound 1024", DefaultSyncMaxParked+1, rw.Code, rw.Body.String())
	}
}

// The full read path is race-free under load: concurrent ingest,
// snapshot cuts, conditional GETs and sync polls (run with -race).
func TestSyncRaceHammer(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4, SnapshotEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, f.gen)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: feed batches and cut snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs := f.records
		for len(recs) > 0 {
			n := 256
			if n > len(recs) {
				n = len(recs)
			}
			store.Add(recs[:n])
			recs = recs[n:]
			store.Refresh()
		}
	}()

	errs := make(chan string, 16)
	// Conditional-GET readers: hold the last ETag and revalidate — two
	// against the snapshot, one against the live partitions.
	for _, path := range []string{"/v1/tables/4", "/v1/tables/4", "/v1/range/table4"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rw *httptest.ResponseRecorder
				if etag != "" {
					rw = get(srv, path, [2]string{"If-None-Match", etag})
				} else {
					rw = get(srv, path)
				}
				if rw.Code != 200 && rw.Code != 304 {
					select {
					case errs <- fmt.Sprintf("GET %s status %d", path, rw.Code):
					default:
					}
					return
				}
				if e := rw.Header().Get("ETag"); e != "" {
					etag = e
				}
			}
		}()
	}
	// Sync pollers: ride the token chain with short timeouts.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			since := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				rw := get(srv, "/v1/sync?ids=table4,table1&timeout=20ms&since="+since)
				if rw.Code != 200 {
					select {
					case errs <- fmt.Sprintf("sync status %d: %.120s", rw.Code, rw.Body.String()):
					default:
					}
					return
				}
				var resp syncResponse
				if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
					select {
					case errs <- fmt.Sprintf("sync decode: %v", err):
					default:
					}
					return
				}
				since = resp.Next
			}
		}()
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Quiesced: one more token round-trip must drain to empty.
	store.Refresh()
	resp := decodeSync(t, get(srv, "/v1/sync?ids=table4"))
	final := decodeSync(t, get(srv, "/v1/sync?ids=table4&timeout=50ms&since="+resp.Next))
	if len(final.Changed) != 0 {
		t.Errorf("quiesced sync still reports %d changes", len(final.Changed))
	}
}

// Sync responses honor Accept-Encoding like the doc endpoints.
func TestSyncGzip(t *testing.T) {
	_, srv := newTestServer(t, 2000)
	plain := get(srv, "/v1/sync?ids=table4")
	gz := get(srv, "/v1/sync?ids=table4", [2]string{"Accept-Encoding", "gzip"})
	if gz.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("sync response not gzip-encoded")
	}
	if !bytes.Equal(gunzip(t, gz.Body.Bytes()), plain.Body.Bytes()) {
		t.Error("gzip sync body differs from plain")
	}
	if !strings.Contains(plain.Header().Get("Vary"), "Accept-Encoding") {
		t.Error("sync response missing Vary: Accept-Encoding")
	}
}
