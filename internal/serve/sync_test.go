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

	"syriafilter/internal/logfmt"
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
// A repeated id is sent once, in the order ?ids first names it.
func TestSyncFullResync(t *testing.T) {
	_, srv := newTestServer(t, 4000)
	for _, ids := range []string{"table4,fig8", "table4,fig8,table4"} {
		resp := decodeSync(t, get(srv, "/v1/sync?ids="+ids))
		var got []string
		for _, ch := range resp.Changed {
			got = append(got, ch.ID)
		}
		if resp.TimedOut || strings.Join(got, ",") != "table4,fig8" {
			t.Fatalf("ids=%s: timed_out=%v changed=%v, want an immediate full resync of table4, fig8", ids, resp.TimedOut, got)
		}
		if resp.Next != srv.boot+"."+fmt.Sprint(resp.Seq) {
			t.Errorf("next token %q does not carry the boot nonce and seq", resp.Next)
		}
		for _, ch := range resp.Changed {
			want := get(srv, "/v1/experiments/"+ch.ID).Body.Bytes()
			if !bytes.Equal(ch.Full, bytes.TrimSuffix(want, []byte("\n"))) {
				t.Errorf("%s: sync full doc differs from GET body", ch.ID)
			}
		}
	}
}

// waitParked waits until n sync polls are parked on srv. A test that
// cuts or drains before its poll has parked passes without ever
// exercising park → wake.
func waitParked(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.syncWaiting.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d polls parked", srv.syncWaiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
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
	// Once the poll is parked, change the data and cut.
	waitParked(t, srv, 1)
	if _, err := store.add(f.records[4000:8000], nil); err != nil {
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
// carries each change as the full doc, byte-identical to the GET body,
// and the wire has no other encoding of it. table1 is in the set
// because a few changed rows of a longer doc are what a row-level delta
// would have been sent for.
func TestSyncIncremental(t *testing.T) {
	f := corpus(t)
	store, srv := newTestServer(t, 4000)
	first := decodeSync(t, get(srv, "/v1/sync?ids=table4,table1"))

	if _, err := store.add(f.records[4000:4200], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	rw := get(srv, "/v1/sync?ids=table4,table1&since="+first.Next)
	second := decodeSync(t, rw)
	if len(second.Changed) != 2 {
		t.Fatalf("changed = %d, want 2", len(second.Changed))
	}
	for _, ch := range second.Changed {
		full := get(srv, "/v1/experiments/"+ch.ID).Body.Bytes()
		if !bytes.Equal(ch.Full, bytes.TrimSuffix(full, []byte("\n"))) {
			t.Errorf("%s: sync full doc differs from GET body", ch.ID)
		}
	}
	var raw struct {
		Changed []map[string]json.RawMessage `json:"changed"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, ch := range raw.Changed {
		if _, ok := ch["delta"]; ok {
			t.Errorf("%s: sync change carries a \"delta\" key", ch["id"])
		}
	}

	// An unchanged third sync is empty; the short timeout keeps the
	// no-op long-poll from parking for DefaultSyncTimeout.
	third := decodeSync(t, get(srv, "/v1/sync?ids=table4,table1&timeout=50ms&since="+second.Next))
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
			if _, err := store.add(f.records[:1000], nil); err != nil {
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
			waitParked(t, srv, 1)
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
	waitParked(t, srv2, 1)
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
	waitParked(t, srv3, DefaultSyncMaxParked)
	if rw := get(srv3, "/v1/sync?ids=table4&timeout=10s&since="+token); rw.Code != 429 || !strings.Contains(rw.Body.String(), "1024") {
		t.Errorf("poll %d answered %d %s, want 429 naming the bound 1024", DefaultSyncMaxParked+1, rw.Code, rw.Body.String())
	}
}

// syncPoller is one /v1/sync client: it rides a token chain and keeps
// every doc a response sent it, the way a client assembles its view.
type syncPoller struct {
	srv     *Server
	ids     string
	timeout string
	since   string
	docs    map[string][]byte
	resync  bool // the next response must be a full resync
}

// poll runs one sync and folds its changes into p.docs; it returns how
// many docs changed.
func (p *syncPoller) poll(timeout string) (int, error) {
	rw := get(p.srv, "/v1/sync?ids="+p.ids+"&timeout="+timeout+"&since="+p.since)
	if rw.Code != 200 {
		return 0, fmt.Errorf("sync ids=%s: status %d: %.120s", p.ids, rw.Code, rw.Body.String())
	}
	var resp syncResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		return 0, fmt.Errorf("sync ids=%s: %v", p.ids, err)
	}
	if p.resync && resp.Since != 0 {
		return 0, fmt.Errorf("sync ids=%s: a token from another server resumed at %d, want a full resync", p.ids, resp.Since)
	}
	p.resync = false
	if resp.Since == 0 && len(resp.Changed) != strings.Count(p.ids, ",")+1 {
		return 0, fmt.Errorf("sync ids=%s: full resync sent %d docs", p.ids, len(resp.Changed))
	}
	for _, ch := range resp.Changed {
		if ch.ChangedSeq <= resp.Since || ch.ChangedSeq > resp.Seq {
			return 0, fmt.Errorf("sync %s: changed_seq %d outside (%d, %d]", ch.ID, ch.ChangedSeq, resp.Since, resp.Seq)
		}
		p.docs[ch.ID] = ch.Full
	}
	p.since = resp.Next
	return len(resp.Changed), nil
}

// The full read path is race-free under load and /v1/sync converges:
// while a writer feeds the whole fixture through ingest and snapshot
// cuts, conditional GETs revalidate and pollers with different id sets
// and timeouts ride their token chains, one against a server whose doc
// cache evicts throughout, one moving to that server halfway (its
// token's boot nonce is foreign there, so it must resync in full). Once
// the writer is done, every doc each poller assembled equals a fresh
// GET byte for byte (run with -race).
func TestSyncRaceHammer(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4, SnapshotEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.add(f.records[:2000], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, f.gen)
	// A few KB holds one generation of fig5 but not the working set.
	small := NewServer(store, f.gen, docCacheBytes(4<<10))

	half, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup

	// Writer: feed batches and cut snapshots; the readers stop once it
	// has fed the whole fixture.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		feed := func(recs []logfmt.Record) {
			for len(recs) > 0 {
				n := min(256, len(recs))
				store.add(recs[:n], nil)
				recs = recs[n:]
				store.Refresh()
			}
		}
		mid := (2000 + len(f.records)) / 2
		feed(f.records[2000:mid])
		close(half)
		feed(f.records[mid:])
	}()

	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// Conditional-GET readers: hold the last ETag and revalidate — two
	// against the snapshot, one against the live partitions.
	for _, rd := range []struct {
		srv  *Server
		path string
	}{{srv, "/v1/tables/4"}, {small, "/v1/tables/4"}, {srv, "/v1/range/table4"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for !stopped() {
				var rw *httptest.ResponseRecorder
				if etag != "" {
					rw = get(rd.srv, rd.path, [2]string{"If-None-Match", etag})
				} else {
					rw = get(rd.srv, rd.path)
				}
				if rw.Code != 200 && rw.Code != 304 {
					fail(fmt.Errorf("GET %s status %d", rd.path, rw.Code))
					return
				}
				if e := rw.Header().Get("ETag"); e != "" {
					etag = e
				}
			}
		}()
	}
	// Sync pollers; the last moves to the evicting server halfway.
	pollers := []*syncPoller{
		{srv: srv, ids: "table4,table1", timeout: "20ms"},
		{srv: small, ids: "fig5,table8,table4", timeout: "0s"},
		{srv: srv, ids: "table12,fig5", timeout: "5ms"},
	}
	for i, p := range pollers {
		p.docs = map[string][]byte{}
		move := i == len(pollers)-1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// half closes before stop, so the move happens even
				// when the writer finishes first.
				select {
				case <-half:
					if move {
						p.srv, p.resync, move = small, true, false
					}
				default:
				}
				if stopped() {
					return
				}
				if _, err := p.poll(p.timeout); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if small.readm.cacheEvictions.Value() == 0 {
		t.Error("the small doc cache never evicted during the run")
	}

	// Quiesced: one more poll brings each poller to the current docs,
	// and the one after it is empty.
	store.Refresh()
	for _, p := range pollers {
		if _, err := p.poll("0s"); err != nil {
			t.Fatal(err)
		}
		for _, id := range strings.Split(p.ids, ",") {
			fresh := get(p.srv, "/v1/experiments/"+id).Body.Bytes()
			if !bytes.Equal(p.docs[id], bytes.TrimSuffix(fresh, []byte("\n"))) {
				t.Errorf("ids=%s: %s assembled from sync differs from a fresh GET", p.ids, id)
			}
		}
		if n, err := p.poll("0s"); err != nil || n != 0 {
			t.Errorf("ids=%s: quiesced sync reports %d changes (err %v)", p.ids, n, err)
		}
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
