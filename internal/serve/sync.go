package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"syriafilter/internal/obs/trace"
	"syriafilter/internal/render"
)

// DefaultSyncMaxParked bounds concurrently parked /v1/sync long-polls.
// Each parked poll costs one goroutine and one connection; past the
// bound, polls shed with 429 + Retry-After.
const DefaultSyncMaxParked = 1024

// DefaultSyncTimeout is how long a /v1/sync long-poll parks when the
// client sends no ?timeout. Below typical LB/proxy idle timeouts so a
// quiet daemon answers (empty) before an intermediary kills the
// connection.
const DefaultSyncTimeout = 25 * time.Second

// maxSyncTimeout caps client-supplied ?timeout values.
const maxSyncTimeout = 5 * time.Minute

// syncTracker remembers, per experiment id, the current rendered JSON
// and the snapshot Seq at which it became current. That is exactly
// enough to answer "changed since token?": a change carries the full
// doc, so no earlier rendering is kept. Ids are tracked lazily — only
// those /v1/sync requests actually ask for — so sync load determines
// sync cost.
type syncTracker struct {
	mu   sync.Mutex
	docs map[string]*docTrack
}

type docTrack struct {
	curJSON []byte // EncodeJSON bytes (trailing newline included)
	curSeq  uint64 // seq at which curJSON last changed
	seenSeq uint64 // newest seq evaluated (>= curSeq)
}

// changes lists which of ids changed since the token, at the snapshot
// current once the tracker lock is held. No track has seen a newer one
// then, so every doc in a response belongs to the snapshot it names,
// and curSeq/seenSeq only advance. The renders go through the doc
// cache (same key the GET endpoints use), so tracking an id also warms
// its cache entry; when one fails, the status to answer with comes
// back with the error.
func (s *Server) changes(ctx context.Context, ids []string, since uint64) (*Snapshot, []syncChange, int, error) {
	t := &s.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := s.store.Current()
	changed := []syncChange{}
	for _, id := range ids {
		dt := t.docs[id]
		if dt == nil {
			dt = &docTrack{}
			t.docs[id] = dt
		}
		if dt.curJSON == nil || snap.Seq > dt.seenSeq {
			e, status, err := s.through(ctx, &source{id: id, snap: snap}, docKey{gen: snap.Seq, id: id, format: "json"}, true)
			if err != nil {
				return nil, nil, status, err
			}
			if !bytes.Equal(e.body, dt.curJSON) {
				dt.curJSON, dt.curSeq = e.body, snap.Seq
			}
			dt.seenSeq = snap.Seq
		}
		if dt.curSeq > since {
			changed = append(changed, syncChange{
				ID:         id,
				ChangedSeq: dt.curSeq,
				Full:       dt.curJSON[:len(dt.curJSON)-1], // strip the newline for embedding
			})
		}
	}
	return snap, changed, 0, nil
}

// syncChange is one changed experiment in a /v1/sync response: the
// full doc, the exact bytes GET /v1/experiments/{id} serves without
// its trailing newline. Clients that want fewer bytes ask for gzip.
type syncChange struct {
	ID         string          `json:"id"`
	ChangedSeq uint64          `json:"changed_seq"`
	Full       json.RawMessage `json:"full"`
}

type syncResponse struct {
	Since    uint64       `json:"since"`
	Next     string       `json:"next"`
	Seq      uint64       `json:"snapshot_seq"`
	Records  uint64       `json:"snapshot_records"`
	TimedOut bool         `json:"timed_out,omitempty"`
	Changed  []syncChange `json:"changed"`
}

// handleSync is the incremental query endpoint, modeled on Matrix
// /sync: GET /v1/sync?since=<token>&timeout=<dur>&ids=<id,id,...>.
//
// Tokens are snapshot generations (prefixed with the boot nonce); the
// zero token means "everything". When the published snapshot is
// already past since, the response is immediate; otherwise the request
// parks until a snapshot cut moves Seq (a change signal woken by
// Refresh), the timeout lapses (an empty response with the same
// token), or the daemon starts draining (503, so SIGTERM never stalls
// behind parked pollers). The response lists, as full docs, only the
// experiments whose rendered docs changed since the token, each once
// in the order ?ids first names it, plus the next token. Tokens do not
// survive a daemon restart: a token minted by another process life
// triggers a full resync, never stale data.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if s.gateServing(w) {
		return
	}
	q := r.URL.Query()
	v, ok := negotiate(w, r, q.Get("format"))
	if !ok {
		return
	}
	if v.format != "json" {
		writeError(w, http.StatusBadRequest, "sync: only format=json is supported")
		return
	}
	since, err := s.parseSyncToken(q.Get("since"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := DefaultSyncTimeout
	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "sync: bad timeout %q (want a Go duration like 30s)", t)
			return
		}
		if d > maxSyncTimeout {
			d = maxSyncTimeout
		}
		timeout = d
	}
	var ids []string
	if list := q.Get("ids"); list != "" {
		for _, id := range strings.Split(list, ",") {
			if slices.Contains(ids, id) {
				continue // a repeated id is sent once
			}
			if _, ok := s.admit(w, id); !ok {
				return
			}
			ids = append(ids, id)
		}
	} else {
		for _, id := range render.Order() {
			if s.gen != nil || !render.NeedsGenerator(id) {
				ids = append(ids, id) // the default set skips what this daemon cannot render
			}
		}
	}
	// A token from beyond the current generation (another process life,
	// or a client-made number) cannot be positioned in this history:
	// resync from scratch rather than parking forever.
	if cur := s.store.Current(); since > cur.Seq {
		since = 0
	}

	timedOut, ok := s.waitSync(w, r, since, timeout)
	if !ok {
		return // a terminal response (429/503) was written, or the client left
	}
	snap, changed, status, err := s.changes(r.Context(), ids, since)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	resp := syncResponse{
		Since:    since,
		Next:     s.boot + "." + strconv.FormatUint(snap.Seq, 10),
		Seq:      snap.Seq,
		Records:  snap.Records,
		TimedOut: timedOut,
		Changed:  changed,
	}
	body, err := render.EncodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if v.gzip {
		// Compressed per response, not cached: which docs a body carries
		// depends on the client's since token.
		body = gzipBytes(body)
	}
	answer(w, r, v, "", func() (*docEntry, bool) { return newDocEntry(body, nil), true })
}

// waitSync parks the request until the published snapshot moves past
// since, the timeout lapses, or the daemon drains/closes. ok=false
// means no sync response should be written: a terminal 429/503 already
// was, or the client disconnected.
func (s *Server) waitSync(w http.ResponseWriter, r *http.Request, since uint64, timeout time.Duration) (timedOut, ok bool) {
	if s.store.Current().Seq > since || timeout <= 0 {
		return false, true
	}
	if n := s.syncWaiting.Add(1); n > int64(s.syncMaxParked) {
		s.syncWaiting.Add(-1)
		writeError(retryLater(w), http.StatusTooManyRequests,
			"sync: %d long-polls already parked, the most one daemon holds; retry shortly", s.syncMaxParked)
		return false, false
	}
	defer s.syncWaiting.Add(-1)
	sp := trace.FromContext(r.Context()).Child("sync.park")
	sp.SetAttrs(trace.Int("since", int64(since)))
	t0 := time.Now()
	defer func() {
		s.readm.syncWait.Observe(time.Since(t0).Seconds())
		sp.End()
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Broadcasts: fetch both before checking what they announce.
		ch := s.store.ChangeSignal()
		rch := s.ready.Changed()
		if s.store.Current().Seq > since {
			sp.SetAttrs(trace.Int("woken", 1))
			return false, true
		}
		if state := s.servingState(); state != "ok" {
			// Drain-aware wakeup: SIGTERM flips readiness to "draining"
			// before Shutdown, so parked polls resolve instead of pinning
			// the drain deadline.
			sp.Event("drain", trace.Str("state", state))
			writeError(retryLater(w), http.StatusServiceUnavailable, "service %s; retry shortly", state)
			return false, false
		}
		select {
		case <-ch:
		case <-rch:
		case <-timer.C:
			return true, true
		case <-s.store.Done():
			writeError(retryLater(w), http.StatusServiceUnavailable, "%v", ErrClosed)
			return false, false
		case <-r.Context().Done():
			return false, false
		}
	}
}

// parseSyncToken parses a ?since value: empty or "0" is the zero token
// (full sync), a bare integer is accepted for hand-driven curl, and
// the canonical "<boot>.<seq>" form resyncs from zero when the boot
// nonce belongs to another process life.
func (s *Server) parseSyncToken(v string) (uint64, error) {
	if v == "" || v == "0" {
		return 0, nil
	}
	if i := strings.IndexByte(v, '.'); i >= 0 {
		if v[:i] != s.boot {
			return 0, nil
		}
		v = v[i+1:]
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sync: bad since token %q", v)
	}
	return n, nil
}
