package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// syncTracker remembers, per experiment id, the current rendered doc
// and the one before it, with the snapshot Seq at which each became
// current. That is exactly enough to answer "changed since token?"
// and, when the client's token falls inside the previous doc's reign,
// to ship a row-level delta instead of the full doc. Ids are tracked
// lazily — only those /v1/sync requests actually ask for — so sync
// load determines sync cost.
type syncTracker struct {
	mu   sync.Mutex
	docs map[string]*docTrack
}

type docTrack struct {
	cur     *render.Doc
	curJSON []byte // EncodeJSON bytes (trailing newline included)
	curSeq  uint64 // seq at which cur last changed
	seenSeq uint64 // newest seq evaluated (>= curSeq)
	prev    *render.Doc
	prevSeq uint64 // seq at which prev became current (0 = none)
}

// trackDoc advances id's tracked state to snap and returns a copy of
// it, taken under the lock: another request may advance the track the
// moment the lock drops, while the docs and bytes a copy points at are
// never written again. The render goes through the doc cache (same key
// the GET endpoints use), so tracking an id also warms its cache entry;
// when it fails, the status to answer with comes back with the error.
// Serialized under the tracker lock: seenSeq/curSeq advance
// monotonically even when concurrent sync requests observe different
// snapshots.
func (s *Server) trackDoc(ctx context.Context, snap *Snapshot, id string) (docTrack, int, error) {
	t := &s.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	dt := t.docs[id]
	if dt == nil {
		dt = &docTrack{}
		t.docs[id] = dt
	}
	if dt.cur == nil || snap.Seq > dt.seenSeq {
		e, status, err := s.through(ctx, &source{id: id, snap: snap}, docKey{gen: snap.Seq, id: id, format: "json"}, true)
		if err != nil {
			return docTrack{}, status, err
		}
		if dt.cur == nil || !bytes.Equal(e.body, dt.curJSON) {
			dt.prev, dt.prevSeq = dt.cur, dt.curSeq
			dt.cur, dt.curJSON, dt.curSeq = e.doc, e.body, snap.Seq
		}
		if snap.Seq > dt.seenSeq {
			dt.seenSeq = snap.Seq
		}
	}
	return *dt, 0, nil
}

// syncChange is one changed experiment in a /v1/sync response: either
// the full doc (the exact bytes GET /v1/experiments/{id} serves, sans
// trailing newline) or a render.Delta against the doc the client held
// at its since token — whichever encodes smaller.
type syncChange struct {
	ID         string          `json:"id"`
	ChangedSeq uint64          `json:"changed_seq"`
	Full       json.RawMessage `json:"full,omitempty"`
	Delta      json.RawMessage `json:"delta,omitempty"`
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
// behind parked pollers). The response lists only experiments whose
// rendered docs changed since the token — as row-level deltas when the
// renderer can diff cheaply, full docs otherwise — plus the next
// token. Tokens do not survive a daemon restart: a token minted by
// another process life triggers a full resync, never stale data.
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
	ids := render.Order()
	explicit := false
	if list := q.Get("ids"); list != "" {
		explicit = true
		ids = strings.Split(list, ",")
		for _, id := range ids {
			if _, ok := s.admit(w, id); !ok {
				return
			}
		}
	}
	// A token from beyond the current generation (another process life,
	// or a client-made number) cannot be positioned in this history:
	// resync from scratch rather than parking forever.
	if cur := s.store.Current(); since > cur.Seq {
		since = 0
	}

	snap, timedOut, ok := s.waitSync(w, r, since, timeout)
	if !ok {
		return // a terminal response (429/503) was written, or the client left
	}

	resp := syncResponse{
		Since:   since,
		Next:    s.boot + "." + strconv.FormatUint(snap.Seq, 10),
		Seq:     snap.Seq,
		Records: snap.Records,

		TimedOut: timedOut,
		Changed:  []syncChange{},
	}
	for _, id := range ids {
		if !explicit && s.gen == nil && render.NeedsGenerator(id) {
			continue // default id set: skip what this daemon cannot render
		}
		dt, status, err := s.trackDoc(r.Context(), snap, id)
		if err != nil {
			writeError(w, status, "%v", err)
			return
		}
		if dt.curSeq <= since {
			continue // unchanged since the client's token
		}
		ch := syncChange{ID: id, ChangedSeq: dt.curSeq}
		full := dt.curJSON[:len(dt.curJSON)-1] // strip the newline for embedding
		if dt.prev != nil && dt.prevSeq <= since {
			// The client's token falls inside prev's reign, so prev is
			// exactly what it holds: a delta applies. Ship it only when
			// it actually encodes smaller than the full doc.
			if delta, ok := render.Diff(dt.prev, dt.cur); ok {
				if db, err := json.Marshal(delta); err == nil && len(db) < len(full) {
					ch.Delta = db
				}
			}
		}
		if ch.Delta == nil {
			ch.Full = full
		}
		resp.Changed = append(resp.Changed, ch)
	}
	body, err := render.EncodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if v.gzip {
		// Compressed per response, not cached: delta bodies depend on the
		// client's since token.
		body = gzipBytes(body)
	}
	answer(w, r, v, "", func() (*docEntry, bool) { return &docEntry{body: body}, true })
}

// waitSync parks the request until the published snapshot moves past
// since, the timeout lapses, or the daemon drains/closes. ok=false
// means no sync response should be written: a terminal 429/503 already
// was, or the client disconnected.
func (s *Server) waitSync(w http.ResponseWriter, r *http.Request, since uint64, timeout time.Duration) (snap *Snapshot, timedOut, ok bool) {
	snap = s.store.Current()
	if snap.Seq > since || timeout <= 0 {
		return snap, false, true
	}
	if n := s.syncWaiting.Add(1); n > int64(s.syncMaxParked) {
		s.syncWaiting.Add(-1)
		writeError(retryLater(w), http.StatusTooManyRequests,
			"sync: %d long-polls already parked, the most one daemon holds; retry shortly", s.syncMaxParked)
		return nil, false, false
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
		if snap = s.store.Current(); snap.Seq > since {
			sp.SetAttrs(trace.Int("woken", 1))
			return snap, false, true
		}
		if state := s.servingState(); state != "ok" {
			// Drain-aware wakeup: SIGTERM flips readiness to "draining"
			// before Shutdown, so parked polls resolve instead of pinning
			// the drain deadline.
			sp.Event("drain", trace.Str("state", state))
			writeError(retryLater(w), http.StatusServiceUnavailable, "service %s; retry shortly", state)
			return nil, false, false
		}
		select {
		case <-ch:
		case <-rch:
		case <-timer.C:
			return s.store.Current(), true, true
		case <-s.store.Done():
			writeError(retryLater(w), http.StatusServiceUnavailable, "%v", ErrClosed)
			return nil, false, false
		case <-r.Context().Done():
			return nil, false, false
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
