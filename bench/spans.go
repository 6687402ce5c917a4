package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer or one HTTP
// request it sent. Start and End are nanoseconds since the recorder was
// created; spans of one operation share Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced runs pay nothing for it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTraceID returns a 128-bit id in the hex form W3C traceparent wants.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the kernel's entropy source does not fail
	}
	return hex.EncodeToString(b[:])
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(trace string, parent uint64, name string) uint64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id uint64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// traceparent renders the W3C header for a span; censord adopts the
// trace id, so a slow request can be looked up at /debug/traces/{id}.
func traceparent(trace string, id uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", trace, id)
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// descendantSelfShare is the acceptance figure for a traced operation:
// the summed self time of every span below root, as a share of root's
// duration. 1 means the stages account for the whole operation.
func descendantSelfShare(spans []span, root uint64) float64 {
	self := selfTimes(spans)
	parent := map[uint64]uint64{}
	var rootSpan span
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.ID == root {
			rootSpan = s
		}
	}
	var total int64
	for _, s := range spans {
		for p := s.Parent; p != 0; p = parent[p] {
			if p == root {
				total += self[s.ID]
				break
			}
		}
	}
	if rootSpan.End == rootSpan.Start {
		return 0
	}
	return float64(total) / float64(rootSpan.End-rootSpan.Start)
}

// write dumps every span plus the per-name self times.
func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_s_by_name"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfByName(r.spans), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
