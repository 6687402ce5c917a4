// Package trace is the daemon's request-scoped tracing layer: a
// zero-dependency, Dapper-style span tracer plus an always-on in-memory
// flight recorder of recently completed traces. Where internal/obs
// answers "how is the daemon doing in aggregate", this package answers
// "where did the time go inside THAT request": every HTTP request (and
// every background operation — snapshot cuts, checkpoint writes, watch
// polls, compactions) becomes a tree of timed spans, and the trees that
// matter — slow ones past the configured threshold, errored ones — are
// always retained for retrieval at GET /debug/traces, while the fast
// majority is sampled.
//
// Design constraints, in order:
//
//   - The no-trace fast path must be free. Every Span method is
//     nil-receiver safe and allocation-free on a nil receiver, and
//     FromContext on a context without a span allocates nothing (pinned
//     by TestNoTraceZeroAlloc), so instrumented code keeps one
//     unconditional code path whether or not a trace is active —
//     exactly the nil-safe-hook discipline of internal/obs.
//
//   - Retention is tail-based. Whether a trace was worth keeping is
//     only known when it ends (was it slow? did it error?), so the
//     keep/sample decision happens at completion, not at start — no
//     head sampling that throws away the one trace the operator needed.
//
//   - Publication is refcounted, not root-scoped. Spans may outlive
//     the root (a shard applies an ingest batch after the HTTP response
//     went out); a trace is published to the recorder only when its
//     root has ended AND every started span has ended, so the recorded
//     tree is always complete.
//
//   - No external dependencies, no goroutines. The recorder is a set
//     of lock-free atomic-pointer rings; the per-trace accumulator uses
//     one mutex touched only while a trace is actually active.
//
// Trace ids interoperate with W3C trace context (traceparent.go): an
// inbound traceparent header continues the caller's trace, an absent
// one derives the trace id deterministically from the X-Request-ID —
// the groundwork for cross-peer query fan-out, where one range query
// scatters to N censord peers and the per-peer spans join one tree.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace tree (16 bytes, rendered as 32 hex
// digits, W3C-compatible).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zeros id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zeros id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// DefaultSlow is the slow-trace threshold when Config.Slow is zero: a
// root span at or above it is always retained and logged.
const DefaultSlow = 250 * time.Millisecond

// DefaultSample keeps one in this many fast (not slow, not errored)
// traces when Config.Sample is zero.
const DefaultSample = 16

// DefaultRingSize is the per-ring slot count per recorder shard when
// Config.RingSize is zero. With recorderShards shards and two rings
// each (recent + notable), the default recorder retains up to
// 2*recorderShards*DefaultRingSize completed traces.
const DefaultRingSize = 64

// maxSpansPerTrace bounds one trace's memory: Child calls past the cap
// return nil (a no-op span) and are counted in Trace.DroppedSpans, so a
// runaway loop cannot turn the flight recorder into a heap bomb.
const maxSpansPerTrace = 1024

// maxEventsPerSpan bounds one span's event list the same way; drops are
// counted in SpanData.DroppedEvents.
const maxEventsPerSpan = 128

// Config configures a Tracer.
type Config struct {
	// Slow is the tail-retention threshold: traces whose root duration
	// reaches it are always kept by the recorder and emitted as one
	// structured log line. 0 picks DefaultSlow; negative treats every
	// trace as slow (useful in tests).
	Slow time.Duration
	// Sample keeps one in Sample fast traces (1 = keep all). 0 picks
	// DefaultSample.
	Sample int
	// RingSize is the per-shard, per-ring retention capacity. 0 picks
	// DefaultRingSize.
	RingSize int
	// Logger receives the one-line span-tree dump for each slow or
	// errored trace. nil logs nothing.
	Logger *slog.Logger
}

// Tracer creates traces and feeds their completed trees to its flight
// recorder. A nil *Tracer is a valid no-op: Root and Op return nil
// spans / do nothing, so subsystems hold an unconditional *Tracer field
// exactly like they hold nil-safe obs metrics.
type Tracer struct {
	slow   time.Duration
	logger *slog.Logger
	rec    *Recorder

	// id generation: a crypto-seeded base whisked with a counter by
	// splitmix64 — unique, unpredictable enough for correlation ids,
	// and allocation-free per id.
	idBase uint64
	idSeq  atomic.Uint64
}

// New builds a Tracer and its Recorder.
func New(cfg Config) *Tracer {
	if cfg.Slow == 0 {
		cfg.Slow = DefaultSlow
	}
	if cfg.Sample <= 0 {
		cfg.Sample = DefaultSample
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return &Tracer{
		slow:   cfg.Slow,
		logger: cfg.Logger,
		rec:    newRecorder(cfg.RingSize, uint64(cfg.Sample)),
		idBase: binary.LittleEndian.Uint64(seed[:]),
	}
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (tr *Tracer) Recorder() *Recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// Slow returns the slow-trace threshold (0 for a nil tracer).
func (tr *Tracer) Slow() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slow
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality bijective mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (tr *Tracer) newTraceID() TraceID {
	var id TraceID
	n := tr.idSeq.Add(1)
	binary.BigEndian.PutUint64(id[:8], splitmix64(tr.idBase^n))
	binary.BigEndian.PutUint64(id[8:], splitmix64(tr.idBase+n))
	return id
}

func (tr *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], splitmix64(tr.idBase^tr.idSeq.Add(1)))
	return id
}

// Root starts a new trace with a fresh trace id and returns its root
// span. nil tracer → nil span.
func (tr *Tracer) Root(name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.root(name, tr.newTraceID(), SpanID{})
}

// RootFrom starts a trace continuing an inherited identity: id becomes
// the trace id (a zero id gets a fresh one) and remoteParent, when
// non-zero, links the root span under the caller's span — the inbound
// half of W3C trace-context propagation.
func (tr *Tracer) RootFrom(name string, id TraceID, remoteParent SpanID) *Span {
	if tr == nil {
		return nil
	}
	if id.IsZero() {
		id = tr.newTraceID()
	}
	return tr.root(name, id, remoteParent)
}

func (tr *Tracer) root(name string, id TraceID, parent SpanID) *Span {
	tc := &active{tracer: tr, id: id}
	s := &Span{
		tc:     tc,
		id:     tr.newSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
		isRoot: true,
	}
	tc.spans = append(tc.spans, s)
	tc.open = 1
	return s
}

// Op records one already-completed background operation as a
// single-span trace: compactions, periodic jobs — anything with a
// start, an end (now) and no children. err marks the trace errored.
func (tr *Tracer) Op(name string, start time.Time, err error, attrs ...Attr) {
	if tr == nil {
		return
	}
	s := tr.Root(name)
	s.start = start
	s.attrs = append(s.attrs, attrs...)
	if err != nil {
		s.Fail(err)
	}
	s.End()
}

// AttrKind discriminates the typed attribute value.
type AttrKind uint8

// Attribute value kinds.
const (
	KindStr AttrKind = iota
	KindInt
	KindFloat
)

// Attr is one typed key/value pair on a span or event. Values are held
// unboxed so constructing an Attr never allocates.
type Attr struct {
	Key  string
	Kind AttrKind
	str  string
	num  int64
	f    float64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Kind: KindStr, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: KindInt, num: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Kind: KindFloat, f: v} }

// Value returns the attribute's value as an any (boxing; used at
// publication and rendering time, never on the hot path).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.num
	case KindFloat:
		return a.f
	default:
		return a.str
	}
}

// event is one point-in-time marker inside a span.
type event struct {
	name  string
	at    time.Time
	attrs []Attr
}

// active is the shared per-trace accumulator: every span of one
// in-flight trace registers here, and when the root has ended and the
// open-span refcount drains to zero the trace is snapshotted and
// published to the recorder. One mutex per trace: contention exists
// only while a trace is live, and only between goroutines genuinely
// working on the same request.
type active struct {
	tracer *Tracer
	id     TraceID

	mu        sync.Mutex
	spans     []*Span
	open      int
	rootEnded bool
	published bool
	errored   bool
	dropped   int
}

// Span is one timed operation inside a trace. Starting children and
// mutating attrs/events is safe from multiple goroutines (the per-trace
// mutex serializes them); End must be called exactly once per span —
// idempotence is not promised, use defer. All methods are nil-receiver
// safe no-ops, which is the disabled-tracing fast path.
type Span struct {
	tc     *active
	id     SpanID
	parent SpanID
	name   string
	isRoot bool

	start time.Time
	// Everything below tc.mu.
	end       time.Time
	ended     bool
	attrs     []Attr
	events    []event
	errMsg    string
	dropEvent int
}

// TraceID returns the owning trace's id (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tc.id
}

// ID returns the span's id (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Child starts a child span. Returns nil when s is nil or the trace hit
// maxSpansPerTrace (the drop is counted); either way the result is safe
// to use.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tc := s.tc
	c := &Span{
		tc:     tc,
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
	tc.mu.Lock()
	if tc.published || len(tc.spans) >= maxSpansPerTrace {
		tc.dropped++
		tc.mu.Unlock()
		return nil
	}
	c.id = tc.tracer.newSpanID()
	tc.spans = append(tc.spans, c)
	tc.open++
	tc.mu.Unlock()
	return c
}

// SetAttrs appends typed attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tc.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tc.mu.Unlock()
}

// Event records a point-in-time marker on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Now()
	s.tc.mu.Lock()
	if len(s.events) >= maxEventsPerSpan {
		s.dropEvent++
		s.tc.mu.Unlock()
		return
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	s.events = append(s.events, event{name: name, at: now, attrs: as})
	s.tc.mu.Unlock()
}

// Fail marks the span (and therefore the whole trace) errored. A nil
// err is ignored, so `sp.Fail(err)` composes with the usual error
// returns without a branch.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.tc.mu.Lock()
	if s.errMsg == "" {
		s.errMsg = err.Error()
	}
	s.tc.errored = true
	s.tc.mu.Unlock()
}

// End finishes the span. When it is the last open span of a trace
// whose root has ended, the trace is snapshotted and published to the
// flight recorder (and, if slow or errored, logged).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	tc := s.tc
	tc.mu.Lock()
	if s.ended {
		tc.mu.Unlock()
		return
	}
	s.ended = true
	s.end = now
	tc.open--
	if s.isRoot {
		tc.rootEnded = true
	}
	var done *Trace
	if tc.rootEnded && tc.open <= 0 && !tc.published {
		tc.published = true
		done = tc.snapshotLocked()
	}
	tc.mu.Unlock()
	if done != nil {
		tc.tracer.publish(done)
	}
}

// snapshotLocked freezes the trace into its immutable published form.
// Caller holds tc.mu.
func (tc *active) snapshotLocked() *Trace {
	root := tc.spans[0]
	t := &Trace{
		ID:            tc.id.String(),
		Root:          root.name,
		StartUnixNano: root.start.UnixNano(),
		EndUnixNano:   root.end.UnixNano(),
		Error:         tc.errored,
		DroppedSpans:  tc.dropped,
		Spans:         make([]SpanData, 0, len(tc.spans)),
	}
	t.DurationMS = float64(t.EndUnixNano-t.StartUnixNano) / 1e6
	t.Slow = tc.tracer.slow < 0 || root.end.Sub(root.start) >= tc.tracer.slow
	for _, s := range tc.spans {
		sd := SpanData{
			ID:            s.id.String(),
			Name:          s.name,
			StartUnixNano: s.start.UnixNano(),
			EndUnixNano:   s.end.UnixNano(),
			Error:         s.errMsg,
			DroppedEvents: s.dropEvent,
		}
		if !s.parent.IsZero() {
			sd.Parent = s.parent.String()
		}
		if !s.ended {
			// Unreachable by refcount, but never publish a zero end.
			sd.EndUnixNano = time.Now().UnixNano()
		}
		sd.DurationMS = float64(sd.EndUnixNano-sd.StartUnixNano) / 1e6
		if len(s.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				sd.Attrs[a.Key] = a.Value()
			}
		}
		for _, e := range s.events {
			ed := EventData{Name: e.name, AtUnixNano: e.at.UnixNano()}
			if len(e.attrs) > 0 {
				ed.Attrs = make(map[string]any, len(e.attrs))
				for _, a := range e.attrs {
					ed.Attrs[a.Key] = a.Value()
				}
			}
			sd.Events = append(sd.Events, ed)
		}
		t.Spans = append(t.Spans, sd)
	}
	return t
}

// publish hands a completed trace to the recorder and logs slow or
// errored ones as one structured line carrying the full span tree.
func (tr *Tracer) publish(t *Trace) {
	kept := tr.rec.record(t)
	if tr.logger == nil || !(t.Slow || t.Error) {
		return
	}
	level := slog.LevelWarn
	if !t.Slow {
		level = slog.LevelInfo
	}
	tr.logger.LogAttrs(nil, level, "slow trace",
		slog.String("trace", t.ID),
		slog.String("root", t.Root),
		slog.Float64("ms", t.DurationMS),
		slog.Bool("error", t.Error),
		slog.Bool("kept", kept),
		slog.Int("spans", len(t.Spans)),
		slog.String("tree", string(t.TreeJSON())),
	)
}

// ctxKey is the context key type for span propagation.
type ctxKey struct{}

// NewContext returns ctx carrying sp. A nil sp returns ctx unchanged,
// so the no-trace path allocates nothing.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil. Never allocates.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
