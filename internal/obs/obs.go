// Package obs is the daemon's observability layer: a zero-dependency
// metrics registry (atomic counters and gauges, fixed-boundary
// log-bucket histograms), Prometheus text exposition, windowed rate
// tracking, Go runtime gauges, and HTTP middleware producing per-route
// metrics plus structured access logs.
//
// Design constraints, in order:
//
//   - The hot path must stay hot. Counter.Inc, Gauge.Set and
//     Histogram.Observe are single atomic operations on pre-resolved
//     objects — no map lookups, no label formatting, no allocation
//     (pinned by TestObsZeroAlloc and BenchmarkObsOverhead). Label
//     resolution happens once, at registration time.
//
//   - Instrumentation must be removable without dual code paths. Every
//     method is nil-receiver safe: a nil *Counter, *Gauge, *Histogram or
//     *RateWindow is a no-op, so a subsystem built without a registry
//     simply leaves its metric fields nil and every call site stays
//     unconditional. This is what BenchmarkObsOverhead's uninstrumented
//     arm measures against.
//
//   - No external dependencies. The exposition writer emits the
//     Prometheus text format (version 0.0.4) directly; histograms use
//     fixed boundaries chosen at registration, so exposition never
//     coordinates with Observe.
package obs

import "sync/atomic"

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter is a no-op (see the package comment).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (queue depths, occupancies, generation
// numbers). The zero value is ready; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
