package serve

import (
	"sync"
	"sync/atomic"
)

// broadcast wakes everyone waiting for the next change of some state.
// wait returns a channel that the next wake closes; every wake retires
// the channel, so waiters fetch a new one after each wakeup. The order
// that makes a wakeup impossible to miss: the changer updates its state
// and then wakes, a waiter fetches the channel and then reads the
// state — whichever change the read did not see closes the channel it
// holds. The zero value is ready to use.
type broadcast struct {
	mu sync.Mutex
	ch chan struct{} // nil while nobody waits
}

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

func (b *broadcast) wake() {
	b.mu.Lock()
	ch := b.ch
	b.ch = nil
	b.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Readiness is the serving-state signal behind GET /readyz, distinct
// from /healthz liveness: a daemon restoring a checkpoint or replaying
// boot files is alive but not ready. The zero state is "ok"; a nil
// *Readiness always reads ready, so wiring it is optional.
type Readiness struct {
	state   atomic.Pointer[string]
	changed broadcast
}

// NewReadiness builds a readiness signal in the given state.
func NewReadiness(state string) *Readiness {
	r := &Readiness{}
	r.Set(state)
	return r
}

// Set publishes a new state ("restoring", "loading", "ok", ...) and
// wakes everyone parked on Changed — this is what lets a draining
// daemon unblock its /v1/sync long-polls instead of stalling shutdown.
func (r *Readiness) Set(state string) {
	if r == nil {
		return
	}
	r.state.Store(&state)
	r.changed.wake()
}

// Changed returns a channel closed at the next Set (a broadcast). A nil
// *Readiness returns nil — a channel that never fires, matching its
// permanently-"ok" State.
func (r *Readiness) Changed() <-chan struct{} {
	if r == nil {
		return nil
	}
	return r.changed.wait()
}

// State returns the current state; nil or unset reads "ok".
func (r *Readiness) State() string {
	if r == nil {
		return "ok"
	}
	if s := r.state.Load(); s != nil {
		return *s
	}
	return "ok"
}
