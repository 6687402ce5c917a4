package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared microVM whose memory system a neighbour
// slows by 1.3-1.6x for minutes at a time, and everything the programs
// under test do slows with it. Wall-clock numbers taken in different
// regimes are not comparable, so every end-to-end timing is expressed at
// a fixed box speed: a speedometer measures how fast the box is while
// the sample is taken and the sample is scaled by it.
//
// The speedometer is a small fixed kernel, independent of the code under
// test, that does what that code mostly does — string-keyed Go map
// updates over a working set larger than L2 — run on its own thread at a
// low duty cycle for the whole run and timed by that thread's CPU clock,
// so waiting for a core does not count, only how slowly memory answers.
// Measured at 5efcc9d over 15 minutes spanning calm and busy regimes, it
// tracked back-to-back censorlyzer runs at r = 0.90-0.94 over 10-20 s
// blocks and cut the spread of their block medians from 0.17-0.21 to
// 0.07-0.08; a pointer walk (r = 0.73), a streaming scan (0.4-0.5) and
// the kernel's own wall time did worse.

const (
	speedKeys  = 100_000 // distinct keys: ~8 MB of map, beyond L2
	speedOps   = 20_000  // map updates per reading
	speedEvery = 50 * time.Millisecond
	// speedRefNs is what one reading costs on the calm reference box.
	// Dividing by it makes the factor 1 there; on another box it is only
	// a constant scale on every normalised metric.
	speedRefNs = 2.2e6
	// speedPad widens a sample's interval so even a millisecond-long
	// sample is scaled by a couple of dozen readings.
	speedPad = 500 * time.Millisecond
)

type speedReading struct {
	at time.Time
	ns float64
}

// speedometer takes readings in the background until closed.
type speedometer struct {
	mu       sync.Mutex
	readings []speedReading
	stop     chan struct{}
	done     chan struct{}
}

// threadCPU reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *speedometer) loop() {
	defer close(s.done)
	// The thread CPU clock belongs to one OS thread: stay on it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	keys := make([]string, speedKeys)
	counts := make(map[string]uint64, speedKeys)
	for i := range keys {
		keys[i] = "site-" + strconv.Itoa(i*7919%speedKeys) + ".example.org"
		counts[keys[i]] = 0
	}
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	for k := 0; ; {
		at := time.Now()
		c0 := threadCPU()
		for i := 0; i < speedOps; i++ {
			counts[keys[k%speedKeys]]++
			k += 7
		}
		ns := float64(threadCPU() - c0)
		s.mu.Lock()
		s.readings = append(s.readings, speedReading{at, ns})
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// factor is how slow the box was over [from, to]: the mean reading in
// that interval (widened by speedPad) over the reference reading. 1 is
// the calm reference box; 1.4 means memory answered 1.4x slower.
func (s *speedometer) factor(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return factorOf(s.readings, from.Add(-speedPad), to.Add(speedPad))
}

// factorOf is factor over an explicit reading list (ordered by time).
// With no reading inside the interval it falls back to the nearest one,
// and to 1 when there are none at all.
func factorOf(readings []speedReading, from, to time.Time) float64 {
	if len(readings) == 0 {
		return 1
	}
	lo := sort.Search(len(readings), func(i int) bool { return !readings[i].at.Before(from) })
	hi := sort.Search(len(readings), func(i int) bool { return readings[i].at.After(to) })
	if lo >= hi {
		lo = min(lo, len(readings)-1)
		hi = lo + 1
	}
	var total float64
	for _, r := range readings[lo:hi] {
		total += r.ns
	}
	return total / float64(hi-lo) / speedRefNs
}

// timed is one raw sample with the interval it was taken over.
type timed struct {
	v        float64
	from, to time.Time
}

// values strips the intervals off.
func values(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// since builds a timed sample that started at from and ends now.
func since(v float64, from time.Time) timed { return timed{v, from, time.Now()} }

// duration normalises a time-like sample (seconds, CPU seconds per GB):
// a slow box makes it longer, so divide.
func (s *speedometer) duration(t timed) float64 { return t.v / s.factor(t.from, t.to) }

// rate normalises a throughput sample: a slow box makes it smaller.
func (s *speedometer) rate(t timed) float64 { return t.v * s.factor(t.from, t.to) }
