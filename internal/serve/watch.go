package serve

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"syriafilter/internal/obs/trace"
)

// WatchDir polls dir every interval and block-ingests files it has not
// seen yet, refreshing the snapshot after each round that ingested
// anything, until stop closes. seen pre-marks paths already ingested
// elsewhere (boot -input files); it is owned by the watcher after the
// call.
//
// A file is only ingested once its size has held still for a full poll
// interval (a producer may still be appending). Transient errors —
// the directory scan failing, a stat or open racing a writer, an
// ingest error — are retried with capped exponential backoff instead
// of being skipped or hammered at the poll rate forever: each
// consecutive failure doubles the wait before the next attempt, up to
// watchMaxBackoffPolls poll intervals, and any success resets it. Only
// an attempt that added nothing is retried: a file that fails after part
// of it was ingested is marked seen, so no record is counted twice.
func (st *Store) WatchDir(dir string, every time.Duration, seen map[string]bool, stop <-chan struct{}) {
	w := newWatcher(st, dir, every, seen)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			w.poll(now)
		}
	}
}

// watchMaxBackoffPolls caps the exponential backoff at this many poll
// intervals: transient errors retreat quickly, a persistently broken
// path still gets retried forever — just cheaply.
const watchMaxBackoffPolls = 16

// watchBackoff is the capped exponential backoff after n consecutive
// failures (n >= 1): base, 2*base, 4*base, ... capped.
func watchBackoff(n int, base time.Duration) time.Duration {
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= time.Duration(watchMaxBackoffPolls)*base {
			return time.Duration(watchMaxBackoffPolls) * base
		}
	}
	return d
}

// watcher is the state of one WatchDir loop, poll-driven so tests can
// step it with synthetic clocks.
type watcher struct {
	st    *Store
	dir   string
	every time.Duration
	seen  map[string]bool
	sizes map[string]int64 // last observed size of not-yet-ingested files

	scanFails int       // consecutive ReadDir failures
	nextScan  time.Time // zero = scan on the next poll

	fails map[string]*watchRetry // per-path transient-failure backoff
}

type watchRetry struct {
	failures  int
	notBefore time.Time
}

func newWatcher(st *Store, dir string, every time.Duration, seen map[string]bool) *watcher {
	if seen == nil {
		seen = map[string]bool{}
	}
	return &watcher{
		st: st, dir: dir, every: every, seen: seen,
		sizes: map[string]int64{},
		fails: map[string]*watchRetry{},
	}
}

// bump records one more consecutive failure for path and returns the
// backoff applied before the next attempt.
func (w *watcher) bump(path string, now time.Time) time.Duration {
	r := w.fails[path]
	if r == nil {
		r = &watchRetry{}
		w.fails[path] = r
	}
	r.failures++
	d := watchBackoff(r.failures, w.every)
	r.notBefore = now.Add(d)
	return d
}

// poll runs one watch round at the given time.
func (w *watcher) poll(now time.Time) {
	if now.Before(w.nextScan) {
		return
	}
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.scanFails++
		backoff := watchBackoff(w.scanFails, w.every)
		w.nextScan = now.Add(backoff)
		w.st.logger.Warn("watch scan failed, backing off",
			"dir", w.dir, "err", err, "retry_in", backoff, "failures", w.scanFails)
		return
	}
	w.scanFails = 0
	w.nextScan = time.Time{}

	ingested := false
	// One trace per poll round that attempts work: idle rounds (nothing
	// new, everything still growing) stay trace-free so a quiet watcher
	// does not dilute the flight recorder's sampled ring. The root is
	// created lazily at the first ingest attempt.
	var (
		psp       *trace.Span
		pollCtx   = context.Background()
		pollFiles int64
	)
	pollSpan := func() *trace.Span {
		if psp == nil {
			psp = w.st.tracer.Root("watch.poll")
			psp.SetAttrs(trace.Str("dir", w.dir))
			pollCtx = trace.NewContext(pollCtx, psp)
		}
		return psp
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Clean(filepath.Join(w.dir, e.Name()))
		present[path] = true
		if w.seen[path] {
			continue
		}
		if r := w.fails[path]; r != nil && now.Before(r.notBefore) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			// Stat raced a writer (or the file vanished): back off this
			// path instead of silently re-trying at full rate forever.
			w.st.logger.Warn("watch stat failed, will retry",
				"path", path, "err", err, "retry_in", w.bump(path, now))
			continue
		}
		if last, ok := w.sizes[path]; !ok || last != info.Size() {
			w.sizes[path] = info.Size() // first sighting or still growing
			continue
		}
		pollSpan()
		added, malformed, err := w.st.IngestFiles(pollCtx, []string{path}, 0)
		if err != nil {
			psp.Fail(err)
			if added == 0 {
				w.st.logger.Warn("watch ingest failed, will retry",
					"path", path, "err", err, "retry_in", w.bump(path, now))
				delete(w.sizes, path) // restart the stability window
				continue
			}
			// Part of the file is in the store, and a retry would count
			// that part again: like a 429, a partly accepted batch is not
			// resent.
			w.st.logger.Warn("watch ingested part of a file, not retrying",
				"path", path, "added", added, "err", err)
		}
		pollFiles++
		delete(w.fails, path)
		w.seen[path] = true
		delete(w.sizes, path)
		if malformed > 0 {
			w.st.logger.Warn("watch skipped malformed lines", "path", path, "count", malformed)
		}
		w.st.logger.Info("watch ingested", "records", added, "path", path)
		ingested = true
	}
	// Files that appeared and vanished before ingesting (temp files,
	// rotations) must not pin tracking state forever: a multi-week
	// watch would otherwise grow these maps unboundedly. seen stays —
	// an ingested file that reappears under the same name must not be
	// double-counted.
	for path := range w.sizes {
		if !present[path] {
			delete(w.sizes, path)
		}
	}
	for path := range w.fails {
		if !present[path] {
			delete(w.fails, path)
		}
	}
	if ingested {
		if _, err := w.st.refresh(pollCtx); err != nil {
			psp.Fail(err)
			w.st.logger.Warn("watch snapshot failed", "err", err)
		}
	}
	if psp != nil {
		psp.SetAttrs(trace.Int("files", pollFiles))
		psp.End()
	}
}
