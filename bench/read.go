package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	hitConns     = 2
	hitWindow    = 500 * time.Millisecond
	refreshSlice = 256 << 10 // body of each refresh round
)

// rangeQueries is the fixed /v1/range sweep: each range id over a 6 h,
// a 1 d and a 3 d window, and over six days in daily steps.
func (r *run) rangeQueries() []string {
	windows := []string{
		"from=2011-08-02T00:00&to=2011-08-02T06:00",
		"from=2011-08-02&to=2011-08-03",
		"from=2011-08-02&to=2011-08-05",
		"from=2011-08-01&to=2011-08-07&step=24h",
	}
	var out []string
	for _, id := range r.w.RangeIDs {
		for _, w := range windows {
			out = append(out, "/v1/range/"+id+"?"+w)
		}
	}
	return out
}

// coldBoots boots censord over the corpus files plan.boots times and
// leaves the last daemon running. Each boot is a fresh process on an
// empty checkpoint directory; the time runs from exec to /readyz 200.
func (r *run) coldBoots(ckptDir string) (*daemon, []timed, error) {
	args := r.daemonArgs("-input", strings.Join(r.corpus.files, ","), "-checkpoint", ckptDir)
	r.prov.DaemonFlags = args
	var boots []timed
	for i := 0; ; i++ {
		if err := os.RemoveAll(ckptDir); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, nil, err
		}
		sp := r.rec.begin(newTraceID(), 0, "daemon.boot")
		d, err := startDaemon(r.bins.censord, args, r.daemonLog("read"))
		if err != nil {
			return nil, nil, err
		}
		took, err := d.waitReady(120 * time.Second)
		r.rec.end(sp)
		if !r.res.op(err == nil, "cold boot %d: %v", i, err) {
			d.kill()
			return nil, nil, err
		}
		boots = append(boots, timed{took.Seconds(), d.start, d.start.Add(took)})
		if i == r.plan.boots-1 {
			return d, boots, nil
		}
		d.kill()
	}
}

// hitPhase drives cached reads: hitConns connections cycle the
// workload's docs, alternating a plain GET (200 out of the doc cache)
// with an If-None-Match revalidation (304, no body), for dur in whole
// hitWindows. It returns requests per second per window and the two
// latency samples.
func (r *run) hitPhase(d *daemon, etags map[string]string, docs map[string][]byte, dur time.Duration, rec *recorder) (rps []timed, plain, reval []float64) {
	windows := max(int(dur/hitWindow), 1)
	per := make([]float64, windows)
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < hitConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := d.conn(rec)
			defer c.close()
			var myPlain, myReval []float64
			var attempted int
			var failures []string
			counts := make([]float64, windows)
			for n := i; ; n++ {
				id := r.w.IDs[n%len(r.w.IDs)]
				var rep reply
				var ok bool
				if n/len(r.w.IDs)%2 == 0 {
					rep = c.get("/v1/experiments/" + id)
					ok = rep.err == nil && rep.code == http.StatusOK && string(rep.body) == string(docs[id])
					myPlain = append(myPlain, rep.dur.Seconds())
				} else {
					rep = c.get("/v1/experiments/"+id, "If-None-Match", etags[id])
					ok = rep.err == nil && rep.code == http.StatusNotModified && len(rep.body) == 0
					myReval = append(myReval, rep.dur.Seconds())
				}
				attempted++
				if !ok {
					failures = append(failures, fmt.Sprintf("cached read of %s: code %d err %v, %d body bytes", id, rep.code, rep.err, len(rep.body)))
				}
				w := int(time.Since(t0) / hitWindow)
				if w >= windows {
					break
				}
				counts[w] += float64(time.Second) / float64(hitWindow)
			}
			r.res.ops(attempted, failures)
			mu.Lock()
			for w := range per {
				per[w] += counts[w]
			}
			plain, reval = append(plain, myPlain...), append(reval, myReval...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for w, n := range per {
		from := t0.Add(time.Duration(w) * hitWindow)
		rps = append(rps, timed{n, from, from.Add(hitWindow)})
	}
	return rps, plain, reval
}

// readPhase measures the operator's read path and restart path on a
// daemon that booted over the whole corpus.
func (r *run) readPhase() error {
	ckptDir := filepath.Join(r.work, "ckpt")
	d, boots, err := r.coldBoots(ckptDir)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()

	// setup_s is one corpus generation plus the cold boot that followed
	// it; each half is scaled by the box speed over its own interval.
	var mbs []timed
	var setup, rawSetup []float64
	for i, b := range boots {
		mbs = append(mbs, timed{float64(r.corpus.bytes) / 1e6 / b.v, b.from, b.to})
		setup = append(setup, r.speed.duration(r.gens[i])+r.speed.duration(b))
		rawSetup = append(rawSetup, r.gens[i].v+b.v)
	}
	r.putRates("boot_mb_s", mbs)
	r.res.putMedian("setup_s", setup)
	r.res.putMedian("raw.setup_s", rawSetup)

	ctl := d.conn(r.rec)
	defer func() { ctl.close() }()

	// Everything the booted daemon serves must be what the batch run
	// printed over the same files.
	docs := map[string][]byte{}
	etags := map[string]string{}
	for _, id := range r.w.IDs {
		rep := ctl.get("/v1/experiments/" + id)
		if r.res.op(rep.err == nil && rep.code == http.StatusOK, "GET /v1/experiments/%s: code %d err %v", id, rep.code, rep.err) {
			docs[id], etags[id] = rep.body, rep.header.Get("Etag")
		}
	}
	r.sameDocs("booted daemon vs censorlyzer", docs, r.batchDocs)

	m0, _, _, err := ctl.scrape()
	if err != nil {
		return err
	}

	// Cached reads.
	t0, cpu0 := r.loadStart()
	rps, plain, reval := r.hitPhase(d, etags, docs, r.plan.hit, nil)
	r.loadEnd(t0, cpu0, hitConns)
	r.putRates("hit_rps", rps)
	r.res.putMedian("http.hit.p50_s", plain)
	r.res.putPercentile("http.hit.p95_s", plain, 95)
	r.res.putMedian("http.revalidate.p50_s", reval)
	m1, nbytes, scrapeDur, err := ctl.scrape()
	if err != nil {
		return err
	}
	r.res.put("obs.scrape_s", scrapeDur.Seconds())
	r.res.put("obs.metrics_bytes", float64(nbytes))
	hits := family(m1, "censord_doccache_hits_total") - family(m0, "censord_doccache_hits_total")
	misses := family(m1, "censord_doccache_misses_total") - family(m0, "censord_doccache_misses_total")
	ratio := hits / (hits + misses)
	r.res.put("serve.doccache.hit_ratio", ratio)
	r.res.op(ratio >= 0.99, "hit phase: doc cache hit ratio %.4f, want >= 0.99", ratio)
	if r.traced {
		// The same phase again under the span recorder: every request
		// becomes a span and carries traceparent. The ratio is what
		// tracing costs the headline read metric.
		traced, _, _ := r.hitPhase(d, etags, docs, r.plan.hit, r.rec)
		r.res.put("trace.overhead_ratio", median(values(traced))/median(values(rps)))
	}

	// Refresh rounds: post a small body with ?refresh=1 and wait for a
	// parked /v1/sync to deliver the change; then pay for the new
	// generation once on every doc and on the range sweep.
	if err := r.refreshRounds(d, ctl, docs); err != nil {
		return err
	}
	m2, _, _, err := ctl.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return family(m2, name) - family(m1, name) }
	r.res.put("serve.snapshot.cuts", delta("censord_snapshot_cuts_total"))
	r.res.put("serve.snapshot.skips", delta("censord_snapshot_skips_total"))
	r.res.put("serve.snapshot.build_mean_s", delta("censord_snapshot_build_seconds_sum")/delta("censord_snapshot_build_seconds_count"))
	r.res.put("serve.doccache.evictions", delta("censord_doccache_evictions_total"))
	r.res.put("serve.sync.wait_mean_s", delta("censord_sync_wait_seconds_sum")/delta("censord_sync_wait_seconds_count"))
	r.res.put("serve.range.merge_mean_s", delta("censord_range_merge_seconds_sum")/delta("censord_range_merge_seconds_count"))
	r.res.put("serve.rss_mb", d.rssMB())

	// Restart rounds: checkpoint on demand, terminate, come back from
	// the checkpoint alone, and serve the same bytes as before.
	var ckptS, restoreS []timed
	var termS []float64
	args := r.daemonArgs("-checkpoint", ckptDir)
	for i, t0 := 0, time.Now(); i < minRestarts || (time.Since(t0) < r.plan.restarts && i < maxRestarts); i++ {
		sent := time.Now()
		rep := ctl.post("/v1/checkpoint", nil)
		var info struct {
			Bytes int64 `json:"bytes"`
		}
		if !r.res.op(rep.err == nil && rep.code == http.StatusOK && json.Unmarshal(rep.body, &info) == nil,
			"POST /v1/checkpoint: code %d err %v body %.120s", rep.code, rep.err, rep.body) {
			return fmt.Errorf("checkpoint round %d failed", i)
		}
		ckptS = append(ckptS, since(rep.dur.Seconds(), sent))
		r.res.put("serve.checkpoint_bytes", float64(info.Bytes))
		before, _ := r.fetchDocs(ctl)
		ctl.close()

		took, err := d.term()
		if !r.res.op(err == nil, "SIGTERM: %v", err) {
			return err
		}
		termS = append(termS, took.Seconds())

		sp := r.rec.begin(newTraceID(), 0, "daemon.restore")
		if d, err = startDaemon(r.bins.censord, args, r.daemonLog("read")); err != nil {
			return err
		}
		took, err = d.waitReady(120 * time.Second)
		r.rec.end(sp)
		if !r.res.op(err == nil, "restore boot %d: %v", i, err) {
			return err
		}
		restoreS = append(restoreS, since(took.Seconds(), d.start))
		ctl = d.conn(r.rec)
		after, _ := r.fetchDocs(ctl)
		r.sameDocs("restored daemon vs before SIGTERM", after, before)
	}
	r.putDurations("checkpoint_s", ckptS)
	r.putDurations("restore_s", restoreS)
	r.res.putMedian("serve.term_s", termS)
	return nil
}

// refreshRounds spends plan.rounds on rounds of: park a /v1/sync, post a
// body with ?refresh=1, time until the sync delivers; then sweep every
// doc once (cold: a new generation) and the range queries once.
func (r *run) refreshRounds(d *daemon, ctl *conn, docs map[string][]byte) error {
	syncConn := d.conn(r.rec)
	defer syncConn.close()
	ids := strings.Join(r.w.SyncIDs, ",")
	sc := &syncClient{docs: map[string]*wireDoc{}}
	rep := syncConn.get("/v1/sync?ids=" + ids + "&timeout=0s")
	if !r.res.op(rep.err == nil && rep.code == http.StatusOK, "initial /v1/sync: code %d err %v", rep.code, rep.err) {
		return fmt.Errorf("initial sync failed")
	}
	if err := sc.absorb(rep.body); err != nil {
		return err
	}
	sc.fulls = 0 // the initial resync is not part of the delta ratio

	queries := r.rangeQueries()
	var tally ingestTally
	var extra []byte
	var visible, sweepS, rangeS []timed
	var wake, postS []float64
	for round, t0 := 0, time.Now(); round < minRounds || (time.Since(t0) < r.plan.rounds && round < maxRounds); round++ {
		body := r.corpus.strided(round, refreshSlice)
		extra = append(extra, body...)

		type parked struct {
			rep reply
			end time.Time
		}
		ch := make(chan parked, 1)
		go func(token string) {
			rep := syncConn.get("/v1/sync?ids=" + ids + "&since=" + token + "&timeout=30s")
			ch <- parked{rep, time.Now()}
		}(sc.token)
		time.Sleep(20 * time.Millisecond) // let the long-poll park

		t0 := time.Now()
		post := r.postSlice(ctl, "/v1/ingest?refresh=1", body, countRecords(body), &tally)
		postEnd := time.Now()
		p := <-ch
		if !r.res.op(p.rep.err == nil && p.rep.code == http.StatusOK, "parked /v1/sync: code %d err %v", p.rep.code, p.rep.err) {
			return fmt.Errorf("round %d: sync failed", round)
		}
		visible = append(visible, timed{p.end.Sub(t0).Seconds(), t0, p.end})
		wake = append(wake, max(p.end.Sub(postEnd).Seconds(), 0))
		postS = append(postS, post.dur.Seconds())
		err := sc.absorb(p.rep.body)
		r.res.op(err == nil, "round %d: %v", round, err)

		sweepStart := time.Now()
		fresh, took := r.fetchDocs(ctl)
		sweepS = append(sweepS, since(took.Seconds(), sweepStart))
		for _, id := range r.w.SyncIDs {
			r.res.op(sc.matches(id, fresh[id]), "round %d: sync-assembled %s differs from a fresh GET", round, id)
		}
		for id, b := range fresh {
			docs[id] = b
		}

		var total time.Duration
		rangeStart := time.Now()
		for _, q := range queries {
			rep := ctl.get(q)
			r.res.op(rep.err == nil && rep.code == http.StatusOK && len(rep.body) > 0, "GET %s: code %d err %v", q, rep.code, rep.err)
			total += rep.dur
		}
		rangeS = append(rangeS, since(total.Seconds(), rangeStart))
	}
	r.putDurations("visible_p50_s", visible)
	r.res.putMedian("http.sync.wake_p50_s", wake)
	r.res.putMedian("http.refresh_post.p50_s", postS)
	r.putDurations("doc_cold_sweep_s", sweepS)
	r.putDurations("range_sweep_s", rangeS)
	r.res.put("serve.sync.delta_ratio", float64(sc.deltas)/float64(max(sc.deltas+sc.fulls, 1)))
	r.res.op(tally.added.Load() == tally.sent.Load(), "refresh rounds: sent %d records, daemon acked %d", tally.sent.Load(), tally.added.Load())

	// A cut with nothing new must be skipped, not rebuilt.
	rep = ctl.post("/v1/snapshot", nil)
	r.res.op(rep.err == nil && rep.code == http.StatusOK, "idle POST /v1/snapshot: code %d err %v", rep.code, rep.err)

	// After all rounds the daemon holds the corpus plus every posted
	// body; a batch run over exactly that must print the same docs.
	extraPath := filepath.Join(r.work, "rounds.csv")
	if err := os.WriteFile(extraPath, extra, 0o644); err != nil {
		return err
	}
	p := runProc(r.bins.censorlyzer, r.batchArgs(append(append([]string(nil), r.corpus.files...), extraPath))...)
	if !r.res.op(p.err == nil, "censorlyzer over corpus + rounds: %v: %s", p.err, p.stderr) {
		return p.err
	}
	want, err := splitDocs(p.stdout)
	if err != nil {
		return err
	}
	r.sameDocs("daemon after refresh rounds vs censorlyzer", docs, want)
	return nil
}
