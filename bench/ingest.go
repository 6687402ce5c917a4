package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	saturateSlice = 4 << 20 // closed-loop body size
	pacedSlice    = 1 << 20 // open-loop body size
	pacedPerSec   = 64      // open-loop rate: 64 x 1 MB = 64 MB/s
	ingestConns   = 2
	satWarmup     = 1 // 1-s windows discarded after the first corpus pass
)

// daemonArgs are the flags every censord under test runs with. Snapshot
// cuts and checkpoints happen only when the harness asks for one, so
// their cost lands in the metric that measures them instead of as
// periodic noise in the others; warn-level logging keeps the access log
// out of the request path.
func (r *run) daemonArgs(extra ...string) []string {
	args := []string{"-requests", r.requestsArg(), "-seed", r.seedArg(), "-exp", r.w.Exp,
		"-snapshot-every", "0", "-checkpoint-every", "0", "-log-level", "warn"}
	return append(args, extra...)
}

func (r *run) daemonLog(name string) string {
	return filepath.Join(r.logs, fmt.Sprintf("%s-%s-%d.log", r.w.Name, name, r.seed))
}

// ack is one acknowledged POST /v1/ingest.
type ack struct {
	at    time.Duration // since the loop started
	bytes int
	dur   time.Duration
}

// ingestTally adds up what the daemon says it accepted against what was
// sent; the two must agree exactly.
type ingestTally struct {
	sent, added, malformed atomic.Uint64
}

// postSlice sends one body and counts the outcome: anything but a 200
// with a parsable count is a failed operation (a 429 shed included).
func (r *run) postSlice(c *conn, path string, body []byte, recs uint64, t *ingestTally) reply {
	rep := c.post(path, body)
	var resp struct {
		Added     uint64 `json:"added"`
		Malformed uint64 `json:"malformed"`
	}
	ok := rep.err == nil && rep.code == http.StatusOK && json.Unmarshal(rep.body, &resp) == nil
	r.res.op(ok, "POST %s: code %d err %v body %.120s", path, rep.code, rep.err, rep.body)
	if ok {
		t.sent.Add(recs)
		t.added.Add(resp.Added)
		t.malformed.Add(resp.Malformed)
	}
	return rep
}

// closedLoop keeps ingestConns connections posting back to back: the
// next body goes out when the previous one is acked, so a slower daemon
// receives less. With once it stops after one pass over slices,
// otherwise it cycles until dur has passed.
func (r *run) closedLoop(d *daemon, slices [][]byte, recs []uint64, once bool, dur time.Duration, t *ingestTally) ([]ack, time.Time) {
	var next atomic.Int64
	var mu sync.Mutex
	var acks []ack
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < ingestConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.conn(r.rec)
			defer c.close()
			for {
				n := int(next.Add(1) - 1)
				if (once && n >= len(slices)) || (!once && time.Since(t0) >= dur) {
					return
				}
				n %= len(slices)
				rep := r.postSlice(c, "/v1/ingest", slices[n], recs[n], t)
				mu.Lock()
				acks = append(acks, ack{at: time.Since(t0), bytes: len(slices[n]), dur: rep.dur})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return acks, t0
}

// windowRates turns acks into MB/s per whole 1-s window of a loop that
// started at t0, dropping the first skip windows and the partial last
// one.
func windowRates(acks []ack, t0 time.Time, skip, windows int) []timed {
	per := make([]float64, skip+windows)
	for _, a := range acks {
		if w := int(a.at / time.Second); w < len(per) {
			per[w] += float64(a.bytes) / 1e6
		}
	}
	var out []timed
	for w := skip; w < len(per); w++ {
		from := t0.Add(time.Duration(w) * time.Second)
		out = append(out, timed{per[w], from, from.Add(time.Second)})
	}
	return out
}

// pacedLoop is the open loop: request i is due at t0 + i/rate whatever
// the daemon is doing, and its latency counts from when it was due, so
// a stall is charged to every request it delays.
func (r *run) pacedLoop(d *daemon, slices [][]byte, recs []uint64, dur time.Duration, t *ingestTally) (lat []timed, late []float64) {
	total := int64(dur.Seconds() * pacedPerSec)
	interval := time.Second / pacedPerSec
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < ingestConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.conn(r.rec)
			defer c.close()
			for {
				n := next.Add(1) - 1
				if n >= total {
					return
				}
				due := t0.Add(time.Duration(n) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				k := int(n) % len(slices)
				r.postSlice(c, "/v1/ingest", slices[k], recs[k], t)
				mu.Lock()
				lat = append(lat, since(time.Since(due).Seconds(), due))
				late = append(late, sent.Sub(due).Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, late
}

// readBeside polls one doc at 20 Hz while ingest is paced, cutting a
// snapshot once a second so some reads land on a fresh generation. It
// returns the read latencies once stop is closed.
func (r *run) readBeside(d *daemon, stop <-chan struct{}) []float64 {
	c := d.conn(r.rec)
	defer c.close()
	var lat []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat
		case <-tick.C:
		}
		if i%20 == 0 {
			rep := c.post("/v1/snapshot", nil)
			r.res.op(rep.err == nil && rep.code == http.StatusOK, "POST /v1/snapshot beside ingest: code %d err %v", rep.code, rep.err)
		}
		rep := c.get("/v1/experiments/" + r.w.SyncIDs[0])
		if r.res.op(rep.err == nil && rep.code == http.StatusOK, "GET beside ingest: code %d err %v", rep.code, rep.err) {
			lat = append(lat, rep.dur.Seconds())
		}
	}
}

// sampleQueues scrapes /metrics at 5 Hz until stop closes and returns
// the deepest shard queue seen.
func sampleQueues(d *daemon, stop <-chan struct{}) float64 {
	c := d.conn(nil)
	defer c.close()
	var deepest float64
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return deepest
		case <-tick.C:
		}
		if m, _, _, err := c.scrape(); err == nil {
			deepest = max(deepest, familyMax(m, "censord_shard_queue_depth"))
		}
	}
}

func recordCounts(slices [][]byte) []uint64 {
	out := make([]uint64, len(slices))
	for i, s := range slices {
		out[i] = countRecords(s)
	}
	return out
}

// fetchDocs GETs every experiment of the workload once, in order, on
// one connection, and returns the bodies and the summed time.
func (r *run) fetchDocs(c *conn) (map[string][]byte, time.Duration) {
	docs := map[string][]byte{}
	var total time.Duration
	for _, id := range r.w.IDs {
		rep := c.get("/v1/experiments/" + id)
		if r.res.op(rep.err == nil && rep.code == http.StatusOK, "GET /v1/experiments/%s: code %d err %v", id, rep.code, rep.err) {
			docs[id] = rep.body
		}
		total += rep.dur
	}
	return docs, total
}

// sameDocs counts one comparison per experiment.
func (r *run) sameDocs(what string, got, want map[string][]byte) {
	for _, id := range r.w.IDs {
		r.res.op(bytes.Equal(got[id], want[id]), "%s: %s differs (%d vs %d bytes)", what, id, len(got[id]), len(want[id]))
	}
}

// ingestPhase measures the operator's write path: an empty daemon fed
// over POST /v1/ingest, first as fast as it will take it, then at a
// fixed rate below that.
func (r *run) ingestPhase() error {
	d, err := startDaemon(r.bins.censord, r.daemonArgs(), r.daemonLog("ingest"))
	if err != nil {
		return err
	}
	defer d.kill()
	if _, err := d.waitReady(60 * time.Second); err != nil {
		return err
	}
	ctl := d.conn(nil)
	defer ctl.close()

	big := r.corpus.slices(saturateSlice)
	bigRecs := recordCounts(big)
	var tally ingestTally

	// One exact pass over the corpus: it fills the shard queues and the
	// engines' maps (later passes see only known keys, which is the
	// steady state being measured) and, because it is exactly the
	// corpus, its result can be checked against the batch run.
	t0, cpu0 := r.loadStart()
	r.closedLoop(d, big, bigRecs, true, 0, &tally)
	r.loadEnd(t0, cpu0, ingestConns)
	if rep := ctl.post("/v1/snapshot", nil); !r.res.op(rep.err == nil && rep.code == http.StatusOK, "POST /v1/snapshot: code %d err %v", rep.code, rep.err) {
		return fmt.Errorf("snapshot after first pass failed")
	}
	docs, _ := r.fetchDocs(ctl)
	r.sameDocs("daemon after one corpus pass vs censorlyzer", docs, r.batchDocs)

	before, _, _, err := ctl.scrape()
	if err != nil {
		return err
	}

	stopQ := make(chan struct{})
	queueMax := make(chan float64, 1)
	if r.traced {
		go func() { queueMax <- sampleQueues(d, stopQ) }()
	}
	t0, cpu0 = r.loadStart()
	windows := int(r.plan.saturate / time.Second)
	acks, satStart := r.closedLoop(d, big, bigRecs, false, time.Duration(satWarmup+windows)*time.Second, &tally)
	r.loadEnd(t0, cpu0, ingestConns)
	close(stopQ)
	if r.traced {
		r.res.put("serve.shard.queue_depth_max", <-queueMax)
	}
	r.putRates("ingest_mb_s", windowRates(acks, satStart, satWarmup, windows))
	var satLat []float64
	for _, a := range acks {
		satLat = append(satLat, a.dur.Seconds())
	}
	r.res.putMedian("http.ingest.saturated_p50_s", satLat)

	small := r.corpus.slices(pacedSlice)
	smallRecs := recordCounts(small)
	stopR := make(chan struct{})
	beside := make(chan []float64, 1)
	go func() { beside <- r.readBeside(d, stopR) }()
	t0, cpu0 = r.loadStart()
	lat, late := r.pacedLoop(d, small, smallRecs, r.plan.paced, &tally)
	r.loadEnd(t0, cpu0, ingestConns+1)
	close(stopR)
	r.putDurations("ingest_paced_p50_s", lat)
	r.res.putPercentile("http.ingest.p95_s", values(lat), 95)
	r.res.putPercentile("gen.late_p95_s", late, 95)
	r.res.putMedian("http.read_under_ingest.p50_s", <-beside)

	// Quiesce: every acked record must be in the next snapshot.
	rep := ctl.post("/v1/snapshot", nil)
	var snap struct {
		Records uint64 `json:"snapshot_records"`
	}
	if r.res.op(rep.err == nil && rep.code == http.StatusOK && json.Unmarshal(rep.body, &snap) == nil,
		"POST /v1/snapshot after ingest: code %d err %v", rep.code, rep.err) {
		sent, added := tally.sent.Load(), tally.added.Load()
		r.res.op(added == sent && snap.Records == sent && tally.malformed.Load() == 0,
			"ingest accounting: sent %d records, daemon acked %d (malformed %d), snapshot holds %d",
			sent, added, tally.malformed.Load(), snap.Records)
	}

	after, _, _, err := ctl.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return family(after, name) - family(before, name) }
	handler := routeSeries(after, "http_request_seconds_sum", "/v1/ingest") - routeSeries(before, "http_request_seconds_sum", "/v1/ingest")
	r.res.put("serve.ingest.parse_share", delta("censord_ingest_parse_seconds_sum")/handler)
	r.res.put("serve.ingest.read_share", delta("censord_ingest_read_seconds_sum")/handler)
	r.res.put("serve.ingest.backpressure_share", delta("censord_ingest_backpressure_seconds_sum")/handler)
	r.res.put("serve.ingest.shed_total", delta("censord_ingest_shed_total"))
	return nil
}
