package e2e

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadSmoke is the closed-loop load probe: one producer streams
// CSV batches to POST /v1/ingest pacing itself to -load.target-mb
// while two query workers revalidate a table and a figure endpoint and
// a poller rides /v1/sync. It asserts that a loaded daemon stays
// correct and responsive — ingest progressed, queries were answered,
// the read path stayed cache-dominated — and measures nothing: the
// performance ledger is bench/ (see bench/README.md).
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke spawns a real daemon; skipped in -short")
	}
	w := loadWorld(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, daemonConfig{
		Seed: corpusSeed, Requests: corpusRequests,
		Shards: 3, Bucket: time.Hour, CkptDir: ckptDir,
	})
	defer d.kill()

	before := d.metrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Producer: stream pre-encoded batches at the target byte rate.
	// Closed loop: the next batch is not sent before the previous
	// response arrives, so overload surfaces as falling MB/s (and,
	// past -shed-after, as 429s counted in shed_total), never as an
	// unbounded client-side queue.
	const batchRecords = 2000
	var batches [][]byte
	for lo := 0; lo+batchRecords <= len(w.records); lo += batchRecords {
		batches = append(batches, encodeCSV(t, w.records[lo:lo+batchRecords], false))
	}
	var sentBatches atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		targetBps := *loadTargetMB * 1e6
		start := time.Now()
		var sentBytes float64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := batches[i%len(batches)]
			code, resp := d.post("/v1/ingest", body, false)
			if code != 200 && code != 429 && code != 0 {
				t.Errorf("load ingest: status %d body %s", code, resp)
				return
			}
			sentBatches.Add(1)
			sentBytes += float64(len(body))
			// Pace: sleep until the cumulative rate drops to target.
			ahead := sentBytes/targetBps - time.Since(start).Seconds()
			if ahead > 0 {
				select {
				case <-stop:
					return
				case <-time.After(time.Duration(ahead * float64(time.Second))):
				}
			}
		}
	}()

	// Query workers: a table and a figure endpoint, plus periodic
	// snapshot cuts so queries see fresh data. Each worker revalidates
	// with the last ETag it saw — the realistic client shape the doc
	// cache is built for: between cuts every request is a 304 or a
	// cache hit, only the first request per generation renders.
	for _, path := range []string{"/v1/tables/4", "/v1/figures/5"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%50 == 0 {
					d.post("/v1/snapshot", nil, false)
				}
				var hdr [][2]string
				if etag != "" {
					hdr = append(hdr, [2]string{"If-None-Match", etag})
				}
				code, body, respHdr := d.getH(path, hdr...)
				if code != 200 && code != 304 {
					t.Errorf("load query %s: status %d body %s", path, code, body)
					return
				}
				if e := respHdr.Get("ETag"); e != "" {
					etag = e
				}
			}
		}()
	}

	// Sync poller: rides the token chain with short long-polls, waking
	// on the cuts the query workers trigger.
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := ""
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body, _ := d.getH("/v1/sync?ids=table4&timeout=2s&since=" + since)
			if code != 200 {
				t.Errorf("load sync: status %d body %s", code, body)
				return
			}
			var resp struct {
				Next string `json:"next"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Errorf("load sync: %v (%.200s)", err, body)
				return
			}
			since = resp.Next
		}
	}()

	time.Sleep(*loadDuration)
	close(stop)
	wg.Wait()

	after := d.metrics()
	delta := func(series string) float64 { return metricValue(after, series) - metricValue(before, series) }
	if delta("censord_ingest_bytes_total") <= 0 {
		t.Error("load smoke ingested nothing")
	}
	// Revalidations answer 304, so both code classes are query traffic.
	queries := delta(`http_requests_total{route="/v1/tables/{id}",code="2xx"}`) +
		delta(`http_requests_total{route="/v1/tables/{id}",code="3xx"}`) +
		delta(`http_requests_total{route="/v1/figures/{id}",code="2xx"}`) +
		delta(`http_requests_total{route="/v1/figures/{id}",code="3xx"}`)
	if queries == 0 {
		t.Error("load smoke answered no queries")
	}
	// The read path must be cache-dominated under this workload: between
	// snapshot cuts every revalidation and repeat query should skip the
	// render entirely.
	hits, misses := delta("censord_doccache_hits_total"), delta("censord_doccache_misses_total")
	if hits+misses == 0 || hits/(hits+misses) < 0.9 {
		t.Errorf("query cache hit ratio below 0.9 (hits %.0f, misses %.0f)", hits, misses)
	}
	t.Logf("load smoke: %d ingest batches (%.1f MB), %.0f queries, doc cache %.0f hits / %.0f misses, %.0f shed",
		sentBatches.Load(), delta("censord_ingest_bytes_total")/1e6, queries, hits, misses, delta("censord_ingest_shed_total"))
}
