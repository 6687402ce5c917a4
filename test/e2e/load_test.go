package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loadResult is what the load smoke reports: achieved ingest throughput
// and query latency percentiles, both read off the daemon's own
// /metrics exposition (so the numbers are what an operator's scraper
// would see, not harness-side stopwatch guesses).
type loadResult struct {
	DurationS      float64 `json:"duration_s"`
	TargetMBPerS   float64 `json:"target_mb_per_s"`
	IngestMBPerS   float64 `json:"ingest_mb_per_s"`
	IngestRecords  float64 `json:"ingest_records"`
	IngestBatches  int     `json:"ingest_batches"`
	QueryRequests  float64 `json:"query_requests"`
	QueryP50S      float64 `json:"query_p50_s"`
	QueryP95S      float64 `json:"query_p95_s"`
	QueryP99S      float64 `json:"query_p99_s"`
	IngestP50S     float64 `json:"ingest_p50_s"`
	IngestP99S     float64 `json:"ingest_p99_s"`
	ShedTotal      float64 `json:"shed_total"`
	RaceInstrument bool    `json:"race_instrumented"`
	// Read-path efficiency: doc-cache hits (304 revalidations included)
	// over hits+misses during the run, and the p95 time /v1/sync
	// long-polls spent parked before a snapshot cut (or timeout) woke
	// them.
	QueryCacheHitRatio float64 `json:"query_cache_hit_ratio"`
	SyncWakeupP95S     float64 `json:"sync_wakeup_p95_s"`
	// Provenance: which commit produced these numbers, and when — so a
	// saved -load.out file can be lined up with git history.
	VCSRevision string `json:"vcs_revision"`
	RecordedAt  string `json:"recorded_at"`
}

// benchRevision resolves the revision stamped into the result:
// -load.revision wins, otherwise git is asked directly, with "unknown"
// as the no-git fallback.
func benchRevision() string {
	if *loadRevision != "" {
		return *loadRevision
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// TestLoadSmoke is the closed-loop load probe: one producer streams
// CSV batches to POST /v1/ingest pacing itself to -load.target-mb,
// two query workers hammer table and figure endpoints concurrently,
// and the result — achieved MB/s, latency percentiles from the
// http_request_seconds histograms — is written to -load.out or logged.
// (The performance ledger is bench/, see bench/README.md; this test
// only asserts that a loaded daemon stays correct and responsive.)
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
	// on the cuts the query workers trigger. Feeds the
	// censord_sync_wait_seconds histogram behind sync_wakeup_p95_s.
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
	secs := loadDuration.Seconds()
	ingestBytes := metricValue(after, "censord_ingest_bytes_total") - metricValue(before, "censord_ingest_bytes_total")
	res := loadResult{
		DurationS:     secs,
		TargetMBPerS:  *loadTargetMB,
		IngestMBPerS:  ingestBytes / 1e6 / secs,
		IngestRecords: metricValue(after, "censord_ingest_records_total"),
		IngestBatches: int(sentBatches.Load()),
		// Revalidations answer 304, so both code classes are query traffic.
		QueryRequests: metricValue(after, `http_requests_total{route="/v1/tables/{id}",code="2xx"}`) +
			metricValue(after, `http_requests_total{route="/v1/tables/{id}",code="3xx"}`) +
			metricValue(after, `http_requests_total{route="/v1/figures/{id}",code="2xx"}`) +
			metricValue(after, `http_requests_total{route="/v1/figures/{id}",code="3xx"}`),
		QueryP50S:      histQuantile(after, "http_request_seconds", "/v1/tables/{id}", 0.50),
		QueryP95S:      histQuantile(after, "http_request_seconds", "/v1/tables/{id}", 0.95),
		QueryP99S:      histQuantile(after, "http_request_seconds", "/v1/tables/{id}", 0.99),
		IngestP50S:     histQuantile(after, "http_request_seconds", "/v1/ingest", 0.50),
		IngestP99S:     histQuantile(after, "http_request_seconds", "/v1/ingest", 0.99),
		ShedTotal:      metricValue(after, "censord_ingest_shed_total"),
		RaceInstrument: raceEnabled,
		SyncWakeupP95S: histQuantile(after, "censord_sync_wait_seconds", "", 0.95),
		VCSRevision:    benchRevision(),
		RecordedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	hits := metricValue(after, "censord_doccache_hits_total") - metricValue(before, "censord_doccache_hits_total")
	misses := metricValue(after, "censord_doccache_misses_total") - metricValue(before, "censord_doccache_misses_total")
	if hits+misses > 0 {
		res.QueryCacheHitRatio = hits / (hits + misses)
	}

	if res.IngestMBPerS <= 0 {
		t.Error("load smoke ingested nothing")
	}
	if res.QueryRequests == 0 {
		t.Error("load smoke answered no queries")
	}
	// The read path must be cache-dominated under this workload: between
	// snapshot cuts every revalidation and repeat query should skip the
	// render entirely.
	if res.QueryCacheHitRatio < 0.9 {
		t.Errorf("query cache hit ratio %.3f, want >= 0.9 (hits %.0f, misses %.0f)",
			res.QueryCacheHitRatio, hits, misses)
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	t.Logf("load smoke: %s", b)
	if *loadOut != "" {
		if err := os.WriteFile(*loadOut, b, 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *loadOut)
	}
}
