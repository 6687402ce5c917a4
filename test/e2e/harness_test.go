package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonConfig is the restartable part of a censord invocation: the
// chaos loop mutates Shards and Bucket across restarts, everything
// else stays pinned to the oracle's world. Extra is appended to the
// command line (boot -input files).
type daemonConfig struct {
	Seed     uint64
	Requests int
	Shards   int
	Bucket   time.Duration
	CkptDir  string
	Extra    []string
}

// daemon is one running censord process under test control.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	url    string
	logTo  *os.File
	exited chan error // receives cmd.Wait exactly once
}

// startDaemon boots censord on a fresh loopback port with the given
// config and blocks until /readyz answers 200 (boot restore included).
// While waiting it checks the restore gate: whenever /readyz is not ok,
// POST /v1/snapshot must answer 503.
func startDaemon(t *testing.T, cfg daemonConfig) *daemon {
	t.Helper()
	addr := freeAddr(t)
	logPath := filepath.Join(cfg.CkptDir, "..", fmt.Sprintf("censord-%d.log", time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-addr", addr,
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-requests", strconv.Itoa(cfg.Requests),
		"-shards", strconv.Itoa(cfg.Shards),
		"-bucket", cfg.Bucket.String(),
		"-checkpoint", cfg.CkptDir,
		"-checkpoint-every", "0", // checkpoints only via POST /v1/checkpoint and shutdown
		"-snapshot-every", "0", // snapshots only via POST /v1/snapshot
		"-retain", "0", // keep every bucket live so ranges are always exact
		"-shed-after", "-1s", // the oracle drives sequentially; never shed
		"-log-level", "info",
	}
	cmd := exec.Command(censordBin, append(args, cfg.Extra...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, url: "http://" + addr, logTo: logFile, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	gateChecked := false
	for {
		select {
		case err := <-d.exited:
			d.exited <- err
			t.Fatalf("censord exited during boot: %v\n%s", err, d.logTail())
		default:
		}
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			ready := resp.StatusCode == 200
			resp.Body.Close()
			if ready {
				return d
			}
			// Satellite check: the daemon is up but not ready — the
			// state-observing routes must refuse rather than serve a
			// half-restored view. Tolerate the race where boot finishes
			// between the two requests.
			if !gateChecked {
				code, _ := d.post("/v1/snapshot", nil, false)
				// So is a doc read that asks for a fresh cut.
				fcode, _ := d.get("/v1/experiments/table4?fresh=1")
				// /v1/sync is gated the same way: while restoring it must
				// answer 503 immediately, never park over half-restored
				// state (parking would also stall this boot loop).
				scode, _ := d.get("/v1/sync?timeout=5s")
				// The flight recorder is deliberately NOT gated: it exists
				// to diagnose a daemon in exactly this state, so it must
				// answer 200 (with valid JSON) while /readyz still 503s.
				tcode, tbody := d.get("/debug/traces")
				if tcode != 200 {
					t.Errorf("GET /debug/traces while not ready: status %d, want 200", tcode)
				} else if !json.Valid(tbody) {
					t.Errorf("GET /debug/traces while not ready: invalid JSON: %.200s", tbody)
				}
				if still, err2 := http.Get(d.url + "/readyz"); err2 == nil {
					if still.StatusCode != 200 {
						if code != http.StatusServiceUnavailable {
							t.Errorf("POST /v1/snapshot while not ready: status %d, want 503", code)
						}
						if fcode != http.StatusServiceUnavailable {
							t.Errorf("GET /v1/experiments/table4?fresh=1 while not ready: status %d, want 503", fcode)
						}
						if scode != http.StatusServiceUnavailable {
							t.Errorf("GET /v1/sync while not ready: status %d, want 503", scode)
						}
					}
					still.Body.Close()
				}
				gateChecked = true
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			t.Fatalf("censord not ready after 60s\n%s", d.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// logTail returns the end of the daemon's log for failure messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logTo.Name())
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// term sends SIGTERM and waits for a graceful exit (final checkpoint
// included).
func (d *daemon) term() {
	d.t.Helper()
	// Park a /v1/sync long-poll before signaling: the drain must resolve
	// it with a terminal answer (503, or data if a cut raced the signal)
	// instead of letting it pin the shutdown deadline. A transport error
	// (status 0) is tolerated — the listener closes as the process
	// exits — but the request must never hang past shutdown.
	seq := fmt.Sprint(d.snapshotSeq())
	syncDone := make(chan int, 1)
	go func() {
		client := &http.Client{Timeout: 90 * time.Second}
		resp, err := client.Get(d.url + "/v1/sync?timeout=80s&since=" + seq)
		if err != nil {
			syncDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		syncDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("SIGTERM: %v", err)
	}
	// While draining (between SIGTERM and listener close) the flight
	// recorder must stay readable — that is when an operator reaches for
	// it. The race with the listener actually closing is tolerated as a
	// transport error (status 0), but a live answer must be a valid 200.
	if resp, err := http.Get(d.url + "/debug/traces"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			d.t.Errorf("GET /debug/traces while draining: status %d, want 200", resp.StatusCode)
		} else if !json.Valid(body) {
			d.t.Errorf("GET /debug/traces while draining: invalid JSON: %.200s", body)
		}
	}
	select {
	case err := <-d.exited:
		if err != nil {
			d.t.Fatalf("censord exited non-zero after SIGTERM: %v\n%s", err, d.logTail())
		}
	case <-time.After(60 * time.Second):
		d.kill()
		d.t.Fatalf("censord did not exit within 60s of SIGTERM\n%s", d.logTail())
	}
	// The process is gone, so the parked poll must have resolved (503
	// from the drain wakeup, 200 if a cut raced, 0 if the listener
	// closed under it). Timeouts here mean a poll pinned the drain.
	select {
	case code := <-syncDone:
		if code != 0 && code != 200 && code != http.StatusServiceUnavailable {
			d.t.Errorf("parked /v1/sync resolved with status %d during drain", code)
		}
	case <-time.After(10 * time.Second):
		d.t.Errorf("parked /v1/sync hung through a graceful shutdown")
	}
	d.logTo.Close()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.t.Helper()
	d.cmd.Process.Kill()
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.t.Fatalf("censord not reaped 30s after SIGKILL")
	}
	d.logTo.Close()
}

// get fetches a path and returns status and body.
func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get(d.url + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v\n%s", path, err, d.logTail())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, b
}

// post sends a body (optionally gzip Content-Encoding) and returns
// status and response body. Transport errors return status 0 instead
// of failing the test: callers racing a kill handle them.
func (d *daemon) post(path string, body []byte, gz bool) (int, []byte) {
	req, err := http.NewRequest("POST", d.url+path, bytes.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// healthSnapshot reads /healthz and returns the published snapshot's
// record count.
func (d *daemon) snapshotRecords() uint64 {
	d.t.Helper()
	code, body := d.get("/healthz")
	if code != 200 {
		d.t.Fatalf("GET /healthz: status %d body %s", code, body)
	}
	var h struct {
		SnapshotRecords uint64 `json:"snapshot_records"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		d.t.Fatalf("decoding /healthz: %v (%s)", err, body)
	}
	return h.SnapshotRecords
}

// snapshotSeq reads /healthz and returns the published snapshot's
// sequence number — a bare /v1/sync since token for the current state.
func (d *daemon) snapshotSeq() uint64 {
	d.t.Helper()
	code, body := d.get("/healthz")
	if code != 200 {
		d.t.Fatalf("GET /healthz: status %d body %s", code, body)
	}
	var h struct {
		SnapshotSeq uint64 `json:"snapshot_seq"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		d.t.Fatalf("decoding /healthz: %v (%s)", err, body)
	}
	return h.SnapshotSeq
}

// metrics scrapes /metrics into a flat series map:
// "name{label=\"v\"}" (or bare "name") → value.
func (d *daemon) metrics() map[string]float64 {
	d.t.Helper()
	code, body := d.get("/metrics")
	if code != 200 {
		d.t.Fatalf("GET /metrics: status %d", code)
	}
	return parseMetrics(string(body))
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// metricValue sums every series of a family (bare name or any label
// set), so unlabeled counters and per-label families read the same way.
func metricValue(series map[string]float64, family string) float64 {
	var sum float64
	for k, v := range series {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}
