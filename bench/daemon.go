package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one censord process driven from outside, over loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	start  time.Time // when the process was exec'd
	exited chan struct{}
	werr   error // cmd.Wait's result, valid once exited is closed
}

// conn is one keep-alive HTTP connection to a daemon: the unit the
// workloads count their generator connections in. Not safe for
// concurrent use; each load goroutine owns one.
type conn struct {
	d      *daemon
	client *http.Client
	rec    *recorder
}

// reply is one finished request.
type reply struct {
	code   int
	body   []byte
	header http.Header
	dur    time.Duration
	err    error
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs censord and returns at once; waitReady blocks until
// it serves. Output goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive a harness that dies without running its
	// deferred kills (a driver timeout, say).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		d.werr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200 and returns the time
// since exec. The poll interval bounds the measurement's resolution.
func (d *daemon) waitReady(timeout time.Duration) (time.Duration, error) {
	c := d.conn(nil)
	for {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("censord exited during boot: %v", d.werr)
		default:
		}
		if r := c.get("/readyz"); r.err == nil && r.code == http.StatusOK {
			return time.Since(d.start), nil
		}
		if time.Since(d.start) > timeout {
			return 0, fmt.Errorf("censord not ready after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// term sends SIGTERM and waits for exit, returning how long the drain
// (and, with -checkpoint, the final checkpoint) took.
func (d *daemon) term() (time.Duration, error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, errors.New("censord ignored SIGTERM for 60s; killed")
	}
	d.log.Close()
	if d.werr != nil {
		return time.Since(t0), fmt.Errorf("censord exit: %w", d.werr)
	}
	return time.Since(t0), nil
}

// kill is the teardown for daemons whose shutdown is not being
// measured, and the safety net on every error path.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

func (d *daemon) rssMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	if i := bytes.Index(b, []byte("VmRSS:")); i >= 0 {
		if f := bytes.Fields(b[i+len("VmRSS:"):]); len(f) > 0 {
			kb, _ := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024
		}
	}
	return 0
}

// conn opens a client that holds exactly one keep-alive connection.
// With a recorder every request becomes a span and carries traceparent.
func (d *daemon) conn(rec *recorder) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{d: d, client: &http.Client{Transport: tr}, rec: rec}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

func (c *conn) do(method, path string, body []byte, hdr ...string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.d.url+path, rd)
	if err != nil {
		return reply{err: err}
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	var sp uint64
	if c.rec != nil {
		trace := newTraceID()
		route, _, _ := strings.Cut(path, "?")
		sp = c.rec.begin(trace, 0, "http "+method+" "+routeOf(route))
		req.Header.Set("traceparent", traceparent(trace, sp))
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		c.rec.end(sp)
		return reply{err: err, dur: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	c.rec.end(sp)
	return reply{code: resp.StatusCode, body: b, header: resp.Header, dur: dur, err: err}
}

func (c *conn) get(path string, hdr ...string) reply { return c.do("GET", path, nil, hdr...) }
func (c *conn) post(path string, body []byte) reply  { return c.do("POST", path, body) }

// routeOf collapses a path to its route so spans aggregate by name.
func routeOf(path string) string {
	for _, p := range []string{"/v1/experiments/", "/v1/tables/", "/v1/figures/", "/v1/range/"} {
		if strings.HasPrefix(path, p) {
			return p + "{id}"
		}
	}
	return path
}

// scrape reads /metrics into "name{labels}" -> value.
func (c *conn) scrape() (map[string]float64, int, time.Duration, error) {
	r := c.get("/metrics")
	if r.err != nil || r.code != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("GET /metrics: code %d: %v", r.code, r.err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out, len(r.body), r.dur, nil
}

// family sums every series of a metric family (bare or labelled).
func family(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// routeSeries reads one labelled series such as
// http_request_seconds_sum{route="/v1/ingest"}.
func routeSeries(m map[string]float64, name, route string) float64 {
	var t float64
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") && strings.Contains(k, `route="`+route+`"`) {
			t += v
		}
	}
	return t
}

// familyMax is the largest series of a gauge family.
func familyMax(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > t {
			t = v
		}
	}
	return t
}
