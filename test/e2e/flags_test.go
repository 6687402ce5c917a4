package e2e

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/render"
)

// TestBootFlags covers what only a command line sets. An exact censord
// booted on one plain and one gzipped -input file must serve, over a
// sub-window, the docs censorlyzer -from/-to computes from the same
// files, and after SIGTERM and a restart from -checkpoint alone it
// serves every table byte for byte as before. The restart also runs
// with -log-format json, so every line it logs is a JSON object with a
// "msg" key, and with -debug-addr, so pprof answers on that listener
// and 404s on the public one. Tracing needs no flag: the slow threshold
// is 250ms. censord -version exits 0 naming itself.
func TestBootFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("boot-flag test spawns real daemons; skipped in -short")
	}
	w := loadWorld(t)
	tmp := t.TempDir()
	// Alternate records between the files, so both feed every window.
	var halves [2][]logfmt.Record
	for i := range w.records {
		halves[i%2] = append(halves[i%2], w.records[i])
	}
	plain, gz := filepath.Join(tmp, "even.csv"), filepath.Join(tmp, "odd.csv.gz")
	for path, body := range map[string][]byte{plain: encodeCSV(t, halves[0], false), gz: encodeCSV(t, halves[1], true)} {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	input := plain + "," + gz
	cfg := daemonConfig{Seed: corpusSeed, Requests: corpusRequests, Shards: 3, Bucket: time.Hour,
		CkptDir: filepath.Join(tmp, "ckpt"), Extra: []string{"-input", input}}

	d := startDaemon(t, cfg)
	tables := func() map[string][]byte {
		docs := map[string][]byte{}
		for _, id := range render.Order() {
			if strings.HasPrefix(id, "table") {
				_, docs[id] = d.get("/v1/experiments/" + id)
			}
		}
		return docs
	}
	const from, to = "2011-08-03", "2011-08-05"
	for _, id := range []string{"table1", "table4", "table8"} {
		out, err := exec.Command(censorlyzerBin, "-input", input, "-exp", id, "-json", "-from", from, "-to", to,
			"-seed", strconv.FormatUint(corpusSeed, 10), "-requests", strconv.Itoa(corpusRequests)).Output()
		if err != nil {
			t.Fatalf("censorlyzer -exp %s: %v", id, err)
		}
		if code, body := d.get("/v1/range/" + id + "?from=" + from + "&to=" + to); code != 200 || !bytes.Equal(body, out) {
			t.Errorf("/v1/range/%s [%s, %s): status %d, body differs from censorlyzer -from/-to\n got: %.300s\nwant: %.300s",
				id, from, to, code, body, out)
		}
	}
	before := tables()
	d.term()

	debugAddr := freeAddr(t)
	cfg.Extra = []string{"-log-format", "json", "-debug-addr", debugAddr}
	d = startDaemon(t, cfg)
	after := tables()
	if len(after) != 14 {
		t.Errorf("%d tables, want 14", len(after))
	}
	for id, want := range before {
		if !bytes.Equal(after[id], want) {
			t.Errorf("%s differs after a restart from -checkpoint alone", id)
		}
	}

	// The debug listener starts beside the public one; give it a moment.
	pprofCode := 0
	for deadline := time.Now().Add(5 * time.Second); pprofCode != 200 && time.Now().Before(deadline); {
		if resp, err := http.Get("http://" + debugAddr + "/debug/pprof/"); err == nil {
			pprofCode = resp.StatusCode
			resp.Body.Close()
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if pprofCode != 200 {
		t.Errorf("GET /debug/pprof/ on -debug-addr: status %d, want 200", pprofCode)
	}
	if code, _ := d.get("/debug/pprof/"); code != 404 {
		t.Errorf("GET /debug/pprof/ on the public listener: status %d, want 404", code)
	}
	// censord always traces, keeping every trace of 250ms or longer;
	// /v1/stats exports the registry nowhere.
	var stats struct {
		Obs   json.RawMessage `json:"obs"`
		Trace *struct {
			SlowMS float64 `json:"slow_threshold_ms"`
		} `json:"trace"`
	}
	if _, body := d.get("/v1/stats"); json.Unmarshal(body, &stats) != nil || stats.Trace == nil || stats.Trace.SlowMS != 250 || stats.Obs != nil {
		t.Errorf("/v1/stats = %.300s, want a trace section with slow_threshold_ms 250 and no obs section", body)
	}
	d.term()

	logged, err := os.ReadFile(d.logTo.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(logged), "\n"), "\n")
	if len(lines) < 3 {
		t.Errorf("-log-format json logged %d lines, want boot, ready and shutdown at least", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("-log-format json wrote a line that is not a JSON object: %q", line)
			continue
		}
		if _, ok := rec["msg"]; !ok {
			t.Errorf("-log-format json wrote a line without a msg key: %q", line)
		}
	}

	out, err := exec.Command(censordBin, "-version").Output()
	if err != nil {
		t.Fatalf("censord -version: %v", err)
	}
	if !strings.HasPrefix(string(out), "censord ") {
		t.Errorf("censord -version printed %q, want a line starting with \"censord \"", out)
	}
}
