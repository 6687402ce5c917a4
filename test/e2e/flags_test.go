package e2e

import (
	"bytes"
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
// serves every table byte for byte as before.
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

	cfg.Extra = nil
	d = startDaemon(t, cfg)
	defer d.term()
	after := tables()
	if len(after) != 14 {
		t.Errorf("%d tables, want 14", len(after))
	}
	for id, want := range before {
		if !bytes.Equal(after[id], want) {
			t.Errorf("%s differs after a restart from -checkpoint alone", id)
		}
	}
}
