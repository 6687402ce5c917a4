package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"syriafilter/internal/obs/trace"
)

const wireGolden = "testdata/wire.golden"

// wireRow renders one response as a golden row: status, the sha256 of
// the body as a client reads it (gunzipped when encoded, so the digest
// does not move with compress/flate), and the full header set. What
// differs from run to run is masked: the boot nonce (in ETags and sync
// tokens, and so in the length of a body that holds one), the request
// id, the trace context, and the length of a compressed body.
func wireRow(t *testing.T, boot string, rw *httptest.ResponseRecorder) string {
	t.Helper()
	body := rw.Body.Bytes()
	hdr := rw.Header()
	if n := hdr.Get("Content-Length"); n != "" && n != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %s on a %d byte body", n, len(body))
	}
	gz := hdr.Get("Content-Encoding") == "gzip"
	if gz {
		body = gunzip(t, body)
	}
	body = bytes.ReplaceAll(body, []byte(boot), []byte("BOOT"))
	switch {
	case gz:
		hdr.Set("Content-Length", "<gz>")
	case hdr.Get("Content-Length") != "":
		// The nonce's length varies from boot to boot, and with it the
		// length of a body that quotes it (a sync token).
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
	}
	var lines []string
	for k, vs := range hdr {
		v := strings.ReplaceAll(strings.Join(vs, ", "), boot, "BOOT")
		if k == "X-Request-Id" || k == "Traceparent" {
			v = "<masked>"
		}
		lines = append(lines, k+": "+v)
	}
	sort.Strings(lines)
	return fmt.Sprintf("  %d sha256:%s (%d bytes)\n  %s\n", rw.Code, sha256Hex(body), len(body), strings.Join(lines, " | "))
}

// The wire, pinned: every read endpoint × encoding × validator ×
// format over one fixed store answers with exactly the status, headers
// and body bytes recorded in testdata/wire.golden. A refactor of the
// read path leaves the file alone; a change meant to move the wire
// regenerates it with -update, and the diff of the file is what moved.
func TestReadPathWire(t *testing.T) {
	f := corpus(t)
	store, err := NewStore(Config{Options: f.opt, Shards: 4, Bucket: time.Hour,
		Tracer: trace.New(trace.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if _, err := store.add(f.records[:6000], nil); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	from := snap.Timewin.Buckets[0].StartUnix
	window := fmt.Sprintf("from=%d&to=%d", from, from+6*3600)

	// A store serving a module subset: table4's module is not in it.
	subset, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour, Metrics: []string{"datasets"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(subset.Close)
	if _, err := subset.add(f.records[:2000], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := subset.Refresh(); err != nil {
		t.Fatal(err)
	}

	servers := map[string]*Server{
		"full":   NewServer(store, f.gen),
		"nogen":  NewServer(store, nil),
		"subset": NewServer(subset, f.gen),
	}
	encodings := []string{"", "gzip", "gzip;q=0"}
	validators := []string{"none", "same", "weak", "list", "star", "stale"}

	var out strings.Builder
	run := func(server, path string, formats, encodings, validators []string) {
		srv := servers[server]
		for _, format := range formats {
			for _, ae := range encodings {
				url := path
				if format != "" {
					sep := "?"
					if strings.Contains(path, "?") {
						sep = "&"
					}
					url += sep + "format=" + format
				}
				var hdr [][2]string
				if ae != "" {
					hdr = append(hdr, [2]string{"Accept-Encoding", ae})
				}
				// The ETag this exact request is answered with, when it
				// is answered with one.
				served := get(srv, url, hdr...).Header().Get("ETag")
				if served == "" {
					served = `"never-served"`
				}
				for _, v := range validators {
					req := hdr
					switch v {
					case "same":
						req = append(req, [2]string{"If-None-Match", served})
					case "weak":
						req = append(req, [2]string{"If-None-Match", "W/" + served})
					case "list":
						req = append(req, [2]string{"If-None-Match", `"other", ` + served})
					case "star":
						req = append(req, [2]string{"If-None-Match", "*"})
					case "stale":
						req = append(req, [2]string{"If-None-Match", `"stale"`})
					}
					fmt.Fprintf(&out, "%s GET %s ae=%q inm=%s\n%s", server, url, ae, v, wireRow(t, srv.boot, get(srv, url, req...)))
				}
			}
		}
	}

	for _, path := range []string{
		"/v1/experiments",
		"/v1/experiments/table4",
		"/v1/tables/4",
		"/v1/figures/fig5",
		"/v1/range/table4",
		"/v1/range/table4?" + window,
		"/v1/range/table1?step=24h",
		"/v1/sync?ids=table4",
	} {
		run("full", path, []string{"json", "text"}, encodings, validators)
	}
	// No format parameter, and one no endpoint knows.
	short := []string{"none", "star"}
	for _, path := range []string{
		"/v1/experiments",
		"/v1/experiments/table4",
		"/v1/tables/4",
		"/v1/figures/fig5",
		"/v1/range/table4",
		"/v1/range/table1?step=24h",
		"/v1/sync?ids=table4",
	} {
		run("full", path, []string{"", "xml"}, encodings[:2], short)
	}
	// Requests that cannot answer 200: an id nobody knows, an id of the
	// wrong kind, one that needs the generator this daemon lacks, one
	// whose module the store was built without.
	for _, path := range []string{
		"/v1/experiments/nope",
		"/v1/tables/99",
		"/v1/tables/fig5",
		"/v1/range/nope",
		"/v1/sync?ids=nope",
	} {
		run("full", path, []string{""}, encodings[:1], short)
	}
	for _, path := range []string{"/v1/experiments/probing", "/v1/range/probing", "/v1/sync?ids=probing"} {
		run("nogen", path, []string{""}, encodings[:1], short)
	}
	for _, path := range []string{"/v1/experiments/table4", "/v1/range/table4", "/v1/range/table4?step=24h", "/v1/sync?ids=table4", "/v1/experiments/table1"} {
		run("subset", path, []string{""}, encodings[:1], short)
	}

	if *updateGolden {
		if err := os.WriteFile(wireGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				at := i // the row's request line
				for at > 0 && strings.HasPrefix(gl[at], " ") {
					at--
				}
				t.Fatalf("%s line %d:\n%s\n got: %s\nwant: %s", wireGolden, i+1, gl[at], gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", wireGolden, len(gl), len(wl))
	}
}
