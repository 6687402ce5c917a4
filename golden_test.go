package repro

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/render"
	"syriafilter/internal/serve"
	"syriafilter/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden with the current code")

const (
	goldenDocsDir  = "testdata/golden"
	goldenRequests = 60000
)

// docDigest is the sha256 of one rendered document in both front-end
// encodings: render.EncodeJSON (the wire form) and Doc.Text.
type docDigest struct {
	JSON string `json:"json"`
	Text string `json:"text"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenAnalyzer is the batch path of cmd/censorlyzer with no -input:
// synthesize, filter, observe every record into one full analyzer. The
// records are returned too, for the daemon path to ingest.
func goldenAnalyzer(t *testing.T, seed uint64) (*synth.Generator, *core.Analyzer, []logfmt.Record) {
	t.Helper()
	gen, err := synth.New(synth.Config{Seed: seed, TotalRequests: goldenRequests})
	if err != nil {
		t.Fatal(err)
	}
	an := core.NewAnalyzer(analyzerOptions(gen))
	var recs []logfmt.Record
	proxysim.Emit(gen, func(rec *logfmt.Record) {
		an.Observe(rec)
		recs = append(recs, *rec)
	})
	return gen, an, recs
}

// goldenOverHTTP is the daemon path over the same records: a 3-shard
// serve.Store cut once, every doc fetched from the snapshot endpoint and
// from the whole-window range endpoint, as JSON and as text, plain and
// gzipped. Every one of those bodies must hash to the batch digest.
func goldenOverHTTP(t *testing.T, seed uint64, gen *synth.Generator, recs []logfmt.Record, want map[string]docDigest) {
	t.Helper()
	store, err := serve.NewStore(serve.Config{Options: analyzerOptions(gen), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AddCtx(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(store, gen)
	for _, id := range render.Order() {
		for _, route := range []string{"/v1/experiments/", "/v1/range/"} {
			for format, digest := range map[string]string{"json": want[id].JSON, "text": want[id].Text} {
				for _, gz := range []bool{false, true} {
					req := httptest.NewRequest("GET", route+id+"?format="+format, nil)
					if gz {
						req.Header.Set("Accept-Encoding", "gzip")
					}
					rw := httptest.NewRecorder()
					srv.ServeHTTP(rw, req)
					body := rw.Body.Bytes()
					if gz && rw.Code == 200 {
						zr, err := gzip.NewReader(rw.Body)
						if err != nil {
							t.Fatal(err)
						}
						if body, err = io.ReadAll(zr); err != nil {
							t.Fatal(err)
						}
					}
					if rw.Code != 200 || sha256Hex(body) != digest {
						t.Errorf("seed %d GET %s%s?format=%s (gzip %v): status %d, body is not the batch document",
							seed, route, id, format, gz, rw.Code)
					}
				}
			}
		}
	}
}

// No document may move: every render.Order() doc of the batch path, as
// JSON and as text, for seeds 1–3 at a fixed corpus size, is pinned by
// digest in testdata/golden/digests.json; seed 1's JSON docs are also
// kept in full (indented) under testdata/golden/seed1/, so a mismatch
// shows which rows moved rather than only that a hash did. Rewrite both
// with -update after a change that is meant to move a document. The
// daemon must serve the same bytes: see goldenOverHTTP.
func TestGoldenDocs(t *testing.T) {
	got := map[string]map[string]docDigest{}
	for seed := uint64(1); seed <= 3; seed++ {
		gen, an, recs := goldenAnalyzer(t, seed)
		digests := map[string]docDigest{}
		for _, id := range render.Order() {
			doc, err := render.Render(id, render.Context{An: an, Gen: gen})
			if err != nil {
				t.Fatal(err)
			}
			b, err := render.EncodeJSON(doc)
			if err != nil {
				t.Fatal(err)
			}
			digests[id] = docDigest{JSON: sha256Hex(b), Text: sha256Hex([]byte(doc.Text()))}
			if seed != 1 {
				continue
			}
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, b, "", "  "); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(goldenDocsDir, "seed1", id+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, pretty.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pretty.Bytes(), want) {
				t.Errorf("seed 1 %s differs from %s:\n%s", id, path, firstDiff(want, pretty.Bytes()))
			}
		}
		got[fmt.Sprintf("seed%d", seed)] = digests
		goldenOverHTTP(t, seed, gen, recs, digests)
	}

	path := filepath.Join(goldenDocsDir, "digests.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]docDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for seed, docs := range want {
		if len(got[seed]) != len(docs) {
			t.Errorf("%s: rendered %d docs, golden holds %d", seed, len(got[seed]), len(docs))
		}
		for id, w := range docs {
			if g := got[seed][id]; g != w {
				t.Errorf("%s %s: digests moved: got %+v, want %+v", seed, id, g, w)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("rendered %d seeds, golden holds %d", len(got), len(want))
	}
}

// firstDiff returns the first line where got departs from want, with
// the line before it for context.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			prev := ""
			if i > 0 {
				prev = string(wl[i-1])
			}
			return fmt.Sprintf("line %d (after %q):\n got: %s\nwant: %s", i+1, prev, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
