package repro

// End-to-end integration tests across package boundaries: the full
// generate -> filter -> serialize-to-disk -> parse -> parallel-analyze
// path, plus failure injection on the on-disk corpus.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
)

func analyzerOptions(gen *synth.Generator) core.Options {
	return core.Options{
		Categories: gen.CategoryDB(), Consensus: gen.Consensus(),
		TitleDB: bittorrent.NewTitleDB(),
	}
}

// buildCorpusFiles writes a small corpus split per proxy into dir and
// returns the generator plus the in-memory analyzer reference: every
// record observed directly as it was written, no parser in between.
func buildCorpusFiles(t *testing.T, dir string, seed uint64, n int) (*synth.Generator, *core.Analyzer, []string) {
	t.Helper()
	gen, err := synth.New(synth.Config{Seed: seed, TotalRequests: n})
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewAnalyzer(analyzerOptions(gen))

	writers := map[int]*logfmt.Writer{}
	var paths []string
	for sg := logfmt.FirstProxy; sg <= logfmt.LastProxy; sg++ {
		path := filepath.Join(dir, "sg-"+string(rune('0'+sg/10))+string(rune('0'+sg%10))+".csv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := logfmt.NewWriter(f)
		if err := w.WriteHeader(); err != nil {
			t.Fatal(err)
		}
		writers[sg] = w
		paths = append(paths, path)
	}

	proxysim.Emit(gen, func(rec *logfmt.Record) {
		ref.Observe(rec)
		if err := writers[rec.Proxy()].Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return gen, ref, paths
}

func analyzeFiles(t *testing.T, gen *synth.Generator, paths []string, workers int) (*core.Analyzer, pipeline.BlockStats) {
	t.Helper()
	an, stats, err := pipeline.RunFilesBlocks(paths, workers,
		func() *core.Analyzer { return core.NewAnalyzer(analyzerOptions(gen)) },
		func(a *core.Analyzer, r *logfmt.Record) { a.Observe(r) },
		func(dst, src *core.Analyzer) { dst.Merge(src) },
	)
	if err != nil {
		t.Fatal(err)
	}
	return an, stats
}

// The corpus must survive a full disk round trip: serializing all records
// and re-analyzing them in parallel yields the same results as analyzing
// the live stream.
func TestFileRoundTripMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	gen, ref, paths := buildCorpusFiles(t, dir, 77, 60000)
	got, _ := analyzeFiles(t, gen, paths, 4)

	if got.Dataset(core.DFull) != ref.Dataset(core.DFull) {
		t.Errorf("Dfull differs:\n got %+v\nwant %+v",
			got.Dataset(core.DFull), ref.Dataset(core.DFull))
	}
	ga, gc := got.TopDomains(10)
	wa, wc := ref.TopDomains(10)
	for i := range wa {
		if ga[i] != wa[i] {
			t.Errorf("allowed[%d]: %+v != %+v", i, ga[i], wa[i])
		}
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Errorf("censored[%d]: %+v != %+v", i, gc[i], wc[i])
		}
	}
	if got.TorAnalysis() != ref.TorAnalysis() {
		t.Error("Tor reports differ after round trip")
	}
	gd := got.DiscoverFilters(0)
	rd := ref.DiscoverFilters(0)
	if len(gd.Keywords) != len(rd.Keywords) {
		t.Fatalf("keyword sets differ: %v vs %v", gd.Keywords, rd.Keywords)
	}
	for i := range rd.Keywords {
		if gd.Keywords[i].Keyword != rd.Keywords[i].Keyword {
			t.Errorf("keyword[%d]: %q != %q", i, gd.Keywords[i].Keyword, rd.Keywords[i].Keyword)
		}
	}
}

// Failure injection: corrupting lines in one proxy file must not break the
// analysis — the readers skip malformed lines and everything else is
// still counted.
func TestCorruptedCorpusIsTolerated(t *testing.T) {
	dir := t.TempDir()
	gen, ref, paths := buildCorpusFiles(t, dir, 78, 40000)

	// Vandalize one file: truncate its final line and inject garbage.
	data, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-40] // truncate mid-record
	data = append(data, []byte("\ngarbage,line,here\nnot,a,record\n")...)
	if err := os.WriteFile(paths[2], data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, _ := analyzeFiles(t, gen, paths, 2)
	gotTotal := got.Dataset(core.DFull).Total
	refTotal := ref.Dataset(core.DFull).Total
	if gotTotal == 0 || gotTotal >= refTotal {
		t.Fatalf("corrupted corpus total %d vs reference %d", gotTotal, refTotal)
	}
	if refTotal-gotTotal > 3 {
		t.Errorf("lost %d records to a 1-line corruption", refTotal-gotTotal)
	}
}

// The acceptance criterion for the ingest path: block-parallel ingest of
// the on-disk corpus (raw byte blocks parsed on the worker pool) must
// produce identical tables and figures to observing the same records in
// memory, for every experiment id. Run under -race in CI, this also
// proves the concurrent parse workers are race-free.
func TestBlockIngestMatchesInMemoryObserve(t *testing.T) {
	dir := t.TempDir()
	gen, ref, paths := buildCorpusFiles(t, dir, 91, 60000)
	blocks, stats := analyzeFiles(t, gen, paths, 8)
	if stats.Malformed != 0 {
		t.Fatalf("clean corpus reported %d malformed lines", stats.Malformed)
	}
	if stats.Records == 0 || stats.Lines <= stats.Records {
		t.Fatalf("implausible stats: %+v", stats)
	}
	for _, id := range render.Order() {
		want, err := render.Render(id, render.Context{An: ref, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		got, err := render.Render(id, render.Context{An: blocks, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Errorf("%s: block ingest differs from in-memory Observe\n got: %.300s\nwant: %.300s", id, gb, wb)
		}
	}
}

// Determinism across the whole stack: two independent builds of the same
// seed produce byte-identical corpora on disk.
func TestEndToEndDeterminism(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, _, pathsA := buildCorpusFiles(t, dirA, 123, 30000)
	_, _, pathsB := buildCorpusFiles(t, dirB, 123, 30000)
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("file %s differs between same-seed builds", filepath.Base(pathsA[i]))
		}
	}
}

// The state-codec invariant at the engine/render layer: an analyzer
// serialized to disk (the `censorlyzer -save-state` format) and read
// back renders byte-identical documents for every experiment id.
func TestEngineStateFileRoundTripRendersIdentically(t *testing.T) {
	dir := t.TempDir()
	gen, _, paths := buildCorpusFiles(t, dir, 55, 60000)
	opt := core.Options{
		Categories: gen.CategoryDB(), Consensus: gen.Consensus(),
		TitleDB: bittorrent.NewTitleDB(),
	}
	an, _, err := pipeline.RunFilesBlocks(paths, 4,
		func() *core.Analyzer { return core.NewAnalyzer(opt) },
		func(a *core.Analyzer, r *logfmt.Record) { a.Observe(r) },
		func(dst, src *core.Analyzer) { dst.Merge(src) },
	)
	if err != nil {
		t.Fatal(err)
	}

	statePath := filepath.Join(dir, "state.bin")
	f, err := os.Create(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.WriteState(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	restored := core.NewAnalyzer(opt)
	rf, err := os.Open(statePath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if err := restored.ReadState(rf); err != nil {
		t.Fatal(err)
	}

	for _, id := range render.Order() {
		want, err := render.Render(id, render.Context{An: an, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		got, err := render.Render(id, render.Context{An: restored, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Errorf("%s: restored analyzer renders differently\n got: %.300s\nwant: %.300s", id, gb, wb)
		}
	}
}
