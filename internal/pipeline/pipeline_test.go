package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"syriafilter/internal/logfmt"
)

func makeRecords(n int) []logfmt.Record {
	recs := make([]logfmt.Record, n)
	base := time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	for i := range recs {
		recs[i] = logfmt.Record{
			Time:   base + int64(i),
			Host:   "host-" + string(rune('a'+i%7)) + ".example",
			Status: 200,
		}
		if i%13 == 0 {
			recs[i].Exception = logfmt.ExPolicyDenied
		}
	}
	return recs
}

type countAcc struct {
	total    uint64
	censored uint64
	hosts    map[string]uint64
}

func newCountAcc() *countAcc { return &countAcc{hosts: map[string]uint64{}} }

func observeCount(a *countAcc, r *logfmt.Record) {
	a.total++
	if r.Class() == logfmt.ClassCensored {
		a.censored++
	}
	a.hosts[r.Host]++
}

func mergeCount(dst, src *countAcc) {
	dst.total += src.total
	dst.censored += src.censored
	for k, v := range src.hosts {
		dst.hosts[k] += v
	}
}

// observeAll is the in-memory reference every block run is compared
// against: the records folded directly, no bytes and no pool in between.
func observeAll(parts ...[]logfmt.Record) *countAcc {
	acc := newCountAcc()
	for _, recs := range parts {
		for i := range recs {
			observeCount(acc, &recs[i])
		}
	}
	return acc
}

func requireSameCounts(t *testing.T, label string, got, want *countAcc) {
	t.Helper()
	if got.total != want.total || got.censored != want.censored {
		t.Fatalf("%s: totals %d/%d, want %d/%d", label, got.total, got.censored, want.total, want.censored)
	}
	if len(got.hosts) != len(want.hosts) {
		t.Fatalf("%s: %d hosts, want %d", label, len(got.hosts), len(want.hosts))
	}
	for k, v := range want.hosts {
		if got.hosts[k] != v {
			t.Fatalf("%s: host %s = %d, want %d", label, k, got.hosts[k], v)
		}
	}
}

// encodeRecords renders recs as headerless CSV: the bytes a source reads.
func encodeRecords(t *testing.T, recs []logfmt.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := logfmt.NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memSource is a block source over r. The 4 KiB block size cuts even a
// small corpus into many blocks, so a worker pool has work to interleave.
func memSource(r io.Reader) *BlockSource {
	return &BlockSource{R: logfmt.NewBlockReaderSize(r, 4096)}
}

func runSources(srcs []*BlockSource, workers int) (*countAcc, BlockStats, error) {
	return RunBlockSources(srcs, workers, nil, newCountAcc, observeCount, mergeCount)
}

func splitRecords(recs []logfmt.Record, parts int) [][]logfmt.Record {
	out := make([][]logfmt.Record, 0, parts)
	per := (len(recs) + parts - 1) / parts
	for i := 0; i < len(recs); i += per {
		out = append(out, recs[i:min(i+per, len(recs))])
	}
	return out
}

// One source folds to the in-memory reference on every pool size.
func TestRunOneSourceEveryPoolSize(t *testing.T) {
	recs := makeRecords(10000)
	data := encodeRecords(t, recs)
	want := observeAll(recs)
	for _, workers := range []int{1, 2, 4, 8} {
		got, stats, err := runSources([]*BlockSource{memSource(bytes.NewReader(data))}, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCounts(t, fmt.Sprintf("workers=%d", workers), got, want)
		if stats.Records != want.total || stats.Bytes != uint64(len(data)) {
			t.Fatalf("workers=%d: stats %+v, want %d records over %d bytes", workers, stats, want.total, len(data))
		}
	}
}

func TestRunEmptySource(t *testing.T) {
	acc, _, err := runSources([]*BlockSource{memSource(strings.NewReader(""))}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc.total != 0 {
		t.Errorf("total = %d", acc.total)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	data := encodeRecords(t, makeRecords(100))
	acc, _, err := runSources([]*BlockSource{memSource(bytes.NewReader(data))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc.total != 100 {
		t.Errorf("total = %d", acc.total)
	}
}

// Any io.Reader is a source, at the default block size.
func TestRunWithReaderSource(t *testing.T) {
	data := encodeRecords(t, makeRecords(500))
	src := &BlockSource{R: logfmt.NewBlockReader(strings.NewReader(string(data)))}
	acc, _, err := runSources([]*BlockSource{src}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc.total != 500 {
		t.Errorf("total = %d", acc.total)
	}
}

// Per-source fan-out — the corpus split over 1, 3 or 7 sources read
// concurrently — folds to the same result as one source and one worker.
func TestRunManySourcesMatchesOne(t *testing.T) {
	recs := makeRecords(20000)
	want, _, err := runSources([]*BlockSource{memSource(bytes.NewReader(encodeRecords(t, recs)))}, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCounts(t, "one source", want, observeAll(recs))
	for _, workers := range []int{1, 2, 8} {
		for _, parts := range []int{1, 3, 7} {
			var srcs []*BlockSource
			for _, part := range splitRecords(recs, parts) {
				srcs = append(srcs, memSource(bytes.NewReader(encodeRecords(t, part))))
			}
			got, _, err := runSources(srcs, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCounts(t, fmt.Sprintf("workers=%d parts=%d", workers, parts), got, want)
		}
	}
}

// Several sources with nothing in them: the pool starts, finds no block
// and merges empty accumulators.
func TestRunManyEmptySources(t *testing.T) {
	srcs := []*BlockSource{memSource(strings.NewReader("")), memSource(strings.NewReader(""))}
	acc, stats, err := runSources(srcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc.total != 0 || stats != (BlockStats{}) {
		t.Errorf("acc=%+v stats=%+v", acc, stats)
	}
}

// A failing source does not stop the healthy ones, and when several fail
// the error returned is the first one's in srcs order, path-wrapped.
func TestRunFirstSourceErrorWins(t *testing.T) {
	boom, later := errors.New("boom"), errors.New("later")
	srcs := []*BlockSource{
		memSource(bytes.NewReader(encodeRecords(t, makeRecords(2000)))),
		{R: logfmt.NewBlockReader(iotest.ErrReader(boom)), Path: "second.csv"},
		memSource(bytes.NewReader(encodeRecords(t, makeRecords(1000)))),
		{R: logfmt.NewBlockReader(iotest.ErrReader(later)), Path: "fourth.csv"},
	}
	acc, _, err := runSources(srcs, 2)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "second.csv") {
		t.Fatalf("err = %v, want boom from second.csv", err)
	}
	if acc.total != 3000 {
		t.Errorf("total = %d, want the 3000 records of the healthy sources", acc.total)
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(3000)
	var paths []string
	for i, part := range splitRecords(recs, 3) {
		path := filepath.Join(dir, fmt.Sprintf("part-%d.csv", i))
		writeLogFile(t, path, part, false)
		paths = append(paths, path)
	}
	acc, _, err := blockFilesRun(t, paths, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCounts(t, "three files", acc, observeAll(recs))
}

// The strictly ordered scan: one source chaining the files (one of them
// gzipped) through io.MultiReader, one worker. Its reader hands the
// 512-byte blocks to the pool's one worker in stream order, so records
// are observed in file order, then line order, across many blocks — what
// capped order-sensitive accumulators need.
func TestRunBlockSourcesOrderedScan(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(150)
	first, second := recs[100:], recs[:100] // file order differs from time order
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv.gz")
	writeLogFile(t, a, first, false)
	writeLogFile(t, b, second, true)

	var readers []io.Reader
	for _, path := range []string{a, b} {
		r, closer, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		readers = append(readers, r)
	}
	src := &BlockSource{R: logfmt.NewBlockReaderSize(io.MultiReader(readers...), 512)}
	blocks := 0 // obs runs on the one worker
	got, _, err := RunBlockSources([]*BlockSource{src}, 1, func(BlockStats) { blocks++ },
		func() *[]int64 { return new([]int64) },
		func(seen *[]int64, r *logfmt.Record) { *seen = append(*seen, r.Time) },
		func(dst, src *[]int64) { t.Error("one worker has nothing to merge") },
	)
	if err != nil {
		t.Fatal(err)
	}
	if blocks < 20 {
		t.Fatalf("%d blocks: too few for the order to mean anything", blocks)
	}
	var want []int64
	for _, r := range append(append([]logfmt.Record{}, first...), second...) {
		want = append(want, r.Time)
	}
	if fmt.Sprint(*got) != fmt.Sprint(want) {
		t.Errorf("records observed out of file order:\n got %v\nwant %v", *got, want)
	}
}
