package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"syriafilter/internal/logfmt"
)

// blockFilesRun is RunFilesBlocks over the countAcc fixture.
func blockFilesRun(t *testing.T, paths []string, workers int) (*countAcc, BlockStats, error) {
	t.Helper()
	return RunFilesBlocks(paths, workers, newCountAcc, observeCount, mergeCount)
}

// A multi-file corpus folds to the in-memory reference over the records
// written, for every worker count, and the stats account for every line
// and byte on disk.
func TestRunFilesBlocksMatchesInMemoryFold(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(20000)
	var paths []string
	var parts [][]logfmt.Record
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, "part-"+string(rune('a'+i))+".csv")
		part := recs[i*5000 : (i+2)*5000]
		writeLogFile(t, path, part, false)
		paths = append(paths, path)
		parts = append(parts, part)
	}

	want := observeAll(parts...)
	for _, workers := range []int{1, 2, 8} {
		got, stats, err := blockFilesRun(t, paths, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCounts(t, fmt.Sprintf("workers=%d", workers), got, want)
		if stats.Records != want.total {
			t.Fatalf("stats.Records = %d, want %d", stats.Records, want.total)
		}
		if stats.Malformed != 0 {
			t.Fatalf("stats.Malformed = %d on a clean corpus", stats.Malformed)
		}
		// 3 files x (header + 10000 records).
		if wantLines := uint64(3 * 10001); stats.Lines != wantLines {
			t.Fatalf("stats.Lines = %d, want %d", stats.Lines, wantLines)
		}
		var wantBytes uint64
		for _, path := range paths {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes += uint64(info.Size())
		}
		if stats.Bytes != wantBytes {
			t.Fatalf("workers=%d: stats.Bytes = %d, want the %d on-disk bytes", workers, stats.Bytes, wantBytes)
		}
	}
}

// Gzip sources report decompressed bytes, which is what MB/s throughput
// numbers should divide by.
func TestBlockStatsBytesGzip(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(2000)
	plain := filepath.Join(dir, "plain.csv")
	writeLogFile(t, plain, recs, false)
	gz := filepath.Join(dir, "zipped.csv.gz")
	writeLogFile(t, gz, recs, true)

	_, plainStats, err := blockFilesRun(t, []string{plain}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, gzStats, err := blockFilesRun(t, []string{gz}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plainStats.Bytes == 0 || gzStats.Bytes != plainStats.Bytes {
		t.Fatalf("gzip source counted %d bytes, want the %d decompressed bytes", gzStats.Bytes, plainStats.Bytes)
	}
}

// A .gz file with garbage content among good files fails the whole run
// loudly, naming the file, instead of scanning as empty.
func TestRunFilesBlocksGzipTransparent(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.csv")
	writeLogFile(t, plain, makeRecords(3000), false)
	bad := filepath.Join(dir, "bad.csv.gz")
	if err := os.WriteFile(bad, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blockFilesRun(t, []string{plain, bad}, 2); err == nil {
		t.Fatal("malformed gzip accepted")
	} else if !strings.Contains(err.Error(), "bad.csv.gz") {
		t.Fatalf("error %q does not name the bad file", err)
	}
}

// Malformed lines are counted and skipped by default, and the damage
// stays proportional (the vandalized lines only).
func TestRunFilesBlocksMalformedCounting(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(5000)
	path := filepath.Join(dir, "corpus.csv")
	writeLogFile(t, path, recs, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("garbage,line\nanother bad one\n")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats, err := blockFilesRun(t, []string{path}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.total != uint64(len(recs)) {
		t.Fatalf("total = %d, want %d", got.total, len(recs))
	}
	if stats.Malformed != 2 {
		t.Fatalf("Malformed = %d, want 2", stats.Malformed)
	}
}

// An empty source list degenerates cleanly.
func TestRunBlockSourcesEmpty(t *testing.T) {
	acc, stats, err := runSources(nil, 4)
	if err != nil || acc.total != 0 || stats != (BlockStats{}) {
		t.Fatalf("empty run: acc=%+v stats=%+v err=%v", acc, stats, err)
	}
}

// A missing file is an error before any work starts.
func TestRunFilesBlocksMissingFile(t *testing.T) {
	if _, _, err := blockFilesRun(t, []string{"/does/not/exist.csv"}, 2); err == nil {
		t.Fatal("missing file accepted")
	}
}
