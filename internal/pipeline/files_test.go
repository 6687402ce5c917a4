package pipeline

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"syriafilter/internal/logfmt"
)

// writeLogFile writes recs to path, gzip-compressed when gz is set.
func writeLogFile(t *testing.T, path string, recs []logfmt.Record, gz bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var w *logfmt.Writer
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		w = logfmt.NewWriter(zw)
	} else {
		w = logfmt.NewWriter(f)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Gzipped inputs decode transparently and match the plain-file run, for
// both the suffixed and the magic-sniffed (renamed) case.
func TestRunFilesGzipTransparent(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(2500)

	plain := filepath.Join(dir, "plain.csv")
	writeLogFile(t, plain, recs, false)
	gzPath := filepath.Join(dir, "compressed.csv.gz")
	writeLogFile(t, gzPath, recs, true)
	// Gzip content without the .gz suffix: detected by magic header.
	renamed := filepath.Join(dir, "renamed.csv")
	writeLogFile(t, renamed, recs, true)

	want, _, err := blockFilesRun(t, []string{plain}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{gzPath, renamed} {
		got, _, err := blockFilesRun(t, []string{path}, 2)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		requireSameCounts(t, path, got, want)
	}

	// Mixed plain+gz multi-file run sums both.
	both, _, err := blockFilesRun(t, []string{plain, gzPath}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if both.total != 2*want.total {
		t.Errorf("mixed run total = %d, want %d", both.total, 2*want.total)
	}
}

// A .gz file that is not gzip is an open error, not a silent empty
// source.
func TestOpenBlockFileMalformedGzipHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.csv.gz")
	if err := os.WriteFile(path, []byte("this is not gzip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBlockFile(path); err == nil {
		t.Fatal("malformed gzip header should fail at open")
	} else if !strings.Contains(err.Error(), "broken.csv.gz") {
		t.Errorf("error should name the file: %v", err)
	}
	if _, _, err := blockFilesRun(t, []string{path}, 2); err == nil {
		t.Error("a run over a malformed gzip should error")
	}
}

// A gzip stream truncated mid-body surfaces as a scan error naming the
// file, instead of silently dropping the tail.
func TestRunFilesTruncatedGzip(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv.gz")
	writeLogFile(t, full, makeRecords(5000), true)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.csv.gz")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = blockFilesRun(t, []string{trunc}, 2)
	if err == nil {
		t.Fatal("truncated gzip should error")
	}
	if !strings.Contains(err.Error(), "trunc.csv.gz") {
		t.Errorf("error should name the file: %v", err)
	}
}

// An unreadable file errors out of OpenBlockFiles and closes what was
// already opened.
func TestOpenBlockFilesUnreadable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	dir := t.TempDir()
	ok := filepath.Join(dir, "ok.csv")
	writeLogFile(t, ok, makeRecords(10), false)
	locked := filepath.Join(dir, "locked.csv")
	writeLogFile(t, locked, makeRecords(10), false)
	if err := os.Chmod(locked, 0o000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBlockFiles([]string{ok, locked}); err == nil {
		t.Error("unreadable file should error")
	}
}
