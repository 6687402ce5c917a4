package logfmt

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// testRecord builds a valid record with host variation i.
func testRecord(i int) Record {
	return Record{
		Time:      time.Date(2011, 8, 3, 14, 5, 59, 0, time.UTC).Unix() + int64(i),
		TimeTaken: 10,
		ClientIP:  "10.1.2.3",
		Status:    200,
		SAction:   "TCP_NC_MISS",
		ScBytes:   1000,
		CsBytes:   300,
		Method:    "GET",
		Scheme:    "http",
		Host:      "host-" + string(rune('a'+i%26)) + ".example.com",
		Port:      80,
		Path:      "/path/" + strings.Repeat("x", i%7),
		UserAgent: "Mozilla/5.0",
		ProxyIP:   ProxyBase + "42",
		Filter:    Observed,
	}
}

// corpusLines renders n records as CSV, with a header comment first.
func corpusLines(t testing.TB, n int) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// scanAll drains input through the line Reader, returning records and
// counters — the reference semantics the block layer must reproduce.
func scanAll(t testing.TB, input string, strict bool) (recs []Record, lines, malformed int, err error) {
	t.Helper()
	r := NewReader(strings.NewReader(input))
	r.SetStrict(strict)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, *rec)
	}
	return recs, r.Lines(), r.Malformed(), r.Err()
}

// blockAll drains input through BlockReader+ParseBlock at the given block
// size, serially (block order preserved).
func blockAll(t testing.TB, input string, size int, strict bool) (recs []Record, lines, malformed int, err error) {
	t.Helper()
	br := NewBlockReaderSize(strings.NewReader(input), size)
	for {
		blk, ok := br.Next()
		if !ok {
			break
		}
		res, perr := ParseBlock(blk, strict, func(rec *Record) {
			recs = append(recs, *rec)
		})
		blk.Release()
		lines += res.Lines
		malformed += res.Malformed
		if perr != nil {
			return recs, lines, malformed, perr
		}
	}
	return recs, lines, malformed, br.Err()
}

// Every block size — including tiny ones that split single records across
// many blocks — must reproduce the line Reader exactly: same records,
// same line count, same malformed count.
func TestBlockReaderMatchesLineReaderAcrossSizes(t *testing.T) {
	input := corpusLines(t, 200)
	want, wantLines, wantMal, werr := scanAll(t, input, false)
	if werr != nil {
		t.Fatal(werr)
	}
	for _, size := range []int{1, 7, 64, 300, 4096, 1 << 20} {
		got, lines, mal, err := blockAll(t, input, size, false)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if lines != wantLines || mal != wantMal {
			t.Fatalf("size %d: lines/malformed = %d/%d, want %d/%d", size, lines, mal, wantLines, wantMal)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: record %d differs:\n got %+v\nwant %+v", size, i, got[i], want[i])
			}
		}
	}
}

// A final line with no trailing newline is still a record.
func TestBlockReaderFinalLineWithoutNewline(t *testing.T) {
	input := strings.TrimSuffix(corpusLines(t, 3), "\n")
	for _, size := range []int{5, 1 << 16} {
		got, lines, _, err := blockAll(t, input, size, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("size %d: %d records, want 3", size, len(got))
		}
		if lines != 4 { // header + 3 records
			t.Fatalf("size %d: %d lines, want 4", size, lines)
		}
	}
}

// Comment and blank lines must be skipped wherever a block boundary
// lands, including when a block starts exactly on them, and they still
// advance the physical line count.
func TestBlockReaderCommentsAndBlanksAtBoundaries(t *testing.T) {
	rec := testRecord(1)
	var sb strings.Builder
	w := NewWriter(&sb)
	_ = w.Write(&rec)
	_ = w.Flush()
	line := sb.String()
	input := "#comment A\n\n" + line + "#comment B\n\r\n" + line + "\n#tail"
	want, wantLines, wantMal, _ := scanAll(t, input, false)
	for size := 1; size < len(input)+2; size++ {
		got, lines, mal, err := blockAll(t, input, size, false)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got) != len(want) || lines != wantLines || mal != wantMal {
			t.Fatalf("size %d: records/lines/malformed = %d/%d/%d, want %d/%d/%d",
				size, len(got), lines, mal, len(want), wantLines, wantMal)
		}
	}
}

// Strict mode must attribute the failure to the same physical line number
// as the line Reader, no matter where block boundaries fall.
func TestBlockReaderStrictLineNumbersMatchLineReader(t *testing.T) {
	good := corpusLines(t, 10)
	// Corrupt line 7 (header is line 1, records start at line 2).
	rows := strings.SplitAfter(good, "\n")
	rows[6] = "this,is,not,a,record\n"
	input := strings.Join(rows, "")

	_, _, _, werr := scanAll(t, input, true)
	if werr == nil {
		t.Fatal("line Reader accepted corrupt corpus")
	}
	for _, size := range []int{3, 32, 512, 1 << 20} {
		_, _, _, err := blockAll(t, input, size, true)
		if err == nil {
			t.Fatalf("size %d: block path accepted corrupt corpus", size)
		}
		if err.Error() != werr.Error() {
			t.Fatalf("size %d: error %q, want %q (line Reader parity)", size, err, werr)
		}
	}
}

// Blocks are line-aligned: every block ends in a newline except the last
// of the stream, and FirstLine advances consistently.
func TestBlockReaderAlignmentAndFirstLine(t *testing.T) {
	input := corpusLines(t, 50)
	br := NewBlockReaderSize(strings.NewReader(input), 257)
	nextLine := 1
	var blocks int
	for {
		blk, ok := br.Next()
		if !ok {
			break
		}
		blocks++
		if blk.FirstLine != nextLine {
			t.Fatalf("block %d: FirstLine %d, want %d", blocks, blk.FirstLine, nextLine)
		}
		if blk.Data[len(blk.Data)-1] != '\n' {
			t.Fatalf("block %d is not line-aligned (input ends in a newline)", blocks)
		}
		res, err := ParseBlock(blk, true, func(*Record) {})
		if err != nil {
			t.Fatal(err)
		}
		nextLine += res.Lines
	}
	if blocks < 10 {
		t.Fatalf("only %d blocks for a %d-byte input at size 257", blocks, len(input))
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
}

// A single line longer than MaxLineLen is a terminal error carrying its
// line number, not an unbounded buffer growth.
func TestBlockReaderLineTooLong(t *testing.T) {
	input := "short line\n" + strings.Repeat("y", MaxLineLen+10)
	br := NewBlockReaderSize(strings.NewReader(input), 64)
	for {
		blk, ok := br.Next()
		if !ok {
			break
		}
		blk.Release()
	}
	if err := br.Err(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err %q does not name line 2", err)
	}
}

// Empty input yields no blocks and a clean end of stream.
func TestBlockReaderEmptyInput(t *testing.T) {
	br := NewBlockReader(strings.NewReader(""))
	if _, ok := br.Next(); ok {
		t.Fatal("got a block from empty input")
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
}

// An I/O error mid-stream surfaces through Err after the clean prefix is
// delivered, and the partial trailing line of the dead stream is not
// handed out as data.
func TestBlockReaderPropagatesReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	input := corpusLines(t, 5)
	r := io.MultiReader(strings.NewReader(input), errReader{boom})
	br := NewBlockReader(r)
	var recs int
	for {
		blk, ok := br.Next()
		if !ok {
			break
		}
		res, err := ParseBlock(blk, false, func(*Record) {})
		blk.Release()
		if err != nil {
			t.Fatal(err)
		}
		recs += res.Records
	}
	if !errors.Is(br.Err(), boom) {
		t.Fatalf("Err() = %v, want wrapped %v", br.Err(), boom)
	}
	if recs != 5 {
		t.Fatalf("delivered %d records before the error, want 5", recs)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
