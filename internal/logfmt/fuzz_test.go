package logfmt

import (
	"strings"
	"testing"
)

// validSeedLine is a well-formed 26-field line (the format Writer emits).
const validSeedLine = "2011-08-03,14:05:59,10,10.1.2.3,-,-,200,TCP_NC_MISS,1000,300," +
	"GET,http,host-a.example.com,80,/path,-,-,Mozilla/5.0,82.137.200.42," +
	"OBSERVED,-,-,-,-,-,-"

// FuzzParseLine throws arbitrary lines at the parser: it must never
// panic, and any line it accepts must survive a Writer round trip — the
// re-serialized line parses back to an identical Record. This pins down
// the quoted-field escaping (splitCSVQuoted) against the Writer's
// quoting rules.
func FuzzParseLine(f *testing.F) {
	f.Add(validSeedLine)
	// Quoted-field edge cases: embedded commas, escaped quotes, quoted
	// empty and dash fields, quote at end of line.
	f.Add(strings.Replace(validSeedLine, "host-a.example.com", `"host,comma.example.com"`, 1))
	f.Add(strings.Replace(validSeedLine, "/path", `"/pa""th"`, 1))
	f.Add(strings.Replace(validSeedLine, "Mozilla/5.0", `""`, 1))
	f.Add(strings.Replace(validSeedLine, "Mozilla/5.0", `"-"`, 1))
	f.Add(`a,"b`)
	f.Add(`"unterminated`)
	f.Add(`"x"garbage,after,quote`)
	f.Add(`""""`)
	f.Add(strings.Repeat(",", NumFields-1))
	f.Add(strings.Repeat(",", NumFields+5))
	f.Add("2011-13-99,25:61:61,x," + strings.Repeat("-,", 22) + "-")

	f.Fuzz(func(t *testing.T, line string) {
		var rec Record
		if err := ParseLine(line, &rec); err != nil {
			return // rejected is fine; not panicking is the property
		}
		var sb strings.Builder
		w := NewWriter(&sb)
		if err := w.Write(&rec); err != nil {
			t.Fatalf("Write failed on accepted record: %v\nline: %q", err, line)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out := strings.TrimSuffix(sb.String(), "\n")
		if strings.ContainsRune(out, '\n') {
			// A quoted field carries an embedded newline: representable
			// as a Record but not as one physical log line, so the
			// line-oriented round trip does not apply.
			return
		}
		var rec2 Record
		if err := ParseLine(out, &rec2); err != nil {
			t.Fatalf("round trip failed: %v\noriginal: %q\nrewritten: %q", err, line, out)
		}
		if rec2 != rec {
			t.Fatalf("round trip changed the record:\noriginal line: %q\nrewritten:     %q\n got %+v\nwant %+v",
				line, out, rec2, rec)
		}
	})
}

// FuzzBlockVsReader is a differential fuzz: for any byte stream, the
// block layer (BlockReader + ParseBlock, at an awkward block size that
// forces mid-record boundaries) must produce exactly the records, line
// count and malformed count of the serial line Reader.
func FuzzBlockVsReader(f *testing.F) {
	f.Add("", 16)
	f.Add(validSeedLine+"\n"+validSeedLine, 7)
	f.Add("#comment\n\n"+validSeedLine+"\n", 3)
	f.Add("garbage\n"+validSeedLine+"\r\n#x", 11)
	f.Add(strings.Repeat(validSeedLine+"\n", 8), 64)

	f.Fuzz(func(t *testing.T, input string, size int) {
		if size < 1 || size > 1<<16 {
			size = 1 + (size&0x7fff+1<<15)%(1<<15) // clamp into [1, 32769)
		}
		if len(input) > 1<<16 {
			return // keep single-line growth below MaxLineLen
		}
		want, wantLines, wantMal, werr := scanAll(t, input, false)
		if werr != nil {
			t.Fatal(werr) // non-strict reader only fails on I/O errors
		}
		got, lines, mal, err := blockAll(t, input, size, false)
		if err != nil {
			t.Fatalf("block path failed where the line Reader succeeded: %v", err)
		}
		if lines != wantLines || mal != wantMal || len(got) != len(want) {
			t.Fatalf("records/lines/malformed = %d/%d/%d, want %d/%d/%d (size %d)",
				len(got), lines, mal, len(want), wantLines, wantMal, size)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d differs (size %d):\n got %+v\nwant %+v", i, size, got[i], want[i])
			}
		}
	})
}

// FuzzParseBytesVsParseLine is the byte-parser's differential oracle:
// for any line, a shared Parser (with its intern cache warm from prior
// inputs) and the string-based ParseLine must agree on accept/reject and
// on every field of the accepted record. This is what licenses the block
// ingest path to use ParseBytes as a drop-in for ParseLine.
func FuzzParseBytesVsParseLine(f *testing.F) {
	f.Add(validSeedLine)
	f.Add(strings.Replace(validSeedLine, "host-a.example.com", `"host,comma.example.com"`, 1))
	f.Add(strings.Replace(validSeedLine, "/path", `"/pa""th"`, 1))
	f.Add(strings.Replace(validSeedLine, "Mozilla/5.0", `""`, 1))
	f.Add(strings.Replace(validSeedLine, "2011-08-03", "2011-02-29", 1))
	f.Add(strings.Replace(validSeedLine, "82.137.200.42", "256.1.1.1", 1))
	f.Add(strings.Replace(validSeedLine, "80", "99999", 1))
	f.Add(`a,"b`)
	f.Add(`"unterminated`)
	f.Add(strings.Repeat(",", NumFields-1))
	f.Add(strings.Repeat(",", NumFields+5))
	f.Add("2011-13-99,25:61:61,x," + strings.Repeat("-,", 22) + "-")

	p := NewParser() // shared across inputs: the intern cache must never leak one line's bytes into another's record
	f.Fuzz(func(t *testing.T, line string) {
		var want Record
		werr := ParseLine(line, &want)
		var got Record
		gerr := p.ParseBytes([]byte(line), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept/reject mismatch: ParseLine err=%v, ParseBytes err=%v\nline: %q", werr, gerr, line)
		}
		if werr != nil {
			return
		}
		if got != want {
			t.Fatalf("records differ:\nline: %q\n got %+v\nwant %+v", line, got, want)
		}
	})
}
