package logfmt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// diffLines is a grab-bag of well-formed and malformed inputs exercised
// by the ParseLine/ParseBytes differential tests: quoted fields, CR
// handling is covered at the block layer, malformed numerics, bad
// enums, wrong field counts, boundary dates.
var diffLines = []string{
	validSeedLine,
	// Quoted fields with escaped quotes and embedded commas.
	`2011-08-03,14:05:59,10,10.1.2.3,-,-,200,TCP_NC_MISS,1000,300,GET,http,"host,with,commas",80,"/a""b",q=1,html,"Mozilla, like Gecko",82.137.200.42,OBSERVED,none,-,DIRECT,sup,text/html,-`,
	// All-dash optional fields.
	"2011-08-03,00:00:00,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,OBSERVED,-,-,-,-,-,-",
	// Leap-second and day-overflow normalization.
	"2011-06-30,23:59:60,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	"2011-02-31,01:02:03,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	// Malformed: bad month, bad clock, bad numerics, huge number.
	"2011-13-03,14:05:59,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	"2011-08-03,25:05:59,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	"2011-08-03,14:05:59,12x,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	"2011-08-03,14:05:59,1,1.2.3.4,-,-,9999,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	"2011-08-03,14:05:59,1,1.2.3.4,-,-,200,A,99999999999,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-",
	// Malformed: unknown enums.
	"2011-08-03,14:05:59,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,MAYBE,none,-,D,s,t,-",
	"2011-08-03,14:05:59,1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,weird_exc,D,s,t,-",
	// Wrong field counts.
	"a,b,c",
	validSeedLine + ",extra",
	validSeedLine + ",x,y,z,w,v,u,t,s",
	// Quoted-field errors.
	`"unterminated`,
	`"closed"junk,b`,
	"",
	"plain",
}

// TestParseBytesMatchesParseLine is the deterministic core of the
// differential fuzz target: both parsers must agree on Record output
// and error text for every seed input.
func TestParseBytesMatchesParseLine(t *testing.T) {
	p := NewParser()
	for _, line := range diffLines {
		var a, b Record
		errA := ParseLine(line, &a)
		errB := p.ParseBytes([]byte(line), &b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: ParseLine err %v, ParseBytes err %v", line, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Errorf("%q: error text diverges:\n line:  %v\n bytes: %v", line, errA, errB)
			}
			continue
		}
		if a != b {
			t.Errorf("%q: records diverge:\n line:  %+v\n bytes: %+v", line, a, b)
		}
	}
}

// TestParseBytesNoAliasing pins the lifetime contract: Record fields
// must survive the input buffer being clobbered (block buffers are
// pooled and reused).
func TestParseBytesNoAliasing(t *testing.T) {
	p := NewParser()
	buf := []byte(validSeedLine)
	var rec Record
	if err := p.ParseBytes(buf, &rec); err != nil {
		t.Fatal(err)
	}
	want := rec
	for i := range buf {
		buf[i] = 'X'
	}
	if rec != want || rec.Host == strings.Repeat("X", len(rec.Host)) {
		t.Fatalf("record fields alias the input buffer: %+v", rec)
	}
	host, path := rec.Host, rec.Path
	if err := p.ParseBytes([]byte(validSeedLine), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host != host || rec.Path != path {
		t.Fatalf("reparse changed fields: %q %q vs %q %q", rec.Host, rec.Path, host, path)
	}
}

// TestParseBytesDateCache sweeps dates (including day overflow handled
// by time.Date normalization) to verify the one-entry date cache and
// the arithmetic clock path agree with ParseLine's time.Date result.
func TestParseBytesDateCache(t *testing.T) {
	p := NewParser()
	var rec, ref Record
	for year := 1999; year <= 2013; year++ {
		for _, md := range [][2]int{{1, 1}, {2, 28}, {2, 29}, {2, 31}, {3, 1}, {6, 30}, {12, 31}} {
			for _, clk := range []string{"00:00:00", "12:34:56", "23:59:59", "23:59:60"} {
				date := fmt.Sprintf("%04d-%02d-%02d", year, md[0], md[1])
				line := date + "," + clk + ",1,1.2.3.4,-,-,200,A,1,1,GET,http,h,80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-"
				if err := ParseLine(line, &ref); err != nil {
					t.Fatal(err)
				}
				// Parse twice: once on a cold cache, once warm.
				for i := 0; i < 2; i++ {
					if err := p.ParseBytes([]byte(line), &rec); err != nil {
						t.Fatal(err)
					}
					if rec.Time != ref.Time {
						t.Fatalf("%s %s (pass %d): got %d (%s), want %d (%s)", date, clk, i,
							rec.Time, time.Unix(rec.Time, 0).UTC(), ref.Time, time.Unix(ref.Time, 0).UTC())
					}
				}
			}
		}
	}
}

// TestParseBytesInternCaps floods the parser with distinct values and
// checks the interning table stays bounded.
func TestParseBytesInternCaps(t *testing.T) {
	p := NewParser()
	var rec Record
	for i := 0; i < maxInternEntries/16; i++ {
		host := fmt.Sprintf("h%08d.%060d.example.com", i, i)
		line := "2011-08-03,14:05:59,1,1.2.3.4,-,-,200,A,1,1,GET,http," + host + ",80,/,-,-,ua,82.137.200.42,OBSERVED,none,-,D,s,t,-"
		if err := p.ParseBytes([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Host != host {
			t.Fatalf("host %q != %q", rec.Host, host)
		}
	}
	if p.internBytes > maxInternBytes {
		t.Fatalf("intern table grew past byte cap: %d > %d", p.internBytes, maxInternBytes)
	}
	if len(p.intern) > maxInternEntries {
		t.Fatalf("intern table grew past entry cap: %d", len(p.intern))
	}
}

// TestParseBytesAllocs is the allocation regression guard for the hot
// path: at most one allocation per record (the per-record arena string)
// on warm steady state.
func TestParseBytesAllocs(t *testing.T) {
	p := NewParser()
	lines := [][]byte{
		[]byte(validSeedLine),
		[]byte("2011-08-03,14:06:01,4,10.9.8.7,-,-,200,TCP_HIT,512,128,GET,http,example.org,80,/media/a.png,-,png,Mozilla/5.0,82.137.200.43,PROXIED,none,-,DIRECT,origin,image/png,-"),
	}
	var rec Record
	for _, l := range lines { // warm the intern table
		if err := p.ParseBytes(l, &rec); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, l := range lines {
			if err := p.ParseBytes(l, &rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRec := avg / float64(len(lines)); perRec > 1 {
		t.Fatalf("ParseBytes allocates %.2f/record, want <= 1", perRec)
	}
}

// TestParseBlockReleaseSafety parses a block, releases and clobbers the
// buffer, and checks the retained records still read correctly — the
// contract the serve ingest path depends on.
func TestParseBlockReleaseSafety(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := make([]Record, 0, 64)
	for i := 0; i < 64; i++ {
		rec := sampleRecord()
		rec.Host = fmt.Sprintf("host-%02d.example.com", i)
		rec.Path = fmt.Sprintf("/p/%02d", i)
		rec.Time += int64(i)
		w.Write(&rec)
		want = append(want, rec)
	}
	w.Flush()
	data := getBlockBuf(buf.Len())[:buf.Len()]
	copy(data, buf.Bytes())
	blk := Block{Data: data, FirstLine: 1}
	var got []Record
	res, err := ParseBlock(blk, true, func(r *Record) { got = append(got, *r) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	blk.Release()
	if res.Records != len(want) {
		t.Fatalf("parsed %d records, want %d", res.Records, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d diverges after buffer clobber:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func BenchmarkParseBytes(b *testing.B) {
	p := NewParser()
	line := []byte(validSeedLine)
	var out Record
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if err := p.ParseBytes(line, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseBlockBytes(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	for i := 0; i < 4096; i++ {
		rec.Time++
		w.Write(&rec)
	}
	w.Flush()
	blk := Block{Data: buf.Bytes(), FirstLine: 1}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := ParseBlock(blk, true, func(*Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}
