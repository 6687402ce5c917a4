package logfmt

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		Time:       time.Date(2011, 8, 3, 8, 15, 30, 0, time.UTC).Unix(),
		TimeTaken:  120,
		ClientIP:   "a1b2c3d4",
		Status:     403,
		SAction:    "TCP_DENIED",
		ScBytes:    729,
		CsBytes:    455,
		Method:     "GET",
		Scheme:     "http",
		Host:       "www.facebook.com",
		Port:       80,
		Path:       "/plugins/like.php",
		Query:      "href=example&proxy=1",
		Ext:        "php",
		UserAgent:  "Mozilla/5.0 (Windows NT 6.1)",
		Filter:     Denied,
		Categories: "unavailable",
		Exception:  ExPolicyDenied,
		Hierarchy:  "DIRECT",
		Supplier:   "www.facebook.com",
	}
}

func writeLine(t *testing.T, rec *Record) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

func TestRoundTrip(t *testing.T) {
	rec := sampleRecord()
	rec.SetProxy(44)
	line := writeLine(t, &rec)
	var got Record
	if err := ParseLine(line, &got); err != nil {
		t.Fatalf("ParseLine(%q): %v", line, err)
	}
	if got != rec {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestRoundTripQuotedFields(t *testing.T) {
	rec := sampleRecord()
	rec.UserAgent = `agent "weird", with comma`
	rec.Query = "a,b"
	line := writeLine(t, &rec)
	var got Record
	if err := ParseLine(line, &got); err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if got.UserAgent != rec.UserAgent || got.Query != rec.Query {
		t.Errorf("quoted fields: got %q %q", got.UserAgent, got.Query)
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(host, path, query, ua string, status uint16, tt uint32, fr uint8, ex uint8) bool {
		clean := func(s string) string {
			// The format cannot carry newlines or CR inside fields (line-
			// oriented); everything else must round-trip.
			s = strings.ReplaceAll(s, "\n", "")
			s = strings.ReplaceAll(s, "\r", "")
			if s == "-" {
				s = "" // "-" is the encoding of empty
			}
			return s
		}
		rec := sampleRecord()
		rec.Host = clean(host)
		rec.Path = clean(path)
		rec.Query = clean(query)
		rec.UserAgent = clean(ua)
		rec.Status = status % 1000
		rec.TimeTaken = tt
		rec.Filter = FilterResult(fr % 3)
		rec.Exception = ExceptionID(int(ex) % NumExceptions)
		line := writeLine(t, &rec)
		var got Record
		if err := ParseLine(line, &got); err != nil {
			t.Logf("parse error for %+v: %v", rec, err)
			return false
		}
		return got == rec
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseLineErrors(t *testing.T) {
	base := writeLine(t, &Record{Time: time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()})
	cases := []struct {
		name string
		line string
	}{
		{"too few fields", "a,b,c"},
		{"too many fields", base + ",extra"},
		{"bad date", strings.Replace(base, "2011-08-01", "2011-13-99", 1)},
		{"bad filter", strings.Replace(base, "OBSERVED", "MAYBE", 1)},
		{"bad exception", strings.Replace(base, "OBSERVED,-,-", "OBSERVED,-,weird_exc", 1)},
		{"unterminated quote", strings.Replace(base, "OBSERVED", `"OBSERVED`, 1)},
	}
	for _, tc := range cases {
		var rec Record
		if err := ParseLine(tc.line, &rec); err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.line)
		}
	}
}

func TestParseLineNumericEdge(t *testing.T) {
	rec := sampleRecord()
	rec.Port = 65535
	rec.ScBytes = 4294967295
	line := writeLine(t, &rec)
	var got Record
	if err := ParseLine(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Port != 65535 || got.ScBytes != 4294967295 {
		t.Errorf("edge numerics: %d %d", got.Port, got.ScBytes)
	}
}

func TestExceptionClassification(t *testing.T) {
	cases := map[ExceptionID]Class{
		ExNone:                  ClassAllowed,
		ExPolicyDenied:          ClassCensored,
		ExPolicyRedirect:        ClassCensored,
		ExTCPError:              ClassError,
		ExInternalError:         ClassError,
		ExInvalidRequest:        ClassError,
		ExUnsupportedProtocol:   ClassError,
		ExDNSUnresolvedHostname: ClassError,
		ExDNSServerFailure:      ClassError,
		ExUnsupportedEncoding:   ClassError,
		ExInvalidResponse:       ClassError,
	}
	for ex, want := range cases {
		if got := ex.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", ex, got, want)
		}
	}
}

func TestEnumStringsRoundTrip(t *testing.T) {
	for e := ExceptionID(0); int(e) < NumExceptions; e++ {
		got, ok := ParseExceptionID(e.String())
		if !ok || got != e {
			t.Errorf("exception %d: %q -> %v %v", e, e.String(), got, ok)
		}
	}
	for _, f := range []FilterResult{Observed, Proxied, Denied} {
		got, ok := ParseFilterResult(f.String())
		if !ok || got != f {
			t.Errorf("filter %v round trip failed", f)
		}
	}
	if _, ok := ParseExceptionID("nope"); ok {
		t.Error("unknown exception accepted")
	}
	if _, ok := ParseFilterResult("nope"); ok {
		t.Error("unknown filter accepted")
	}
}

func TestProxyHelpers(t *testing.T) {
	var rec Record
	for sg := FirstProxy; sg <= LastProxy; sg++ {
		rec.SetProxy(sg)
		if rec.ProxyIP != ProxyBase+string([]byte{byte('0' + sg/10), byte('0' + sg%10)}) {
			t.Errorf("SetProxy(%d) -> %q", sg, rec.ProxyIP)
		}
		if got := rec.Proxy(); got != sg {
			t.Errorf("Proxy() = %d, want %d", got, sg)
		}
	}
	rec.ProxyIP = "10.0.0.1"
	if rec.Proxy() != 0 {
		t.Error("foreign s-ip mapped to a proxy")
	}
	rec.ProxyIP = "82.137.200.41"
	if rec.Proxy() != 0 {
		t.Error("out-of-range suffix mapped to a proxy")
	}
	rec.ProxyIP = ""
	if rec.Proxy() != 0 {
		t.Error("empty s-ip mapped to a proxy")
	}
}

func TestURLAssembly(t *testing.T) {
	rec := Record{Host: "new-syria.com"}
	if got := rec.URL(); got != "new-syria.com" {
		t.Errorf("URL = %q", got)
	}
	rec.Path = "/page"
	rec.Query = "id=7"
	if got := rec.URL(); got != "new-syria.com/page?id=7" {
		t.Errorf("URL = %q", got)
	}
}

func TestUserKey(t *testing.T) {
	rec := Record{ClientIP: "0.0.0.0", UserAgent: "ua"}
	if rec.UserKey() != "" {
		t.Error("zeroed IP produced a user key")
	}
	rec.ClientIP = "deadbeef"
	if rec.UserKey() != "deadbeef|ua" {
		t.Errorf("UserKey = %q", rec.UserKey())
	}
}

func TestReaderSkipsMalformedAndComments(t *testing.T) {
	rec := sampleRecord()
	good := writeLine(t, &rec)
	input := Header() + "\n" +
		"\n" +
		good + "\n" +
		"garbage,line\n" +
		good + "\n"
	r := NewReader(strings.NewReader(input))
	count := 0
	for {
		_, ok := r.Next()
		if !ok {
			break
		}
		count++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if count != 2 {
		t.Errorf("records = %d, want 2", count)
	}
	if r.Malformed() != 1 {
		t.Errorf("malformed = %d, want 1", r.Malformed())
	}
}

func TestReaderStrict(t *testing.T) {
	r := NewReader(strings.NewReader("bad,line\n"))
	r.SetStrict(true)
	if _, ok := r.Next(); ok {
		t.Fatal("strict reader returned a record for garbage")
	}
	if r.Err() == nil {
		t.Fatal("strict reader swallowed the error")
	}
}

func TestReaderRecordReuse(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec.Host = "first.com"
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	rec.Host = "second.com"
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r1, ok := r.Next()
	if !ok {
		t.Fatal("missing first record")
	}
	host1 := r1.Host
	r2, ok := r.Next()
	if !ok {
		t.Fatal("missing second record")
	}
	if r1 != r2 {
		t.Error("reader should reuse the record buffer")
	}
	if host1 != "first.com" || r2.Host != "second.com" {
		t.Errorf("hosts: %q then %q", host1, r2.Host)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	for i := 0; i < 5; i++ {
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d", w.Count())
	}
}

func TestHeaderFieldCount(t *testing.T) {
	h := strings.TrimPrefix(Header(), "#Fields: ")
	if got := len(strings.Fields(h)); got != NumFields {
		t.Errorf("header names %d fields, want %d", got, NumFields)
	}
}

func BenchmarkWrite(b *testing.B) {
	rec := sampleRecord()
	w := NewWriter(&discard{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
