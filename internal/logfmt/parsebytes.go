package logfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the byte-level parsing layer: ParseBytes decodes a log
// line directly from the raw bytes of a block, with no up-front
// []byte->string conversion of the input. Field strings that survive
// into the Record are materialized through two bounded mechanisms owned
// by a Parser:
//
//   - an interning table for the repetitive fields (method, scheme,
//     s-action, content-type, host, client IP, user agent, ...): the
//     first occurrence of a value is copied once, every later
//     occurrence reuses that string with zero allocation. The table is
//     capped in entries and bytes, so adversarial high-cardinality
//     input degrades to plain per-value copies instead of unbounded
//     growth;
//   - a per-record arena for the genuinely high-cardinality fields
//     (path, query, referer): their bytes are gathered into one scratch
//     buffer and materialized with a single string conversion per
//     record, each field aliasing a substring of it.
//
// Either way a Record never aliases the input line, so block buffers
// can be pooled and reused the moment parsing returns — the property
// ParseBlock and the serve ingest path rely on.

// Interning caps per Parser. A Parser is per-worker (pool-recycled), so
// total retained interned bytes are bounded by pool size x maxInternBytes.
const (
	maxInternEntries = 1 << 16
	maxInternBytes   = 1 << 21
	// internCacheSize is the direct-mapped cache in front of the intern
	// map: a cheap 17-byte-sample hash picks a slot, a hit skips the
	// map entirely. Must be a power of two, and large enough that a
	// corpus's client-IP/user-agent/host vocabularies don't thrash it.
	internCacheSize = 1 << 16
)

// Parse errors. ParseBytes wraps them with positional context.
var (
	ErrFieldCount = errors.New("logfmt: wrong field count")
	ErrBadTime    = errors.New("logfmt: malformed date/time")
	ErrBadNumber  = errors.New("logfmt: malformed numeric field")
	ErrBadEnum    = errors.New("logfmt: unknown enum value")
)

// Errors of the quoted-field scanner.
var (
	errUnterminatedQuote = errors.New("logfmt: unterminated quoted field")
	errGarbageAfterQuote = errors.New("logfmt: garbage after closing quote")
)

// Parser holds the reusable scratch state behind ParseBytes: the
// interning table, the per-record arena, the quoted-field unescape
// buffer and a one-entry date cache. A Parser is not safe for
// concurrent use; ParseBlock draws one from an internal pool per block.
type Parser struct {
	intern      map[string]string
	cache       []string // direct-mapped fast path over intern
	internBytes int
	scratch     []byte // per-record arena, reset every record
	qbuf        []byte // unescape buffer for quoted fields, reset every line
	// fields is the split destination, kept here so ParseBytes does not
	// zero 26 slice headers per line; every slot consumed is one the
	// splitter wrote for the current line.
	fields      [NumFields][]byte
	lastDate    [10]byte
	lastMidnite int64 // Unix seconds of lastDate at 00:00:00 UTC
	haveDate    bool
}

// NewParser returns an empty Parser.
func NewParser() *Parser {
	return &Parser{
		intern: make(map[string]string, 256),
		cache:  make([]string, internCacheSize),
	}
}

var parserPool = sync.Pool{New: func() any { return NewParser() }}

// ParseBytes decodes one CSV log line into rec, overwriting all fields.
// Lines are the 26-field format produced by Writer. Quoted fields (RFC
// 4180 style, used when a value contains a comma or quote) are supported
// but take a slower unescaping path. The Record's string fields are
// interned or copied into a per-record arena — never aliased to line.
// Accept/reject and every decoded field are pinned against the test-only
// string reference parser by a differential fuzz target.
func (p *Parser) ParseBytes(line []byte, rec *Record) error {
	fields := &p.fields
	n, err := p.splitBytes(line, fields)
	if err != nil {
		return err
	}
	if n != NumFields {
		return fmt.Errorf("%w: got %d, want %d", ErrFieldCount, n, NumFields)
	}

	t, err := p.dateTime(fields[0], fields[1])
	if err != nil {
		return err
	}
	rec.Time = t

	tt, err := atou32b(fields[2])
	if err != nil {
		return fmt.Errorf("%w: time-taken %q", ErrBadNumber, fields[2])
	}
	rec.TimeTaken = tt

	rec.ClientIP = p.str(fields[3])
	rec.Username = p.str(fields[4])
	rec.AuthGroup = p.str(fields[5])

	st, err := atou32b(fields[6])
	if err != nil || st > 999 {
		return fmt.Errorf("%w: sc-status %q", ErrBadNumber, fields[6])
	}
	rec.Status = uint16(st)

	rec.SAction = p.str(fields[7])

	sb, err := atou32b(fields[8])
	if err != nil {
		return fmt.Errorf("%w: sc-bytes %q", ErrBadNumber, fields[8])
	}
	rec.ScBytes = sb
	cb, err := atou32b(fields[9])
	if err != nil {
		return fmt.Errorf("%w: cs-bytes %q", ErrBadNumber, fields[9])
	}
	rec.CsBytes = cb

	rec.Method = p.str(fields[10])
	rec.Scheme = p.str(fields[11])
	rec.Host = p.str(fields[12])

	pt, err := atou32b(fields[13])
	if err != nil || pt > 65535 {
		return fmt.Errorf("%w: cs-uri-port %q", ErrBadNumber, fields[13])
	}
	rec.Port = uint16(pt)

	rec.Ext = p.str(fields[16])
	rec.UserAgent = p.str(fields[17])
	rec.ProxyIP = p.str(fields[18])

	fr, ok := parseFilterResultBytes(fields[19])
	if !ok {
		return fmt.Errorf("%w: sc-filter-result %q", ErrBadEnum, fields[19])
	}
	rec.Filter = fr

	rec.Categories = p.str(fields[20])

	if f := fields[21]; len(f) == 1 && f[0] == '-' {
		rec.Exception = ExNone // the overwhelmingly common case, skip the map
	} else {
		ex, ok := exceptionByName[string(f)] // no-alloc map lookup
		if !ok {
			return fmt.Errorf("%w: x-exception-id %q", ErrBadEnum, f)
		}
		rec.Exception = ex
	}

	rec.Hierarchy = p.str(fields[22])
	rec.Supplier = p.str(fields[23])
	rec.ContentType = p.str(fields[24])

	// The high-cardinality tail: path, query and referer skip the
	// interning table (URL tails are dominated by unique ids, which
	// would only thrash it) and share ONE arena string per record, so
	// even always-distinct URLs cost a single allocation per record.
	pth := undashB(fields[14])
	qry := undashB(fields[15])
	ref := undashB(fields[25])
	if len(pth)+len(qry)+len(ref) == 0 {
		rec.Path, rec.Query, rec.Referer = "", "", ""
	} else {
		s := p.scratch[:0]
		s = append(s, pth...)
		s = append(s, qry...)
		s = append(s, ref...)
		p.scratch = s
		a := string(s)
		rec.Path = a[:len(pth)]
		rec.Query = a[len(pth) : len(pth)+len(qry)]
		rec.Referer = a[len(pth)+len(qry):]
	}
	return nil
}

// str materializes a field value: "-" and "" map to "", everything else
// resolves through the interning table (zero-alloc on hit; the miss
// copies once and, under the caps, remembers the copy).
func (p *Parser) str(b []byte) string {
	if len(b) == 0 || (len(b) == 1 && b[0] == '-') {
		return ""
	}
	s, idx, ok := p.probe(b)
	if ok {
		return s
	}
	s = string(b)
	p.store(s, idx)
	return s
}

// probe looks b up in the interning structures without copying it. A
// direct-mapped cache sampling the first/last eight bytes sits in front
// of the map, so the steady-state cost per field is one tiny hash plus
// one byte comparison instead of a full map probe. On a miss it returns
// the slot index for a later store.
func (p *Parser) probe(b []byte) (string, uint64, bool) {
	n := len(b)
	var a, z uint64
	if n >= 8 {
		a = binary.LittleEndian.Uint64(b)
		z = binary.LittleEndian.Uint64(b[n-8:])
	} else {
		for i := 0; i < n; i++ {
			a = a<<8 | uint64(b[i])
		}
		z = a
	}
	h := (a*0x9e3779b97f4a7c15 ^ z*0xc2b2ae3d27d4eb4f) + uint64(n)
	idx := (h >> 32) & (internCacheSize - 1)
	if s := p.cache[idx]; len(s) == n && s == string(b) { // no-alloc compare
		return s, idx, true
	}
	if s, ok := p.intern[string(b)]; ok { // no-alloc map lookup
		p.cache[idx] = s
		return s, idx, true
	}
	return "", idx, false
}

// store remembers a materialized string under the table caps. Past the
// caps the table is frozen: lookups keep hitting existing entries but
// new values stay unshared copies, so hostile high-cardinality input
// cannot grow parser memory without bound.
func (p *Parser) store(s string, idx uint64) {
	if len(p.intern) < maxInternEntries && p.internBytes+len(s) <= maxInternBytes {
		p.intern[s] = s
		p.cache[idx] = s
		p.internBytes += len(s)
		internedStrings.Add(1)
	}
}

// internedStrings counts strings added to interning tables across every
// Parser in the process. It is monotone (entries are only ever added;
// table caps freeze growth rather than evict), so it exposes cleanly as
// a Prometheus counter. The add sits on the intern *miss* path only,
// which is cold after warmup.
var internedStrings atomic.Uint64

// InternStats reports the cumulative number of strings remembered by
// parser interning tables process-wide. A high strings-per-record ratio
// means the input's nominally repetitive fields are high-cardinality
// and parsing is degrading to per-value copies.
func InternStats() uint64 {
	return internedStrings.Load()
}

func undashB(b []byte) []byte {
	if len(b) == 1 && b[0] == '-' {
		return nil
	}
	return b
}

// splitBytes splits line into dst, returning the number of fields (n+1
// as soon as the line overflows NumFields; the caller reports the count
// mismatch). Quote detection is one vectorized IndexByte over the whole
// line (quotes are rare); the comma scan is SWAR — eight bytes per
// load with an exact zero-byte detector — instead of a byte-at-a-time
// loop or one IndexByte call per (mostly tiny) field.
func (p *Parser) splitBytes(line []byte, dst *[NumFields][]byte) (int, error) {
	if bytes.IndexByte(line, '"') >= 0 {
		return p.splitQuotedBytes(line, dst)
	}
	const (
		lo     uint64 = 0x0101010101010101
		hi     uint64 = 0x8080808080808080
		commas        = ',' * lo
	)
	n := 0
	start := 0
	i := 0
	for ; i+8 <= len(line); i += 8 {
		// Exact zero-byte detector (Hacker's Delight): high bit set in
		// every byte of c that is zero, no cross-byte carries — the
		// cheaper (c-lo)&^c&hi variant false-positives on 0x01 bytes
		// following a match.
		c := binary.LittleEndian.Uint64(line[i:]) ^ commas
		m := ^((c &^ hi) + ^hi | c) & hi
		for ; m != 0; m &= m - 1 {
			if n >= len(dst) {
				return n + 1, nil // caller reports count mismatch
			}
			pos := i + bits.TrailingZeros64(m)>>3
			dst[n] = line[start:pos]
			n++
			start = pos + 1
		}
	}
	for ; i < len(line); i++ {
		if line[i] == ',' {
			if n >= len(dst) {
				return n + 1, nil
			}
			dst[n] = line[start:i]
			n++
			start = i + 1
		}
	}
	if n >= len(dst) {
		return n + 1, nil
	}
	dst[n] = line[start:]
	return n + 1, nil
}

// splitQuotedBytes is the slow path for lines containing quotes.
// Unescaped field bytes are written into p.qbuf (pre-grown to len(line),
// so appends never reallocate and earlier field slices stay valid).
func (p *Parser) splitQuotedBytes(line []byte, dst *[NumFields][]byte) (int, error) {
	if cap(p.qbuf) < len(line) {
		p.qbuf = make([]byte, 0, len(line)+64)
	}
	q := p.qbuf[:0]
	n := 0
	i := 0
	for {
		if n >= len(dst) {
			return n + 1, nil
		}
		if i < len(line) && line[i] == '"' {
			// Quoted field: unescape "" -> " into the scratch buffer.
			start := len(q)
			i++
			for {
				if i >= len(line) {
					return 0, errUnterminatedQuote
				}
				c := line[i]
				if c == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						q = append(q, '"')
						i += 2
						continue
					}
					i++
					break
				}
				q = append(q, c)
				i++
			}
			dst[n] = q[start:len(q):len(q)]
			n++
			if i >= len(line) {
				return n, nil
			}
			if line[i] != ',' {
				return 0, errGarbageAfterQuote
			}
			i++
			continue
		}
		rest := line[i:]
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			dst[n] = rest
			return n + 1, nil
		}
		dst[n] = rest[:j]
		n++
		i += j + 1
	}
}

// dateTime parses "2011-08-03" + "14:05:59" into Unix seconds (UTC)
// without time.Parse, behind a one-entry date cache: consecutive records
// almost always share a calendar date, so the midnight epoch is computed
// once per distinct date and the clock is added arithmetically. A cached
// date validates and normalizes (day overflow, leap second) exactly like
// a miss because the cache key is the exact date bytes and misses go
// through time.Date.
func (p *Parser) dateTime(date, clock []byte) (int64, error) {
	if len(date) != 10 || date[4] != '-' || date[7] != '-' ||
		len(clock) != 8 || clock[2] != ':' || clock[5] != ':' {
		return 0, fmt.Errorf("%w: %q %q", ErrBadTime, date, clock)
	}
	hh, ok4 := atoiFixedB(clock[0:2])
	mm, ok5 := atoiFixedB(clock[3:5])
	ss, ok6 := atoiFixedB(clock[6:8])
	if p.haveDate && string(date) == string(p.lastDate[:]) {
		if !(ok4 && ok5 && ok6) || hh > 23 || mm > 59 || ss > 60 {
			return 0, fmt.Errorf("%w: %q %q", ErrBadTime, date, clock)
		}
		return p.lastMidnite + int64(hh)*3600 + int64(mm)*60 + int64(ss), nil
	}
	year, ok1 := atoiFixedB(date[0:4])
	month, ok2 := atoiFixedB(date[5:7])
	day, ok3 := atoiFixedB(date[8:10])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) ||
		month < 1 || month > 12 || day < 1 || day > 31 ||
		hh > 23 || mm > 59 || ss > 60 {
		return 0, fmt.Errorf("%w: %q %q", ErrBadTime, date, clock)
	}
	midnight := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC).Unix()
	copy(p.lastDate[:], date)
	p.lastMidnite = midnight
	p.haveDate = true
	return midnight + int64(hh)*3600 + int64(mm)*60 + int64(ss), nil
}

func atoiFixedB(b []byte) (int, bool) {
	n := 0
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// atou32b decodes a decimal uint32; empty and "-" decode as 0.
func atou32b(b []byte) (uint32, error) {
	if len(b) == 0 || (len(b) == 1 && b[0] == '-') {
		return 0, nil
	}
	if len(b) > 10 {
		return 0, ErrBadNumber
	}
	var n uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, ErrBadNumber
		}
		n = n*10 + uint64(c-'0')
		if n > 0xffffffff {
			return 0, ErrBadNumber
		}
	}
	return uint32(n), nil
}

// parseFilterResultBytes parses the log spelling of a FilterResult
// without a string conversion.
func parseFilterResultBytes(b []byte) (FilterResult, bool) {
	switch string(b) { // compiled to no-alloc comparisons
	case "OBSERVED":
		return Observed, true
	case "PROXIED":
		return Proxied, true
	case "DENIED":
		return Denied, true
	}
	return Observed, false
}
