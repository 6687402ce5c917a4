package logfmt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// This file is the test-only reference parser: a string-based,
// record-at-a-time ParseLine and Reader that share no helper with the
// byte parser (parsebytes.go) or the block layer (block.go). They are
// what FuzzParseBytesVsParseLine and FuzzBlockVsReader compare the
// production path against, so they stay simple rather than fast.

// ParseFilterResult parses the log spelling; ok is false for unknown text.
func ParseFilterResult(s string) (FilterResult, bool) {
	switch s {
	case "OBSERVED":
		return Observed, true
	case "PROXIED":
		return Proxied, true
	case "DENIED":
		return Denied, true
	}
	return Observed, false
}

// ParseExceptionID parses the log spelling; ok is false for unknown text.
func ParseExceptionID(s string) (ExceptionID, bool) {
	e, ok := exceptionByName[s]
	return e, ok
}

// ParseLine decodes one CSV log line into rec, overwriting all fields. The
// Record's string fields alias substrings of line, so the caller must not
// mutate line afterwards; this is what makes bulk scans cheap (one string
// header per field, no byte copying).
//
// Lines are the 26-field format produced by Writer. Quoted fields (RFC 4180
// style, used when a value contains a comma or quote) are supported but
// take a slower copying path.
func ParseLine(line string, rec *Record) error {
	var fields [NumFields]string
	n, err := splitCSV(line, fields[:])
	if err != nil {
		return err
	}
	if n != NumFields {
		return fmt.Errorf("%w: got %d, want %d", ErrFieldCount, n, NumFields)
	}

	t, err := parseDateTime(fields[0], fields[1])
	if err != nil {
		return err
	}
	rec.Time = t

	tt, err := atou32(fields[2])
	if err != nil {
		return fmt.Errorf("%w: time-taken %q", ErrBadNumber, fields[2])
	}
	rec.TimeTaken = tt

	rec.ClientIP = undash(fields[3])
	rec.Username = undash(fields[4])
	rec.AuthGroup = undash(fields[5])

	st, err := atou32(fields[6])
	if err != nil || st > 999 {
		return fmt.Errorf("%w: sc-status %q", ErrBadNumber, fields[6])
	}
	rec.Status = uint16(st)

	rec.SAction = undash(fields[7])

	sb, err := atou32(fields[8])
	if err != nil {
		return fmt.Errorf("%w: sc-bytes %q", ErrBadNumber, fields[8])
	}
	rec.ScBytes = sb
	cb, err := atou32(fields[9])
	if err != nil {
		return fmt.Errorf("%w: cs-bytes %q", ErrBadNumber, fields[9])
	}
	rec.CsBytes = cb

	rec.Method = undash(fields[10])
	rec.Scheme = undash(fields[11])
	rec.Host = undash(fields[12])

	pt, err := atou32(fields[13])
	if err != nil || pt > 65535 {
		return fmt.Errorf("%w: cs-uri-port %q", ErrBadNumber, fields[13])
	}
	rec.Port = uint16(pt)

	rec.Path = undash(fields[14])
	rec.Query = undash(fields[15])
	rec.Ext = undash(fields[16])
	rec.UserAgent = undash(fields[17])
	rec.ProxyIP = undash(fields[18])

	fr, ok := ParseFilterResult(fields[19])
	if !ok {
		return fmt.Errorf("%w: sc-filter-result %q", ErrBadEnum, fields[19])
	}
	rec.Filter = fr

	rec.Categories = undash(fields[20])

	ex, ok := ParseExceptionID(fields[21])
	if !ok {
		return fmt.Errorf("%w: x-exception-id %q", ErrBadEnum, fields[21])
	}
	rec.Exception = ex

	rec.Hierarchy = undash(fields[22])
	rec.Supplier = undash(fields[23])
	rec.ContentType = undash(fields[24])
	rec.Referer = undash(fields[25])
	return nil
}

func undash(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// splitCSV splits line into dst, returning the number of fields. The fast
// path (no quotes anywhere) is a single scan producing substrings.
func splitCSV(line string, dst []string) (int, error) {
	if strings.IndexByte(line, '"') < 0 {
		n := 0
		start := 0
		for i := 0; i < len(line); i++ {
			if line[i] == ',' {
				if n >= len(dst) {
					return n + 1, nil // caller reports count mismatch
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
	return splitCSVQuoted(line, dst)
}

func splitCSVQuoted(line string, dst []string) (int, error) {
	n := 0
	i := 0
	for {
		if n >= len(dst) {
			return n + 1, nil
		}
		if i < len(line) && line[i] == '"' {
			// Quoted field: unescape "" -> ".
			var b strings.Builder
			i++
			for {
				if i >= len(line) {
					return 0, errors.New("logfmt: unterminated quoted field")
				}
				c := line[i]
				if c == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(c)
				i++
			}
			dst[n] = b.String()
			n++
			if i >= len(line) {
				return n, nil
			}
			if line[i] != ',' {
				return 0, errors.New("logfmt: garbage after closing quote")
			}
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ',' {
			j++
		}
		dst[n] = line[i:j]
		n++
		if j >= len(line) {
			return n, nil
		}
		i = j + 1
	}
}

// parseDateTime parses "2011-08-03" + "14:05:59" into Unix seconds (UTC)
// without time.Parse (which dominates profile time on bulk scans).
func parseDateTime(date, clock string) (int64, error) {
	if len(date) != 10 || date[4] != '-' || date[7] != '-' ||
		len(clock) != 8 || clock[2] != ':' || clock[5] != ':' {
		return 0, fmt.Errorf("%w: %q %q", ErrBadTime, date, clock)
	}
	year, ok1 := atoiFixed(date[0:4])
	month, ok2 := atoiFixed(date[5:7])
	day, ok3 := atoiFixed(date[8:10])
	hh, ok4 := atoiFixed(clock[0:2])
	mm, ok5 := atoiFixed(clock[3:5])
	ss, ok6 := atoiFixed(clock[6:8])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) ||
		month < 1 || month > 12 || day < 1 || day > 31 ||
		hh > 23 || mm > 59 || ss > 60 {
		return 0, fmt.Errorf("%w: %q %q", ErrBadTime, date, clock)
	}
	return time.Date(year, time.Month(month), day, hh, mm, ss, 0, time.UTC).Unix(), nil
}

func atoiFixed(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func atou32(s string) (uint32, error) {
	if s == "" || s == "-" {
		return 0, nil
	}
	if len(s) > 10 {
		return 0, ErrBadNumber
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
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

// Reader streams Records from a log file. It tolerates (counts and skips)
// malformed lines, since real-world leak data is never pristine; see
// Malformed() after scanning.
type Reader struct {
	sc        *bufio.Scanner
	rec       Record
	err       error
	line      int
	malformed int
	strict    bool
}

// NewReader wraps r. The internal buffer grows to handle long URLs.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &Reader{sc: sc}
}

// SetStrict makes Next fail on the first malformed line instead of
// skipping it.
func (r *Reader) SetStrict(strict bool) { r.strict = strict }

// Next advances to the next well-formed record, returning false at EOF or
// on error. The returned pointer is reused across calls; copy the Record
// if it must outlive the iteration step.
func (r *Reader) Next() (*Record, bool) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Text()
		if line == "" || line[0] == '#' { // ELFF comment/header lines
			continue
		}
		if err := ParseLine(line, &r.rec); err != nil {
			r.malformed++
			if r.strict {
				r.err = fmt.Errorf("line %d: %w", r.line, err)
				return nil, false
			}
			continue
		}
		return &r.rec, true
	}
	r.err = r.sc.Err()
	return nil, false
}

// Err returns the terminal error, if any (nil at clean EOF).
func (r *Reader) Err() error { return r.err }

// Malformed returns the number of skipped malformed lines.
func (r *Reader) Malformed() int { return r.malformed }

// Lines returns the number of physical lines consumed so far.
func (r *Reader) Lines() int { return r.line }
