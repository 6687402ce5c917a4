package logfmt

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"
)

// Writer emits Records as CSV lines in the 26-field order ParseBytes
// expects. It buffers internally; call Flush before closing the sink.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   uint64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 256*1024), buf: make([]byte, 0, 512)}
}

// Header returns the ELFF-style header comment naming all fields, written
// by tools for self-describing corpora (ParseBlock skips '#' lines).
func Header() string {
	return "#Fields: date time time-taken c-ip cs-username cs-auth-group sc-status " +
		"s-action sc-bytes cs-bytes cs-method cs-uri-scheme cs-host cs-uri-port " +
		"cs-uri-path cs-uri-query cs-uri-extension cs(User-Agent) s-ip " +
		"sc-filter-result cs-categories x-exception-id s-hierarchy " +
		"s-supplier-name rs(Content-Type) cs(Referer)"
}

// WriteHeader writes the header comment line.
func (w *Writer) WriteHeader() error {
	if _, err := w.w.WriteString(Header()); err != nil {
		return err
	}
	return w.w.WriteByte('\n')
}

// Write appends one record.
func (w *Writer) Write(rec *Record) error {
	b := w.buf[:0]
	t := time.Unix(rec.Time, 0).UTC()
	b = appendDate(b, t)
	b = append(b, ',')
	b = appendClock(b, t)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(rec.TimeTaken), 10)
	b = appendField(b, rec.ClientIP)
	b = appendField(b, rec.Username)
	b = appendField(b, rec.AuthGroup)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(rec.Status), 10)
	b = appendField(b, rec.SAction)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(rec.ScBytes), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(rec.CsBytes), 10)
	b = appendField(b, rec.Method)
	b = appendField(b, rec.Scheme)
	b = appendField(b, rec.Host)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(rec.Port), 10)
	b = appendField(b, rec.Path)
	b = appendField(b, rec.Query)
	b = appendField(b, rec.Ext)
	b = appendField(b, rec.UserAgent)
	b = appendField(b, rec.ProxyIP)
	b = appendField(b, rec.Filter.String())
	b = appendField(b, rec.Categories)
	b = appendField(b, rec.Exception.String())
	b = appendField(b, rec.Hierarchy)
	b = appendField(b, rec.Supplier)
	b = appendField(b, rec.ContentType)
	b = appendField(b, rec.Referer)
	b = append(b, '\n')
	w.buf = b[:0]
	w.n++
	_, err := w.w.Write(b)
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains the internal buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

func appendField(b []byte, s string) []byte {
	b = append(b, ',')
	if s == "" {
		return append(b, '-')
	}
	if strings.IndexByte(s, ',') < 0 && strings.IndexByte(s, '"') < 0 && strings.IndexByte(s, '\n') < 0 {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}

func appendDate(b []byte, t time.Time) []byte {
	y, m, d := t.Date()
	b = append4(b, y)
	b = append(b, '-')
	b = append2(b, int(m))
	b = append(b, '-')
	return append2(b, d)
}

func appendClock(b []byte, t time.Time) []byte {
	b = append2(b, t.Hour())
	b = append(b, ':')
	b = append2(b, t.Minute())
	b = append(b, ':')
	return append2(b, t.Second())
}

func append2(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

func append4(b []byte, v int) []byte {
	return append(b, byte('0'+v/1000%10), byte('0'+v/100%10), byte('0'+v/10%10), byte('0'+v%10))
}
