// Package statecodec is the binary encoding layer under every
// serializable piece of metric state: checkpoints written by
// internal/serve, bucket rings saved by internal/timewin, and the
// engine state files of `censorlyzer -save-state`.
//
// The format is deliberately small: length-prefixed byte strings,
// varint integers (unsigned and zig-zag signed), single bytes and
// bools, plus an interned string table for the heavy counter maps —
// a registered domain that appears in nine counters of one module is
// written once and referenced by index afterwards. There is no
// reflection and no schema; each consumer writes its fields in a fixed
// order and leads with a version byte so a future layout change can
// migrate old checkpoints instead of misreading them.
//
// Writers never fail. Readers carry a sticky error: the first
// malformed or truncated read poisons the Reader, every later read
// returns a zero value, and the caller checks Err once at the end —
// so decoding corrupted state degrades into one clean error instead
// of a panic or a partially-applied state.
//
// String-table scope is one Writer/Reader pair. Container formats that
// frame multiple independently-skippable sections (the Engine's
// per-module sections) must give each section its own Writer — or one
// Writer Reset between sections — or a skipped section would swallow
// string definitions that later sections reference.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Writer accumulates an encoded state buffer. The zero value is not
// ready; use NewWriter.
type Writer struct {
	buf  []byte
	strs map[string]uint64
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reset empties the writer for another encoding while keeping what it
// allocated: the buffer keeps its capacity and the string table its
// buckets. The next encoding starts a new string-table scope, exactly as
// a fresh Writer would. Bytes returned before the Reset are overwritten
// by later writes; copy them out first.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	clear(w.strs)
}

// Bytes returns the encoded buffer. It aliases the writer's internal
// storage; further writes may invalidate it.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) { w.buf = binary.AppendUvarint(w.buf, u) }

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(i int64) { w.buf = binary.AppendVarint(w.buf, i) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix; the reader must know the
// width (fixed-size hashes, magic numbers).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Checksum appends the CRC-32 (IEEE, little-endian) of everything
// written so far, for headers and tables that no compression layer's
// checksum covers. Reader.Checksum verifies it.
func (w *Writer) Checksum() {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

// StringRef appends s through the writer's intern table: the first
// occurrence is written inline (tag 0 + the string) and assigned the
// next table index; later occurrences write index+1 only.
func (w *Writer) StringRef(s string) {
	if id, ok := w.strs[s]; ok {
		w.Uvarint(id + 1)
		return
	}
	if w.strs == nil {
		w.strs = make(map[string]uint64)
	}
	id := uint64(len(w.strs))
	w.strs[s] = id
	w.Uvarint(0)
	w.String(s)
}

// Reader decodes a buffer written by Writer. All read methods return
// zero values once the reader is poisoned; check Err after decoding.
type Reader struct {
	buf  []byte
	off  int
	strs []string
	err  error
}

// NewReader returns a reader over b. The reader aliases b; the caller
// must not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, nil while the stream is healthy.
func (r *Reader) Err() error { return r.err }

// Fail poisons the reader with err (first failure wins).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf poisons the reader with a formatted error (first failure wins).
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Failf("statecodec: truncated input at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("statecodec: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	i, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("statecodec: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return i
}

// Count reads an element count and validates it against the remaining
// input (every element costs at least one byte), so a corrupted length
// cannot drive a giant allocation.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.Failf("statecodec: count %d exceeds %d remaining bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Blob reads a length-prefixed byte slice. The result aliases the
// reader's buffer.
func (r *Reader) Blob() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Raw reads exactly n bytes with no length prefix. The result aliases
// the reader's buffer.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Failf("statecodec: raw read of %d bytes with %d remaining", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Checksum reads a CRC-32 written by Writer.Checksum and poisons the
// reader unless it matches every byte read before it, from the start of
// the buffer.
func (r *Reader) Checksum() {
	if r.err != nil {
		return
	}
	covered := r.off
	want := crc32.ChecksumIEEE(r.buf[:covered])
	if got := r.Raw(4); r.err == nil && binary.LittleEndian.Uint32(got) != want {
		r.Failf("statecodec: checksum mismatch over the first %d bytes", covered)
	}
}

// StringRef reads an interned string written by Writer.StringRef.
func (r *Reader) StringRef() string {
	u := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if u == 0 {
		s := r.String()
		if r.err == nil {
			r.strs = append(r.strs, s)
		}
		return s
	}
	if u > uint64(len(r.strs)) {
		r.Failf("statecodec: string ref %d beyond table of %d", u, len(r.strs))
		return ""
	}
	return r.strs[u-1]
}
