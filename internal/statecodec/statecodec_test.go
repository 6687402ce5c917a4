package statecodec

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 12345)
	w.Varint(-1)
	w.Varint(1 << 40)
	w.String("")
	w.String("hello, world")
	w.Blob([]byte{1, 2, 3})
	w.Raw([]byte("MAGI"))
	w.StringRef("facebook.com")
	w.StringRef("twitter.com")
	w.StringRef("facebook.com") // second occurrence: back-reference
	w.StringRef("")

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Errorf("Byte = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip broken")
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+12345 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "hello, world" {
		t.Errorf("String = %q", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.Raw(4); string(got) != "MAGI" {
		t.Errorf("Raw = %q", got)
	}
	for i, want := range []string{"facebook.com", "twitter.com", "facebook.com", ""} {
		if got := r.StringRef(); got != want {
			t.Errorf("StringRef %d = %q, want %q", i, got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

// StringRef must actually dedup: the second occurrence of a string is a
// one- or two-byte reference, not a re-encoding.
func TestStringRefInterns(t *testing.T) {
	long := strings.Repeat("x", 1000)
	w := NewWriter()
	w.StringRef(long)
	first := w.Len()
	w.StringRef(long)
	if grown := w.Len() - first; grown > 2 {
		t.Errorf("second ref cost %d bytes, want <= 2", grown)
	}
}

// A Reset writer encodes exactly what a fresh one would: the buffer is
// empty and the string table forgotten, so the first ref after a Reset
// is written inline again.
func TestWriterReset(t *testing.T) {
	encode := func(w *Writer) []byte {
		w.StringRef("example.com")
		w.Uvarint(7)
		w.StringRef("example.com")
		w.StringRef("example.org")
		return bytes.Clone(w.Bytes())
	}
	want := encode(NewWriter())
	w := NewWriter()
	w.StringRef("example.org") // a different table, from an earlier section
	w.String("left over")
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Reset left %d bytes behind", w.Len())
	}
	if got := encode(w); !bytes.Equal(got, want) {
		t.Errorf("a Reset writer encoded %x, a fresh one %x", got, want)
	}
}

// A Checksum covers every byte before it: any single flipped bit, in the
// covered bytes or in the sum, poisons the reader.
func TestChecksum(t *testing.T) {
	w := NewWriter()
	w.Uvarint(300)
	w.String("header")
	w.Checksum()
	w.String("not covered")
	good := w.Bytes()
	read := func(b []byte) error {
		r := NewReader(b)
		r.Uvarint()
		_ = r.String()
		r.Checksum()
		return r.Err()
	}
	if err := read(good); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	covered := len(good) - len("not covered") - 1
	for i := 0; i < covered; i++ {
		bad := bytes.Clone(good)
		bad[i] ^= 0x10
		if read(bad) == nil {
			t.Errorf("flipped bit in byte %d of %d passed the checksum", i, covered)
		}
	}
	if read(good[:covered-1]) == nil {
		t.Error("truncated checksum accepted")
	}
}

// Every truncation of a valid stream must fail cleanly (no panic) and
// leave a sticky error.
func TestTruncation(t *testing.T) {
	w := NewWriter()
	w.Uvarint(300)
	w.String("abcdef")
	w.StringRef("ghij")
	w.Varint(-500)
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		r.Uvarint()
		_ = r.String()
		r.StringRef()
		r.Varint()
		if r.Err() == nil {
			t.Errorf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

// A corrupted count must not drive a huge allocation: Count caps at the
// remaining input.
func TestCountGuards(t *testing.T) {
	w := NewWriter()
	w.Uvarint(1 << 40) // a count far beyond the buffer
	r := NewReader(w.Bytes())
	if r.Count(); r.Err() == nil {
		t.Error("oversized count decoded without error")
	}

	r = NewReader(w.Bytes())
	if s := r.String(); r.Err() == nil {
		t.Errorf("oversized string length decoded to %q without error", s)
	}
}

// A bad back-reference fails instead of panicking.
func TestBadStringRef(t *testing.T) {
	w := NewWriter()
	w.Uvarint(5) // references table entry 4, but the table is empty
	r := NewReader(w.Bytes())
	if r.StringRef(); r.Err() == nil {
		t.Error("out-of-range string ref decoded without error")
	}
}

// The sticky error prevents any later read from succeeding.
func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Byte() // poisons
	if r.Err() == nil {
		t.Fatal("empty read should poison")
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("post-error Uvarint = %d, want 0", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("post-error String = %q, want empty", got)
	}
}
