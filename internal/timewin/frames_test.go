package timewin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
)

// UnmarshalFrames folds a stream written by CheckpointFrames into p,
// with UnmarshalState's semantics: buckets merge by index, the tail
// merges into the tail, and decoding is staged — on any error p is left
// untouched. Buckets (and a tail) that install directly, with nothing to
// merge into, keep the frame they were read from as their memo, so a
// restored partition's next checkpoint re-encodes nothing.
func (p *Partition) UnmarshalFrames(b []byte) error {
	cfg := Config{Options: p.opt, Metrics: p.metrics, Bucket: time.Duration(p.bucketSecs) * time.Second}
	staged, err := DecodeFrames(cfg, [][]byte{b}, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	p.Absorb(staged[0])
	return nil
}

func newFramesPartition(t testing.TB, retain time.Duration, metrics ...string) *Partition {
	t.Helper()
	if metrics == nil {
		metrics = testMetrics
	}
	p, err := New(Config{Metrics: metrics, Bucket: time.Hour, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// frameStream cuts p's checkpoint frames and returns them with the
// stream they write.
func frameStream(t testing.TB, p *Partition) (Frames, []byte) {
	t.Helper()
	fs := p.CheckpointFrames()
	var buf bytes.Buffer
	if n, err := fs.WriteTo(&buf); err != nil || n != fs.Size() || n != int64(buf.Len()) {
		t.Fatalf("WriteTo wrote %d of %d bytes (buffer holds %d): %v", n, fs.Size(), buf.Len(), err)
	}
	return fs, buf.Bytes()
}

// coldStream is the reference: a fresh partition that observed recs in
// order and cuts its frames once.
func coldStream(t testing.TB, retain time.Duration, recs []logfmt.Record, metrics ...string) []byte {
	t.Helper()
	q := newFramesPartition(t, retain, metrics...)
	for i := range recs {
		q.Observe(&recs[i])
	}
	fs, b := frameStream(t, q)
	if fs.Reused != 0 {
		t.Fatalf("a fresh partition reused %d frames", fs.Reused)
	}
	return b
}

func hostRec(i int, ts int64) logfmt.Record {
	return mkRec(ts, fmt.Sprintf("site-%d.example.com", i%17), i%5 == 0)
}

// Memoised == cold: whatever mix of ingest, checkpoints, compaction and
// late records a partition went through, its frames are byte for byte
// those of a partition that saw the same records and checkpoints once.
func TestFramesMemoisedEqualsCold(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			const retain = 36 * time.Hour
			p := newFramesPartition(t, retain)
			var recs []logfmt.Record
			now := base
			checkpoints := 0
			for step := 0; step < 600; step++ {
				switch r := rnd.Intn(20); {
				case r == 0:
					p.CheckpointFrames()
					checkpoints++
					continue
				case r == 1: // a late record, far behind the retention horizon
					recs = append(recs, hostRec(step, base+int64(rnd.Intn(3600))))
				case r < 5: // time moves on, eventually compacting old buckets
					now += int64(rnd.Intn(3 * 3600))
					fallthrough
				default:
					recs = append(recs, hostRec(step, now-int64(rnd.Intn(2*3600))))
				}
				p.Observe(&recs[len(recs)-1])
			}
			if p.tail == nil || checkpoints < 5 {
				t.Fatalf("seed %d: schedule too tame (tail %v, %d checkpoints)", seed, p.tail != nil, checkpoints)
			}
			_, got := frameStream(t, p)
			if want := coldStream(t, retain, recs); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: memoised frames differ from a cold encode (%d vs %d bytes)", seed, len(got), len(want))
			}
			// MarshalState stays the canonical, uncached form: it neither
			// reads nor fills the memo, so the frames after it are the same.
			p.MarshalState()
			if fs, again := frameStream(t, p); fs.Encoded != 0 || !bytes.Equal(again, got) {
				t.Fatalf("seed %d: second checkpoint encoded %d frames", seed, fs.Encoded)
			}
		}
	})
}

// O(change) as a count: a checkpoint encodes exactly the frames whose
// owner took records since the last one and reuses the rest.
func TestFramesEncodeOnlyWhatChanged(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		p := newFramesPartition(t, 48*time.Hour)
		const hours = 72
		for h := 0; h < hours; h++ {
			for i := 0; i < 3; i++ {
				rec := hostRec(h*3+i, base+int64(h)*3600+int64(i))
				p.Observe(&rec)
			}
		}
		frames := p.Buckets() + 1 // the live ring plus the tail
		check := func(what string, encoded int) {
			t.Helper()
			fs := p.CheckpointFrames()
			if fs.Encoded != encoded || fs.Reused != frames-encoded || len(fs.frames) != frames {
				t.Fatalf("%s: encoded %d reused %d of %d frames, want %d encoded of %d",
					what, fs.Encoded, fs.Reused, len(fs.frames), encoded, frames)
			}
		}
		check("first checkpoint", frames)
		check("nothing new", 0)

		for i := 0; i < 5; i++ { // five records, one hour
			rec := hostRec(i, base+int64(hours-1)*3600+100+int64(i))
			p.Observe(&rec)
		}
		check("one hour touched", 1)

		late := hostRec(1, base+60) // behind the horizon: folds into the tail
		p.Observe(&late)
		check("late record", 1)

		// A new hour: its bucket is new, and the bucket it pushes past
		// the horizon leaves the ring for the tail.
		next := hostRec(2, base+int64(hours)*3600)
		p.Observe(&next)
		check("new hour with compaction", 2)
		check("nothing new again", 0)
	})
}

// restoreInto decodes stream into a fresh partition of the given module
// set.
func restoreInto(t testing.TB, retain time.Duration, stream []byte, metrics ...string) *Partition {
	t.Helper()
	q := newFramesPartition(t, retain, metrics...)
	if err := q.UnmarshalFrames(stream); err != nil {
		t.Fatal(err)
	}
	return q
}

func framesCorpus() []logfmt.Record {
	var recs []logfmt.Record
	for i, ts := range stateCorpus() {
		recs = append(recs, hostRec(i, ts), hostRec(i+1, ts+7))
	}
	return recs
}

// A restore into an empty partition seeds the memo with the bytes it
// read: the next checkpoint encodes nothing and writes the same stream.
func TestFramesRestoreSeedsMemo(t *testing.T) {
	for _, retain := range []time.Duration{0, 36 * time.Hour} {
		t.Run(fmt.Sprintf("exact/retain=%v", retain), func(t *testing.T) {
			recs := framesCorpus()
			stream := coldStream(t, retain, recs)
			q := restoreInto(t, retain, stream)
			fs, again := frameStream(t, q)
			if fs.Encoded != 0 || fs.Reused != len(fs.frames) {
				t.Errorf("checkpoint after restore encoded %d of %d frames", fs.Encoded, len(fs.frames))
			}
			if !bytes.Equal(again, stream) {
				t.Error("checkpoint after restore differs from the stream restored")
			}
			// And it is the same partition: the canonical encodings agree.
			p := newFramesPartition(t, retain)
			for i := range recs {
				p.Observe(&recs[i])
			}
			if !bytes.Equal(q.MarshalState(), p.MarshalState()) {
				t.Error("restored partition's MarshalState differs from the original's")
			}
			// The seeded memo obeys the same rule as a cut one.
			rec := hostRec(3, recs[len(recs)-1].Time)
			q.Observe(&rec)
			if fs := q.CheckpointFrames(); fs.Encoded != 1 {
				t.Errorf("one record after restore encoded %d frames, want 1", fs.Encoded)
			}
		})
	}
}

// Where a restore merges instead of installing — two streams holding the
// same hours (a shard-count change), or a partition that already holds
// data — the merged frames re-encode, and the result still equals the
// cold encode of everything.
func TestFramesRestoreMergesReencode(t *testing.T) {
	recs := framesCorpus()
	var a, b []logfmt.Record // two "shards" of the same hours
	for i := range recs {
		if i%2 == 0 {
			a = append(a, recs[i])
		} else {
			b = append(b, recs[i])
		}
	}
	sa, sb := coldStream(t, 0, a), coldStream(t, 0, b)
	want := coldStream(t, 0, append(append([]logfmt.Record(nil), a...), b...))

	t.Run("two streams into one partition", func(t *testing.T) {
		q := restoreInto(t, 0, sa)
		if err := q.UnmarshalFrames(sb); err != nil {
			t.Fatal(err)
		}
		fs, got := frameStream(t, q)
		if fs.Encoded != len(fs.frames) {
			t.Errorf("every hour merged, yet %d of %d frames were reused", fs.Reused, len(fs.frames))
		}
		if !bytes.Equal(got, want) {
			t.Error("merged restore differs from the cold encode")
		}
	})
	t.Run("into a loaded partition", func(t *testing.T) {
		q := newFramesPartition(t, 0)
		for i := range a {
			q.Observe(&a[i])
		}
		q.CheckpointFrames()
		if err := q.UnmarshalFrames(sb); err != nil {
			t.Fatal(err)
		}
		fs, got := frameStream(t, q)
		if fs.Encoded != len(fs.frames) {
			t.Errorf("every hour merged, yet %d of %d frames were reused", fs.Reused, len(fs.frames))
		}
		if !bytes.Equal(got, want) {
			t.Error("restore into a loaded partition differs from the cold encode")
		}
	})
	t.Run("absorb carries valid memos only", func(t *testing.T) {
		src := restoreInto(t, 0, sa)
		rec := a[0]
		src.Observe(&rec) // src's first bucket moved on from its frame
		dst := newFramesPartition(t, 0)
		dst.Absorb(Staged{src.segments})
		fs, got := frameStream(t, dst)
		if fs.Encoded != 1 {
			t.Errorf("absorbed partition encoded %d frames, want the 1 that changed", fs.Encoded)
		}
		if cold := coldStream(t, 0, append(append([]logfmt.Record(nil), a...), rec)); !bytes.Equal(got, cold) {
			t.Error("absorbed partition differs from the cold encode")
		}
	})
}

// A frame may seed the memo only when it is what this partition's
// engines would write. A full-module stream loads into a module-subset
// partition, but is not re-emitted: every frame re-encodes, to the
// subset's own cold encoding.
func TestFramesForeignLayoutNotReused(t *testing.T) {
	recs := framesCorpus()
	full := append([]string{"ports"}, testMetrics...)
	t.Run("full stream into subset partition", func(t *testing.T) {
		stream := coldStream(t, 0, recs, full...)
		q := restoreInto(t, 0, stream)
		fs, got := frameStream(t, q)
		if fs.Reused != 0 {
			t.Errorf("subset partition reused %d full-module frames", fs.Reused)
		}
		if want := coldStream(t, 0, recs); !bytes.Equal(got, want) {
			t.Error("subset partition's frames differ from its cold encode")
		}
	})
}

// Damage anywhere in the stream is one clean error and leaves the
// partition untouched: every byte is under a checksum or compared to a
// constant. (The one exception carries nothing: the padding bits that
// round a frame's deflate stream up to a byte. A flip there may decode,
// to the identical partition.)
func TestFramesCorruption(t *testing.T) {
	stream := coldStream(t, 36*time.Hour, framesCorpus())
	canonical := restoreInto(t, 36*time.Hour, stream).MarshalState()
	refused := func(what string, b []byte) {
		t.Helper()
		q := newFramesPartition(t, 36*time.Hour)
		if err := q.UnmarshalFrames(b); err == nil {
			t.Errorf("%s accepted", what)
		}
		if q.Records() != 0 || q.Buckets() != 0 || q.tail != nil {
			t.Errorf("%s: failed restore left state behind (%d records)", what, q.Records())
		}
	}
	refused("empty stream", nil)
	refused("garbage", []byte("NOPE"))
	for n := 0; n < len(stream); n += len(stream)/97 + 1 {
		refused(fmt.Sprintf("truncation to %d/%d", n, len(stream)), stream[:n])
	}
	refused("trailing byte", append(bytes.Clone(stream), 0))
	accepted := 0
	for off := 0; off < len(stream); off++ {
		b := bytes.Clone(stream)
		b[off] ^= 0x40
		q := newFramesPartition(t, 36*time.Hour)
		if err := q.UnmarshalFrames(b); err != nil {
			if q.Records() != 0 || q.Buckets() != 0 || q.tail != nil {
				t.Fatalf("flipped byte at %d: failed restore left state behind", off)
			}
			continue
		}
		accepted++
		if !bytes.Equal(q.MarshalState(), canonical) {
			t.Fatalf("flipped byte at %d/%d decoded to a different partition", off, len(stream))
		}
	}
	if frames := len(framesCorpus()); accepted > frames {
		t.Errorf("%d single-byte flips decoded; only a frame's last padding bits may", accepted)
	}

	// A different bucket width is a different grid.
	q, err := New(Config{Metrics: testMetrics, Bucket: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.UnmarshalFrames(stream); err == nil || !strings.Contains(err.Error(), "bucket width") {
		t.Errorf("grid mismatch not rejected: %v", err)
	}
}

// A frame's stored raw length is checked against its compressed length
// before it sizes a buffer: a garbled length is an error, not a giant
// allocation.
func TestFramesGarbledRawLength(t *testing.T) {
	fr := packFrame(bytes.Repeat([]byte("state "), 2000))
	for _, claim := range []uint32{0, 1, 1 << 20, 1<<32 - 1} {
		bad := bytes.Clone(fr)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], claim)
		var u unpacker
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := u.unpack(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("frame claiming %d raw bytes accepted", claim)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("frame of %d bytes claiming %d raw bytes allocated %d", len(bad), claim, grew)
		}
	}
	var u unpacker
	if raw, err := u.unpack(fr); err != nil || len(raw) != 12000 {
		t.Errorf("intact frame: %d bytes, %v", len(raw), err)
	}
}

// A bucket or tail of zero records would merge in without moving the
// count the memo and Fingerprint read as their version: both decoders
// refuse it.
func TestDecodeRefusesZeroRecordCounts(t *testing.T) {
	for _, zero := range []string{"bucket", "tail"} {
		p := newFramesPartition(t, 36*time.Hour)
		for _, rec := range framesCorpus() {
			p.Observe(&rec)
		}
		if zero == "tail" {
			p.tail.records = 0
		} else {
			p.live[0].records = 0
		}
		_, stream := frameStream(t, p)
		for name, err := range map[string]error{
			"UnmarshalFrames": newFramesPartition(t, 36*time.Hour).UnmarshalFrames(stream),
			"UnmarshalState":  newFramesPartition(t, 36*time.Hour).UnmarshalState(p.MarshalState()),
		} {
			if err == nil || !strings.Contains(err.Error(), "no records") {
				t.Errorf("%s accepted a %s of zero records: %v", name, zero, err)
			}
		}
	}
}

// FuzzPartitionFrames feeds arbitrary bytes to the frames decoder: a
// clean error that leaves the partition untouched, or a full apply that
// re-encodes to a fixed point — never a panic or a partial apply.
func FuzzPartitionFrames(f *testing.F) {
	recs := framesCorpus()
	for _, retain := range []time.Duration{0, 36 * time.Hour} {
		stream := coldStream(f, retain, recs)
		f.Add(stream)
		f.Add(stream[:len(stream)/2])
		flipped := bytes.Clone(stream)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	f.Add(coldStream(f, 0, nil))
	f.Add([]byte(framesMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newFramesPartition(t, 36*time.Hour)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.UnmarshalFrames(data)
		runtime.ReadMemStats(&after)
		// No length in the input sizes an allocation unchecked: what a
		// decode allocates is bounded by what the input can really inflate
		// and decode to, with room for the engines it builds.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+(64<<10)*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if p.Records() != 0 || p.Buckets() != 0 || p.tail != nil {
				t.Fatalf("failed decode left state behind: %v", err)
			}
			return
		}
		// Applied in full. What it encodes to restores to the same
		// partition, with nothing left to encode.
		_, stream := frameStream(t, p)
		q := restoreInto(t, 36*time.Hour, stream)
		fs2, again := frameStream(t, q)
		if fs2.Encoded != 0 || !bytes.Equal(again, stream) {
			t.Fatalf("re-encoding is not a fixed point (%d frames encoded)", fs2.Encoded)
		}
		if !bytes.Equal(p.MarshalState(), q.MarshalState()) {
			t.Fatal("partition and its restored copy differ")
		}
	})
}
