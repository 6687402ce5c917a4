package timewin

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"syriafilter/internal/core"
	"syriafilter/internal/statecodec"
)

// Checkpoint frames. MarshalState is the canonical encoding of a
// partition and costs O(state) every call. CheckpointFrames is the form
// internal/serve writes to disk, built so that a checkpoint costs
// O(change): every live bucket and the tail is one frame — its engine's
// core.Engine.MarshalState bytes as one gzip member (BestSpeed; the
// member's CRC-32 and length trailer make each frame self-checking) —
// and the partition remembers the frame it last cut for each of them.
//
// A remembered frame is valid exactly while its owner's record count
// equals the count the frame was cut at. Counts only grow, and nothing
// changes an engine without moving its owner's count: Observe adds one,
// Absorb adds the merged bucket's (decode refuses a bucket or tail of
// zero records), compaction and a late record add to the tail's, and a
// bucket that leaves the ring for the tail takes its frame with it. It
// is the invariant Fingerprint documents and the range cache trusts.
// Validity is that one comparison, made when a checkpoint asks; Observe
// carries no dirty flag and gains no work.
//
// The stream is the partition table (state.go) with each segment's frame
// length for payload, then a checksum, then the frames the table
// describes:
//
//	table "SFTF" v1, payload = uvarint frame length
//	CRC-32 (IEEE, little-endian) of every byte above
//	the frames back to back, tail first, then the buckets in table order
//
// Every length is in the table, so a reader knows each frame's bounds
// before it inflates anything and can spread the frames over a worker
// pool, and a writer only concatenates. The table's checksum and the
// frames' own leave no byte of the stream unchecked.
const (
	framesMagic = "SFTF"

	// minFrameLen is the smallest gzip member: a 10-byte header, an empty
	// deflate stream, and the CRC-32 and length trailer.
	minFrameLen = 20
	// maxInflateRatio bounds what a frame may claim to inflate to. Deflate
	// cannot expand input by more than 1032:1, so a stored raw length past
	// that is corruption, known before a byte is allocated for it.
	maxInflateRatio = 1032
	// presizeRatio caps the output buffer a frame's stored raw length may
	// reserve up front. State frames inflate 3–5x; past this the buffer
	// grows with the bytes that really arrive, so a garbled length costs a
	// bounded allocation and one clean error.
	presizeRatio = 16
)

var framesTable = tableKind{magic: framesMagic, version: 1, name: "frames"}

// frame is a remembered checkpoint frame: data is immutable once cut and
// valid while the owner's record count is still records.
type frame struct {
	records uint64
	data    []byte
}

// valid returns the frame's bytes while they still describe an owner of
// the given record count, nil once the owner has moved on.
func (f frame) valid(records uint64) []byte {
	if f.records != records {
		return nil
	}
	return f.data
}

// Frames is a partition's checkpoint form: the table, then one frame per
// tail and live bucket in table order. The slices are immutable — frames
// are shared with the partition's memo — so a Frames can be written out
// by any goroutine while the partition keeps ingesting.
type Frames struct {
	table  []byte
	frames [][]byte
	// Encoded counts the frames this call had to encode, Reused the ones
	// it took from the memo: the work a checkpoint did and the work it
	// was spared.
	Encoded, Reused int
}

// Size is the stream's length in bytes.
func (f *Frames) Size() int64 {
	n := int64(len(f.table))
	for _, fr := range f.frames {
		n += int64(len(fr))
	}
	return n
}

// WriteTo writes the stream: the table, then the frames.
func (f *Frames) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.table)
	total := int64(n)
	for i := 0; i < len(f.frames) && err == nil; i++ {
		n, err = w.Write(f.frames[i])
		total += int64(n)
	}
	return total, err
}

// CheckpointFrames returns the partition's checkpoint form, encoding
// only the frames whose owner changed since the frame was last cut and
// remembering them for the next call. The bytes are a pure function of
// the partition's logical state: a reused frame is byte for byte what
// encoding its engine again would produce.
func (p *Partition) CheckpointFrames() Frames {
	var fs Frames
	w := statecodec.NewWriter()
	p.writeTable(w, framesTable, func(s *segment) {
		if s.memo.valid(s.records) == nil {
			s.memo = frame{records: s.records, data: packFrame(s.eng.MarshalState())}
			fs.Encoded++
		} else {
			fs.Reused++
		}
		fs.frames = append(fs.frames, s.memo.data)
		w.Uvarint(uint64(len(s.memo.data)))
	})
	w.Checksum()
	fs.table = w.Bytes()
	return fs
}

// packer is a pooled gzip writer with its scratch output buffer.
type packer struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

var packers = sync.Pool{New: func() any {
	pk := &packer{}
	// BestSpeed: a dirty frame is compressed on the shard goroutine, and
	// at the default level deflate was half of a checkpoint's CPU.
	pk.zw, _ = gzip.NewWriterLevel(&pk.buf, gzip.BestSpeed) // only errors on an invalid level
	return pk
}}

// packFrame compresses raw into one gzip member.
func packFrame(raw []byte) []byte {
	pk := packers.Get().(*packer)
	pk.buf.Reset()
	pk.zw.Reset(&pk.buf)
	pk.zw.Write(raw) // a bytes.Buffer write cannot fail
	pk.zw.Close()
	out := bytes.Clone(pk.buf.Bytes())
	packers.Put(pk)
	return out
}

// frameHeader is the ten bytes every frame starts with: the gzip header
// of a member with no name, no mtime and no extra field. Its flag, time
// and OS bytes are under no checksum, so unpack compares them instead.
var frameHeader = packFrame(nil)[:10]

// unpacker inflates frames one after another, reusing its inflater and
// its output buffer: no state decoder keeps a reference into its input
// (strings are copied out), so the bytes of one frame may be overwritten
// by the next.
type unpacker struct {
	zr  *gzip.Reader
	src bytes.Reader
	raw []byte
}

// unpack inflates one frame into the reused buffer. The stored raw
// length (the gzip trailer's) is validated against the compressed length
// before it sizes anything; the CRC-32 and that length are verified by
// the inflater at the end of the member.
func (u *unpacker) unpack(fr []byte) ([]byte, error) {
	if len(fr) < minFrameLen || !bytes.Equal(fr[:len(frameHeader)], frameHeader) {
		return nil, fmt.Errorf("timewin: frame of %d bytes does not start with the frame header", len(fr))
	}
	want := uint64(binary.LittleEndian.Uint32(fr[len(fr)-4:]))
	if want > maxInflateRatio*uint64(len(fr)) {
		return nil, fmt.Errorf("timewin: frame of %d bytes claims to inflate to %d", len(fr), want)
	}
	u.src.Reset(fr)
	var err error
	if u.zr == nil {
		u.zr, err = gzip.NewReader(&u.src)
	} else {
		err = u.zr.Reset(&u.src)
	}
	if err != nil {
		return nil, fmt.Errorf("timewin: frame header: %w", err)
	}
	u.zr.Multistream(false)
	if uint64(cap(u.raw)) < want {
		u.raw = make([]byte, 0, min(want, presizeRatio*uint64(len(fr))+4096))
	}
	buf := u.raw[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := u.zr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if uint64(len(buf)) > want {
			return nil, fmt.Errorf("timewin: frame inflates past its stored length %d", want)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("timewin: frame: %w", err)
		}
	}
	u.raw = buf
	if u.src.Len() != 0 {
		return nil, fmt.Errorf("timewin: %d trailing bytes after frame", u.src.Len())
	}
	return buf, nil
}

// readFrames decodes and validates the table of b without inflating a
// frame: every count and every frame length is checked against the bytes
// that are really there. Each staged segment holds its frame as its memo
// and has no engine yet; order lists them as their frames lie in b.
func (sh *shape) readFrames(b []byte) (ss segments, order []*segment, err error) {
	r := statecodec.NewReader(b)
	var lens []int
	ss, err = sh.readTable(r, framesTable, func(s *segment) error {
		order = append(order, s)
		lens = append(lens, r.Count())
		return nil
	})
	if err != nil {
		return ss, nil, err
	}
	r.Checksum()
	if err := r.Err(); err != nil {
		return ss, nil, err
	}
	rest := b[len(b)-r.Remaining():]
	for k, s := range order {
		// Count bounded each length by the input behind it, so the sum
		// cannot overflow before this catches a table that overruns.
		n := lens[k]
		if n > len(rest) {
			return ss, nil, fmt.Errorf("timewin: frame of %d bytes with %d remaining", n, len(rest))
		}
		s.memo = frame{records: s.records, data: rest[:n:n]}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return ss, nil, fmt.Errorf("timewin: %d trailing bytes after partition frames", len(rest))
	}
	return ss, order, nil
}

// decodeFrame inflates a staged segment's frame and decodes it into a
// fresh engine of the shape's configuration. The frame stays as the
// segment's memo only when its layout is the shape's own — exactly its
// modules — because only then is it what encoding the decoded engine
// would produce: a full checkpoint loaded into a module-subset partition
// must not re-emit sections it no longer maintains.
func (sh *shape) decodeFrame(s *segment, u *unpacker) error {
	raw, err := u.unpack(s.memo.data)
	if err != nil {
		return err
	}
	if s.eng, err = sh.decodeEngine(raw); err != nil {
		return err
	}
	if layout, err := core.StateLayout(raw); err != nil || layout != sh.layout {
		s.memo = frame{}
	}
	return nil
}

// Staged is one decoded frames stream that no partition holds yet.
type Staged struct {
	segments
}

// Records returns the records the stream holds.
func (s *Staged) Records() (n uint64) {
	s.each(func(seg *segment) { n += seg.records })
	return n
}

// DecodeFrames decodes streams, each written by CheckpointFrames, for
// partitions of cfg's engines and bucket width, all or nothing: every
// frame of every stream is decoded on one pool of workers goroutines,
// whatever stream it came from, and any failure returns no stream, with
// an error naming the first failing one. A stream is referenced by the
// frame memos it seeds (see decodeFrame); the caller must not modify it
// afterwards.
func DecodeFrames(cfg Config, streams [][]byte, workers int) ([]Staged, error) {
	sh, _, err := newShape(cfg)
	if err != nil {
		return nil, err
	}
	type task struct {
		stream, frame int
		s             *segment
	}
	staged := make([]Staged, len(streams))
	var tasks []task
	for i, b := range streams {
		ss, order, err := sh.readFrames(b)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		staged[i] = Staged{ss}
		for k, s := range order {
			tasks = append(tasks, task{i, k, s})
		}
	}

	errs := make([]error, len(tasks))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var u unpacker
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if errs[i] = sh.decodeFrame(tasks[i].s, &u); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("stream %d: frame %d: %w", tasks[i].stream, tasks[i].frame, err)
		}
	}
	return staged, nil
}
