package logfmt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// This file is the block ingestion layer: a BlockReader slices the input
// into large line-aligned byte blocks that can be parsed concurrently by
// a worker pool (see internal/pipeline's RunBlockSources). The reader
// does no parsing at all — just boundary snapping — so a single big file
// is not limited by one decoding core.

// DefaultBlockSize is the target block size. Big enough that per-block
// overhead (pool round-trips, worker handoff) amortizes over thousands
// of lines; small enough that a worker pool stays load-balanced near
// the end of a file.
const DefaultBlockSize = 256 * 1024

// MaxLineLen bounds a single physical line. A longer line is a terminal
// ErrLineTooLong.
const MaxLineLen = 1 << 20

// ErrLineTooLong is returned (wrapped, with a line number) by BlockReader
// when one line exceeds MaxLineLen.
var ErrLineTooLong = errors.New("logfmt: line too long")

// blockBufPool recycles default-sized block buffers between the reader
// and the workers that Release them after parsing.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, DefaultBlockSize)
		return &b
	},
}

func getBlockBuf(size int) []byte {
	if size == DefaultBlockSize {
		return *(blockBufPool.Get().(*[]byte))
	}
	return make([]byte, size)
}

func putBlockBuf(b []byte) {
	if cap(b) == DefaultBlockSize {
		b = b[:cap(b)]
		blockBufPool.Put(&b)
	}
}

// Block is one line-aligned chunk of a log stream: every line in Data is
// complete (the final line may lack its trailing newline only at end of
// stream). Blocks own a pooled buffer; call Release once the data has
// been consumed.
type Block struct {
	// Data holds the raw bytes. Valid until Release.
	Data []byte
	// FirstLine is the 1-based physical line number of the first line in
	// Data within the whole stream, for malformed-line attribution.
	FirstLine int
}

// Release returns the block's buffer to the pool. The caller must not
// touch Data afterwards.
func (b *Block) Release() {
	putBlockBuf(b.Data)
	b.Data = nil
}

// BlockReader slices an io.Reader into line-aligned Blocks of roughly the
// configured size, carrying the partial tail line of each read forward
// into the next block. It does not parse; pair it with ParseBlock.
type BlockReader struct {
	r     io.Reader
	size  int
	carry []byte // partial final line of the previous block
	line  int    // physical lines handed out so far
	err   error
	done  bool
}

// NewBlockReader wraps r with DefaultBlockSize blocks.
func NewBlockReader(r io.Reader) *BlockReader {
	return NewBlockReaderSize(r, DefaultBlockSize)
}

// NewBlockReaderSize wraps r with a custom block size (tests use tiny
// sizes to force records across block boundaries). size < 1 uses the
// default.
func NewBlockReaderSize(r io.Reader, size int) *BlockReader {
	if size < 1 {
		size = DefaultBlockSize
	}
	return &BlockReader{r: r, size: size}
}

// Next returns the next block, or ok=false at end of stream or on error
// (see Err). Ownership of the block's buffer passes to the caller, who
// must Release it; successive blocks never share a buffer, so they may be
// consumed concurrently.
func (b *BlockReader) Next() (Block, bool) {
	if b.err != nil || b.done {
		return Block{}, false
	}
	buf := getBlockBuf(b.size)
	if len(b.carry) >= len(buf) {
		// A partial line already overflows the block size (it grew past a
		// previous block): give it room to finish.
		putBlockBuf(buf)
		buf = make([]byte, len(b.carry)+b.size)
	}
	fill := copy(buf, b.carry)
	b.carry = b.carry[:0]
	for {
		for fill < len(buf) {
			n, rerr := b.r.Read(buf[fill:])
			fill += n
			if rerr != nil {
				b.done = true
				if rerr != io.EOF {
					b.err = rerr
					// Do not hand out the trailing partial line of a
					// stream that died mid-line.
					if i := bytes.LastIndexByte(buf[:fill], '\n'); i >= 0 {
						fill = i + 1
					} else {
						fill = 0
					}
				}
				if fill == 0 {
					putBlockBuf(buf)
					return Block{}, false
				}
				blk := Block{Data: buf[:fill], FirstLine: b.line + 1}
				b.line += countLines(buf[:fill])
				return blk, true
			}
		}
		// Buffer full: emit everything up to the last newline and carry
		// the partial tail line into the next block.
		if i := bytes.LastIndexByte(buf[:fill], '\n'); i >= 0 {
			b.carry = append(b.carry[:0], buf[i+1:fill]...)
			blk := Block{Data: buf[:i+1], FirstLine: b.line + 1}
			b.line += countLines(buf[:i+1])
			return blk, true
		}
		// No newline in the whole buffer: one line exceeds the block
		// size. Grow (rare) until it fits or trips the line cap.
		if fill >= MaxLineLen {
			b.err = fmt.Errorf("line %d: %w", b.line+1, ErrLineTooLong)
			putBlockBuf(buf)
			return Block{}, false
		}
		grown := make([]byte, 2*len(buf))
		copy(grown, buf[:fill])
		putBlockBuf(buf)
		buf = grown
	}
}

// Err returns the terminal error, nil at clean end of stream.
func (b *BlockReader) Err() error { return b.err }

// countLines counts the physical lines in a block: one per newline, plus
// an unterminated final line.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// BlockResult summarizes one parsed block.
type BlockResult struct {
	// Lines is the number of physical lines in the block, including
	// comments, blanks and malformed lines.
	Lines int
	// Records is the number of well-formed records emitted.
	Records int
	// Malformed is the number of skipped malformed lines (in strict mode,
	// at most 1: parsing stops at the first).
	Malformed int
}

// ParseBlock decodes every line of a block, calling emit for each
// well-formed record. Parsing runs directly on the block's bytes via a
// pooled Parser (see parsebytes.go): repetitive field values resolve
// through the parser's interning table and the high-cardinality tail is
// materialized into one small per-record string, so no Record field ever
// aliases blk.Data — the caller may Release the buffer the moment
// ParseBlock returns while records retain their field strings.
//
// '#' comments and blank lines are skipped (after trailing-\r
// stripping), malformed lines are counted and skipped, and in strict mode
// the first malformed line aborts with a "line N: ..." error using the
// block's absolute line numbering. The Record passed to emit is reused
// between lines; emit must copy the struct (retaining its field strings
// is fine) if it outlives the call.
func ParseBlock(blk Block, strict bool, emit func(*Record)) (BlockResult, error) {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	data := blk.Data
	var res BlockResult
	var rec Record
	ln := blk.FirstLine - 1
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		ln++
		res.Lines++
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 || line[0] == '#' { // ELFF comment/header lines
			continue
		}
		if err := p.ParseBytes(line, &rec); err != nil {
			res.Malformed++
			if strict {
				return res, fmt.Errorf("line %d: %w", ln, err)
			}
			continue
		}
		emit(&rec)
		res.Records++
	}
	return res, nil
}
