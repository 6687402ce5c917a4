package pipeline

import (
	"io"
	"runtime"
	"sync"
	"time"

	"syriafilter/internal/logfmt"
)

// BlockStats aggregates parse counters across every source and worker of
// a block run.
type BlockStats struct {
	// Lines is the number of physical lines consumed, including comments,
	// blanks and malformed lines.
	Lines uint64
	// Records is the number of well-formed records folded.
	Records uint64
	// Malformed is the number of skipped malformed lines.
	Malformed uint64
	// Bytes is the number of raw log bytes consumed (post-decompression
	// for gzip sources), which is what throughput reporting divides by.
	Bytes uint64
	// ReadSeconds is the wall-clock time spent reading blocks: file or
	// socket I/O plus line snapping, before any parsing — the upstream
	// half of ingest. ParseSeconds is the time spent parsing them and
	// folding their records. Summed over blocks like the counts, so with
	// concurrent readers and workers either can exceed the run's wall
	// clock; together they split ingest latency into "waiting on bytes"
	// and "parsing bytes".
	ReadSeconds, ParseSeconds float64
}

func (s *BlockStats) add(o BlockStats) {
	s.Lines += o.Lines
	s.Records += o.Records
	s.Malformed += o.Malformed
	s.Bytes += o.Bytes
	s.ReadSeconds += o.ReadSeconds
	s.ParseSeconds += o.ParseSeconds
}

// BlockObs is an optional per-block observation hook for the block
// ingestion layer: after each block parses, it receives that one block's
// stats, read and parse times included — the raw feed for live ingest
// metrics (records/s, byte rates, per-stage latency). Calls arrive from
// whichever goroutine parsed the block, so it must be safe for
// concurrent use; nil disables it.
type BlockObs func(blk BlockStats)

// next reads one block from src and times the read.
func next(src *BlockSource) (logfmt.Block, float64, bool) {
	t0 := time.Now()
	blk, ok := src.R.Next()
	return blk, time.Since(t0).Seconds(), ok
}

// BlockSource is one block stream plus its error-attribution context.
type BlockSource struct {
	// R yields the line-aligned blocks.
	R *logfmt.BlockReader
	// Path labels read errors from this source ("" leaves them unwrapped).
	Path string
}

// blockItem routes one block to the pool with how long it took to read.
type blockItem struct {
	blk   logfmt.Block
	readS float64
}

// parseBlock is the per-block step of a pool worker: parse the block
// into emit, release its buffer, report to obs. Malformed lines are
// counted and skipped, so it cannot fail.
func parseBlock(it blockItem, obs BlockObs, emit func(*logfmt.Record)) BlockStats {
	t0 := time.Now()
	res, _ := logfmt.ParseBlock(it.blk, false, emit) // only strict parsing fails
	one := BlockStats{
		Lines:        uint64(res.Lines),
		Records:      uint64(res.Records),
		Malformed:    uint64(res.Malformed),
		Bytes:        uint64(len(it.blk.Data)),
		ReadSeconds:  it.readS,
		ParseSeconds: time.Since(t0).Seconds(),
	}
	it.blk.Release()
	if obs != nil {
		obs(one)
	}
	return one
}

// RunBlockSources reads every source concurrently — one reader goroutine
// per source, all feeding the same n-worker parse pool — and merges the
// per-worker accumulators. Each worker owns an accumulator from newAcc,
// parses whole blocks and folds records with observe; merge folds worker
// accumulators into the first one, which is returned. n <= 0 uses
// GOMAXPROCS. obs, when non-nil, sees every block once it has parsed;
// the returned stats sum what it saw.
//
// The Record passed to observe is reused between lines: observe must copy
// the struct if it keeps it (retaining field strings is fine). Results
// are deterministic for commutative accumulators — block boundaries,
// source interleaving and worker count never change what is observed,
// only the order. All of internal/core's are commutative but one, an
// accumulator that admits entries in observation order: the token
// vocabulary cap (core's maxTokenEntries), so determinism holds only
// while a corpus stays under it. n=1 alone does not fix the order: with
// several sources the readers' blocks reach the one worker in whatever
// order the scheduler ran them. For a corpus past the cap pass one
// source (an io.MultiReader over the files) and n=1: its one reader
// hands blocks to the one worker through a FIFO channel, so they fold
// strictly in stream order.
//
// Malformed lines are counted and skipped. The returned error is the
// first source's read error, in srcs order.
func RunBlockSources[A any](srcs []*BlockSource, n int, obs BlockObs, newAcc func() A, observe func(A, *logfmt.Record), merge func(dst, src A)) (A, BlockStats, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if len(srcs) == 0 {
		return newAcc(), BlockStats{}, nil
	}

	// Blocks are large; a small channel keeps memory bounded while the
	// pool stays busy.
	items := make(chan blockItem, n)
	readErrs := make([]error, len(srcs))
	var readWG sync.WaitGroup
	for i, src := range srcs {
		readWG.Add(1)
		go func(i int, src *BlockSource) {
			defer readWG.Done()
			for {
				blk, readS, ok := next(src)
				if !ok {
					break
				}
				items <- blockItem{blk: blk, readS: readS}
			}
			readErrs[i] = wrapPath(src.Path, src.R.Err())
		}(i, src)
	}

	accs := make([]A, n)
	workerStats := make([]BlockStats, n)
	var workWG sync.WaitGroup
	for w := 0; w < n; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			acc := newAcc()
			emit := func(rec *logfmt.Record) { observe(acc, rec) }
			var stats BlockStats
			for it := range items {
				stats.add(parseBlock(it, obs, emit))
			}
			accs[w], workerStats[w] = acc, stats
		}(w)
	}

	readWG.Wait()
	close(items)
	workWG.Wait()
	out, stats := accs[0], workerStats[0]
	for w := 1; w < n; w++ {
		merge(out, accs[w])
		stats.add(workerStats[w])
	}
	for _, err := range readErrs {
		if err != nil {
			return out, stats, err
		}
	}
	return out, stats, nil
}

// RunFilesBlocks opens each path (gzip-transparent, see OpenReader) and
// runs RunBlockSources with one block reader per file: both the per-file
// reads and all parsing run concurrently. A missing, unreadable or
// malformed-gzip file is an error, never a silently dropped source.
func RunFilesBlocks[A any](paths []string, n int, newAcc func() A, observe func(A, *logfmt.Record), merge func(dst, src A)) (A, BlockStats, error) {
	srcs, closer, err := OpenBlockFiles(paths)
	if err != nil {
		var zero A
		return zero, BlockStats{}, err
	}
	defer closer.Close()
	return RunBlockSources(srcs, n, nil, newAcc, observe, merge)
}

// OpenBlockFile opens one log file as a block source, transparently
// decompressing gzip content under OpenReader's rules. Close
// the returned Closer when done.
func OpenBlockFile(path string) (*BlockSource, io.Closer, error) {
	r, closer, err := OpenReader(path)
	if err != nil {
		return nil, nil, err
	}
	return &BlockSource{R: logfmt.NewBlockReader(r), Path: path}, closer, nil
}

// OpenBlockFiles opens every path with OpenBlockFile. On any error it
// closes what it already opened and returns the error.
func OpenBlockFiles(paths []string) ([]*BlockSource, io.Closer, error) {
	srcs := make([]*BlockSource, 0, len(paths))
	closers := make(multiCloser, 0, len(paths))
	for _, path := range paths {
		src, closer, err := OpenBlockFile(path)
		if err != nil {
			closers.Close()
			return nil, nil, err
		}
		srcs = append(srcs, src)
		closers = append(closers, closer)
	}
	return srcs, closers, nil
}
