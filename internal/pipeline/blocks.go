package pipeline

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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
}

func (s *BlockStats) add(o BlockStats) {
	s.Lines += o.Lines
	s.Records += o.Records
	s.Malformed += o.Malformed
	s.Bytes += o.Bytes
}

// BlockObs is an optional per-block observation hook for the block
// ingestion layer. After each block parses, OnBlock receives that one
// block's counters and its wall-clock parse duration in seconds — the
// raw feed for live ingest metrics (records/s, byte rates, parse-stage
// latency). Calls arrive from whichever goroutine parsed the block, so
// OnBlock must be safe for concurrent use; a nil *BlockObs disables the
// hook, and the only per-block cost of the disabled path is a nil check.
type BlockObs struct {
	OnBlock func(blk BlockStats, seconds float64)
	// OnRead, when non-nil, is called after each block *read* (the
	// upstream half of the pipeline: file/socket I/O plus line
	// snapping, before any parsing) with the block's size and the
	// read's wall-clock duration. Reads happen on the per-source reader
	// goroutines, so OnRead must be safe for concurrent use. Together
	// with OnBlock this splits ingest latency into its two stages —
	// "waiting on bytes" vs "parsing bytes" — which is exactly the
	// attribution a slow-ingest trace needs.
	OnRead func(bytes int, seconds float64)
}

// next reads one block from src, reporting the read to OnRead.
func (o *BlockObs) next(src *BlockSource) (logfmt.Block, bool) {
	if o == nil || o.OnRead == nil {
		return src.R.Next()
	}
	t0 := time.Now()
	blk, ok := src.R.Next()
	if ok {
		o.OnRead(len(blk.Data), time.Since(t0).Seconds())
	}
	return blk, ok
}

// BlockSource is one block stream plus its error-attribution context.
type BlockSource struct {
	// R yields the line-aligned blocks.
	R *logfmt.BlockReader
	// Path labels errors from this source ("" leaves them unwrapped).
	Path string
	// Strict aborts the run at this source's first malformed line, with
	// its 1-based physical line number in the stream ("line N: ...").
	Strict bool
}

// blockItem routes one block to the pool with its source index.
type blockItem struct {
	src int
	blk logfmt.Block
}

// parseBlock is the one per-block step both the serial loop and the pool
// workers run: parse blk into emit, release its buffer, report to obs.
// The error is a strict source's first malformed line, path-wrapped.
func parseBlock(src *BlockSource, blk logfmt.Block, obs *BlockObs, emit func(*logfmt.Record)) (BlockStats, error) {
	timed := obs != nil && obs.OnBlock != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	res, err := logfmt.ParseBlock(blk, src.Strict, emit)
	one := BlockStats{
		Lines:     uint64(res.Lines),
		Records:   uint64(res.Records),
		Malformed: uint64(res.Malformed),
		Bytes:     uint64(len(blk.Data)),
	}
	blk.Release()
	if timed {
		obs.OnBlock(one, time.Since(t0).Seconds())
	}
	return one, wrapPath(src.Path, err)
}

// RunBlockSources reads every source concurrently — one reader goroutine
// per source, all feeding the same n-worker parse pool — and merges the
// per-worker accumulators. Each worker owns an accumulator from newAcc,
// parses whole blocks and folds records with observe; merge folds worker
// accumulators into the first one, which is returned. n <= 0 uses
// GOMAXPROCS. obs, when non-nil, sees every block read and parse (see
// BlockObs).
//
// The Record passed to observe is reused between lines: observe must copy
// the struct if it keeps it (retaining field strings is fine). Results
// are deterministic for commutative accumulators — block boundaries,
// source interleaving and worker count never change what is observed,
// only the order. All of internal/core's are commutative, with two
// caveats, both accumulators that admit entries in observation order:
// the token vocabulary cap (Options.MaxTokenEntries), so determinism
// holds only while a corpus stays under it; and sketch mode, whose
// Space-Saving tables evict in arrival order once they fill, so a
// sketched run over a corpus with more distinct keys than the top-k
// capacity differs from run to run. n=1 alone does not fix the order:
// the serial path below needs a single source too, and with several the
// readers' blocks still reach the one worker in whatever order the
// scheduler ran them. For either case pass one source (an io.MultiReader
// over the files) and n=1, which folds strictly in stream order.
//
// The returned error is the first failing source's, in srcs order; within
// one source, the earliest failing line wins, so strict-mode errors match
// a serial scan of that source.
func RunBlockSources[A any](srcs []*BlockSource, n int, obs *BlockObs, newAcc func() A, observe func(A, *logfmt.Record), merge func(dst, src A)) (A, BlockStats, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if len(srcs) == 0 {
		return newAcc(), BlockStats{}, nil
	}
	if n == 1 && len(srcs) == 1 {
		// Serial fast path: one source and one worker need no goroutines
		// or channels at all.
		src := srcs[0]
		acc := newAcc()
		emit := func(rec *logfmt.Record) { observe(acc, rec) }
		var stats BlockStats
		for {
			blk, ok := obs.next(src)
			if !ok {
				break
			}
			one, err := parseBlock(src, blk, obs, emit)
			stats.add(one)
			if err != nil {
				return acc, stats, err
			}
		}
		return acc, stats, wrapPath(src.Path, src.R.Err())
	}

	// Blocks are large; a small channel keeps memory bounded while the
	// pool stays busy.
	items := make(chan blockItem, n)
	var stop atomic.Bool

	readErrs := make([]error, len(srcs))
	var readWG sync.WaitGroup
	for i, src := range srcs {
		readWG.Add(1)
		go func(i int, src *BlockSource) {
			defer readWG.Done()
			for !stop.Load() {
				blk, ok := obs.next(src)
				if !ok {
					break
				}
				items <- blockItem{src: i, blk: blk}
			}
			readErrs[i] = wrapPath(src.Path, src.R.Err())
		}(i, src)
	}

	// Strict-mode first-error tracking: workers may hit malformed lines
	// out of order, but blocks are dispatched in order per source, so the
	// error in the lowest-FirstLine block of a source is that source's
	// first bad line. Workers keep parsing already-dispatched blocks
	// after stop is set — only the readers quit early — which guarantees
	// every block preceding a reported error has been examined.
	type parseFail struct {
		firstLine int
		err       error
	}
	fails := make([]parseFail, len(srcs))
	var failMu sync.Mutex

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
				one, err := parseBlock(srcs[it.src], it.blk, obs, emit)
				stats.add(one)
				if err != nil {
					failMu.Lock()
					if fails[it.src].err == nil || it.blk.FirstLine < fails[it.src].firstLine {
						fails[it.src] = parseFail{it.blk.FirstLine, err}
					}
					failMu.Unlock()
					stop.Store(true)
				}
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
	for i := range srcs {
		if fails[i].err != nil {
			return out, stats, fails[i].err
		}
		if readErrs[i] != nil {
			return out, stats, readErrs[i]
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
