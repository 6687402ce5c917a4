// Package pipeline runs record analyses concurrently: one or more sources
// of raw log bytes are cut into line-aligned blocks, the blocks are fanned
// out to worker goroutines that split, parse and fold each one into a
// per-worker accumulator, and the accumulators are merged at the end.
// Every accumulator in internal/stats and the core Engine/Analyzer
// support Merge, so any analysis composes with this scheme.
//
// There is one ingestion path. RunBlockSources (blocks.go) takes any
// number of logfmt.BlockReader sources; RunFilesBlocks opens paths
// (gzip-transparent, files.go) and calls it. Reader goroutines only snap
// blocks to line boundaries, so even a single large file parses on every
// core; malformed lines are counted and skipped. A strictly ordered scan
// is the same call with one source and one worker: chain the inputs with
// io.MultiReader and they fold in order.
//
// The design follows the same reasoning as gopacket's FastHash fan-out:
// blocks keep channel overhead amortized, and per-worker state avoids
// locks entirely.
package pipeline

// BatchSize is the number of records consumers of the pipeline buffer
// per downstream work unit (serve's shard enqueue).
const BatchSize = 1024
