package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"syriafilter/internal/obs/trace"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/timewin"
)

// Checkpoint layout. A checkpoint directory holds complete generations
// plus one manifest naming the current one:
//
//	dir/MANIFEST.json        -> {"generation":"gen-00000003", ...}
//	dir/gen-00000003/shard-0000.ckpt
//	dir/gen-00000003/shard-0001.ckpt
//	...
//
// Crash safety is rename-based, twice over: a generation is written
// into a ".tmp" directory and renamed whole once every shard file is
// synced, and the manifest is then swapped by its own temp-file +
// rename. Files and directories are fsynced at each step (shard files,
// the generation directory, the parent after each rename), so the
// guarantee covers power loss, not just process death. A crash at any
// point leaves the previous manifest naming the previous complete
// generation — a reader never sees a half-written checkpoint. Older
// generations are pruned only after the manifest swap is durable.
//
// Encoding and I/O happen on different goroutines. Each shard's own
// goroutine cuts its partition's frames (timewin.CheckpointFrames) —
// serialized with its ingest stream, so they are a clean prefix of what
// the shard acked — encoding only the frames that changed since they
// were last cut, and hands the immutable slices back. The goroutine that
// asked for the checkpoint then does every step above — each of them
// disk I/O — so a shard pauses for the encoding of what changed and
// never for a write or an fsync.
//
// Each shard file is, with no outer compression:
//
//	"SFCK" | version byte (2)
//	uvarint shard index | uvarint shard count | uvarint records
//	CRC-32 (IEEE, little-endian) of the header bytes above
//	partition frames (timewin.Frames: a table, then one self-checking
//	gzip member per bucket and for the tail)
//
// Version 1 (one gzip stream around timewin's MarshalState, under a
// longer file suffix) is not read: a directory holding only such
// generations restores nothing and the daemon cold-boots.
const (
	shardStateMagic   = "SFCK"
	shardStateVersion = 2
	manifestName      = "MANIFEST.json"
	manifestFormat    = 1
)

// CheckpointInfo describes one written (or restored) checkpoint.
type CheckpointInfo struct {
	Generation  string `json:"generation"`
	CreatedUnix int64  `json:"created_unix"`
	Shards      int    `json:"shards"`
	Records     uint64 `json:"records"`
	Bytes       int64  `json:"bytes"`
}

// manifest is the on-disk MANIFEST.json.
type manifest struct {
	Format        int    `json:"format"`
	Seq           uint64 `json:"seq"`
	BucketSeconds int64  `json:"bucket_seconds"`
	CheckpointInfo
}

// ErrNoCheckpoint reports a Restore against a directory with no
// manifest: nothing was ever checkpointed there (distinct from a
// corrupted checkpoint, which is a real error).
var ErrNoCheckpoint = errors.New("serve: no checkpoint manifest")

// Checkpoint writes a consistent point-in-time checkpoint of every
// shard into dir and returns what was written. The shards cut their
// frames in parallel, each on its own goroutine, re-encoding only the
// buckets that changed since the last checkpoint (or restore); the files
// are written, synced and renamed by the caller. Safe to call while
// ingest and queries keep running; a shard pauses its ingest only while
// it encodes what changed.
func (st *Store) Checkpoint(dir string) (CheckpointInfo, error) {
	return st.CheckpointCtx(context.Background(), dir)
}

// CheckpointCtx is Checkpoint inside a traced context: the write (each
// shard's encode as a "ckpt.shard" child, each file's write and fsync
// as a "ckpt.write" child) joins the span ctx carries, or becomes its
// own background "checkpoint.write" trace when ctx has none (the
// periodic -checkpoint-every loop).
func (st *Store) CheckpointCtx(ctx context.Context, dir string) (CheckpointInfo, error) {
	if err := st.begin(); err != nil {
		return CheckpointInfo{}, err
	}
	defer st.mu.RUnlock()
	return st.checkpointSpan(dir, trace.FromContext(ctx))
}

// checkpointSpan is Checkpoint without the closed gate, so the final
// checkpoint of CloseAndCheckpoint can run after closed flips.
func (st *Store) checkpointSpan(dir string, parent *trace.Span) (info CheckpointInfo, err error) {
	sp := parent.Child("checkpoint.write")
	if parent == nil {
		sp = st.tracer.Root("checkpoint.write")
	}
	defer func() {
		sp.SetAttrs(trace.Str("generation", info.Generation), trace.Int("bytes", info.Bytes))
		sp.Fail(err)
		sp.End()
	}()
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	t0 := time.Now()

	// Continue the directory's sequence, not just this process's: a
	// store checkpointing into a dir it never restored from (or whose
	// restore failed and cold-booted) must number its generation above
	// everything already there — renaming onto a populated directory
	// fails, and newest-first fallback order must mean newest data.
	if _, maxSeq := scanGenerations(dir); maxSeq > st.ckptSeq.Load() {
		st.ckptSeq.Store(maxSeq)
	}
	seq := st.ckptSeq.Add(1)
	gen := fmt.Sprintf("gen-%08d", seq)
	tmpDir := filepath.Join(dir, gen+".tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return CheckpointInfo{}, err
	}
	fail := func(err error) (CheckpointInfo, error) {
		os.RemoveAll(tmpDir)
		return CheckpointInfo{}, err
	}

	// The shards cut their frames concurrently; nothing in the op touches
	// the disk.
	type result struct {
		frames  timewin.Frames
		records uint64
	}
	results := make([]result, len(st.shards))
	if err := st.each(true, sp, "ckpt.shard", func(i int, ssp *trace.Span, p *timewin.Partition) error {
		r := &results[i]
		r.records = p.Records()
		r.frames = p.CheckpointFrames()
		ssp.SetAttrs(trace.Int("frames_encoded", int64(r.frames.Encoded)),
			trace.Int("frames_reused", int64(r.frames.Reused)),
			trace.Int("bytes", r.frames.Size()))
		return nil
	}); err != nil {
		return fail(err)
	}
	info = CheckpointInfo{
		Generation:  gen,
		CreatedUnix: time.Now().Unix(),
		Shards:      len(st.shards),
	}
	for i := range results {
		r := &results[i]
		st.obsm.framesEncoded.Add(uint64(r.frames.Encoded))
		st.obsm.framesReused.Add(uint64(r.frames.Reused))
		wsp := sp.Child("ckpt.write")
		wsp.SetAttrs(trace.Int("shard", int64(i)))
		n, err := st.writeShardFile(filepath.Join(tmpDir, shardFileName(i)), i, r.records, &r.frames)
		wsp.Fail(err)
		wsp.End()
		if err != nil {
			return fail(fmt.Errorf("serve: checkpoint shard %d: %w", i, err))
		}
		info.Bytes += n
		info.Records += r.records
	}

	finalDir := filepath.Join(dir, gen)
	// The shard files are fsynced individually; sync their directory
	// entries, rename the generation whole, and sync the parent so the
	// rename itself is durable — only then may the manifest name it.
	if err := syncDir(tmpDir); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpDir, finalDir); err != nil {
		return fail(err)
	}
	if err := syncDir(dir); err != nil {
		return CheckpointInfo{}, err
	}
	m := manifest{
		Format:         manifestFormat,
		Seq:            seq,
		BucketSeconds:  st.bucketSecs,
		CheckpointInfo: info,
	}
	if err := writeManifest(dir, &m); err != nil {
		return CheckpointInfo{}, err
	}
	st.lastCkpt.Store(&info)
	st.obsm.checkpointWrite.Observe(time.Since(t0).Seconds())
	pruneGenerations(dir, st.skippedGens)
	return info, nil
}

const shardFileSuffix = ".ckpt"

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d%s", i, shardFileSuffix) }

// writeShardFile writes one shard's header and already-encoded frames,
// syncing before close so the later directory rename publishes durable
// bytes. Returns the file's size.
func (st *Store) writeShardFile(path string, idx int, records uint64, frames *timewin.Frames) (int64, error) {
	if st.ckptWriteStall != nil {
		st.ckptWriteStall(idx)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	hw := statecodec.NewWriter()
	hw.Raw([]byte(shardStateMagic))
	hw.Byte(shardStateVersion)
	hw.Uvarint(uint64(idx))
	hw.Uvarint(uint64(len(st.shards)))
	hw.Uvarint(records)
	hw.Checksum()
	// Frames are a few KB each: batch them into fewer writes.
	bw := bufio.NewWriterSize(f, 256<<10)
	if _, err = bw.Write(hw.Bytes()); err == nil {
		_, err = frames.WriteTo(bw)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return int64(hw.Len()) + frames.Size(), nil
}

func writeManifest(dir string, m *manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// Make the swap durable before old generations are pruned: a power
	// loss must never leave a manifest pointing at a pruned generation.
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and entries inside it survive
// power loss, not just process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// keepGenerations is how many checkpoint generations survive pruning:
// the current one plus one fallback for Restore to walk to when the
// newest is damaged.
const keepGenerations = 2

// pruneGenerations removes every gen-* directory older than the
// keepGenerations newest, not counting those in skipped (dir/name paths
// Restore found undecodable, which must not push out the generation it
// restored), plus any *.tmp debris from crashed checkpoint writes (best
// effort: a leftover directory costs disk, not correctness).
func pruneGenerations(dir string, skipped map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	gens, _ := scanGenerations(dir)
	drop := map[string]bool{}
	kept := 0
	for _, g := range gens {
		switch {
		case kept >= keepGenerations:
			drop[g.name] = true
		case !skipped[filepath.Join(dir, g.name)]:
			kept++
		}
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "gen-") {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || drop[name] {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// genEntry is one generation directory found in a checkpoint dir.
type genEntry struct {
	name string
	seq  uint64
}

// scanGenerations lists the complete (non-.tmp) generation directories
// in dir, newest first, plus the highest sequence number seen.
func scanGenerations(dir string) ([]genEntry, uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0
	}
	var gens []genEntry
	var maxSeq uint64
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "gen-") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		seq, err := strconv.ParseUint(name[len("gen-"):], 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, genEntry{name: name, seq: seq})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].seq > gens[j].seq })
	return gens, maxSeq
}

// Restore folds the newest restorable checkpoint generation in dir
// into the store. It walks the generation directories newest to
// oldest: each candidate is read and fully decoded into staging
// partitions first — any corruption, truncation or config mismatch
// fails that generation, leaving the store exactly as it was — and
// only a generation that decodes completely is absorbed into the live
// shards (on the shard goroutines, like any other op). A skipped
// generation is logged and counted in
// censord_checkpoint_restore_fallbacks_total, so a daemon that came
// back up one generation behind is visible, not silent; it does not
// count toward the generations later checkpoints keep. The manifest
// is advisory: it supplies metadata for the generation it names, but a
// truncated or garbled MANIFEST.json does not cost any data — the walk
// covers every complete generation on disk.
//
// ErrNoCheckpoint means dir holds no checkpoint at all (no manifest,
// no generation directories) — a normal cold boot. Generations that
// exist but all fail to decode are a real error carrying the newest
// generation's failure. A closed store fails with ErrClosed at the
// first generation that decodes, counting no fallback.
//
// A checkpoint's shard count does not need to match the store's: files
// are distributed round-robin and absorbed, since queries always merge
// across all shards. The bucket width must match (bucket grids are not
// convertible; decode fails otherwise); the stored module subset must
// cover the store's (see core.Engine.UnmarshalState).
func (st *Store) Restore(dir string) (CheckpointInfo, error) {
	st.restoring.Store(true)
	defer st.restoring.Store(false)
	// Restore happens at boot, outside any request, so it is its own
	// background trace; each generation attempt is a child span whose
	// failure records why the walk fell back.
	sp := st.tracer.Root("checkpoint.restore")
	var spErr error
	defer func() {
		sp.Fail(spErr)
		sp.End()
	}()

	m, merr := readManifest(dir)
	gens, maxSeq := scanGenerations(dir)
	// Future checkpoints must continue the on-disk sequence even when
	// the restore below fails and the caller cold-boots: a new
	// generation numbered below an existing directory would collide on
	// rename and corrupt the newest-first fallback order.
	if m != nil && m.Seq > maxSeq {
		maxSeq = m.Seq
	}
	if maxSeq > st.ckptSeq.Load() {
		st.ckptSeq.Store(maxSeq)
	}
	if len(gens) == 0 {
		if merr != nil {
			spErr = merr
			return CheckpointInfo{}, merr // missing manifest → ErrNoCheckpoint
		}
		spErr = fmt.Errorf("serve: manifest names %s but no generation directory exists", m.Generation)
		return CheckpointInfo{}, spErr
	}
	if merr != nil {
		st.logger.Warn("checkpoint manifest unusable, walking generations newest to oldest",
			"dir", dir, "err", merr)
	} else if m.Seq > gens[0].seq {
		// The manifest promises a generation newer than anything on
		// disk: whatever the walk recovers is older than the last
		// durable state, which is a fallback even though no decode
		// failed. (The opposite skew — a generation renamed into place
		// before the crash wiped the manifest update — loses nothing.)
		st.obsm.restoreFallbacks.Inc()
		st.logger.Warn("manifest generation missing on disk, falling back to newest present",
			"manifest", m.Generation, "newest", gens[0].name)
	}

	var firstErr error
	for _, g := range gens {
		gsp := sp.Child("restore.generation")
		gsp.SetAttrs(trace.Str("generation", g.name))
		records, info, err, absorbErr := st.loadGeneration(dir, g, m, gsp)
		if err != nil {
			gsp.Fail(err)
			gsp.End()
			st.obsm.restoreFallbacks.Inc()
			st.logger.Warn("checkpoint generation unusable, falling back to previous",
				"generation", g.name, "err", err)
			st.ckptMu.Lock()
			st.skippedGens[filepath.Join(dir, g.name)] = true
			st.ckptMu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("generation %s: %w", g.name, err)
			}
			continue
		}
		gsp.Fail(absorbErr)
		gsp.End()
		if absorbErr != nil {
			spErr = fmt.Errorf("serve: restore %s: %w", g.name, absorbErr)
			return CheckpointInfo{}, spErr
		}
		st.ingested.Add(records)
		st.lastCkpt.Store(&info)
		st.obsm.restores.Inc()
		sp.SetAttrs(trace.Int("records", int64(info.Records)))
		return info, nil
	}
	spErr = fmt.Errorf("serve: no checkpoint generation in %s decodes: %w", dir, firstErr)
	return CheckpointInfo{}, spErr
}

// loadGeneration decodes generation g and, if every file of it decodes,
// absorbs it into the live shards, timing the two steps on gsp as
// decode_s and absorb_s. err is a decode failure, after which the store
// is as it was and the walk may fall back; absorbErr ends the walk — it is
// ErrClosed on a closed store, or a failed absorb, after which the store
// may hold part of this generation and an older one absorbed on top would
// corrupt it.
//
// The collector is paused for both steps (see pauseGC): most of what
// they allocate is state the store keeps, so a cycle would only re-mark
// it. That holds because the decoders size their containers exactly
// (TestRestoreAllocatesWhatItKeeps); with growth by appends the pause
// would keep the garbage and raise peak memory. Collection is back on
// before the call returns, so a failed attempt's garbage can go before
// the next generation is read.
func (st *Store) loadGeneration(dir string, g genEntry, m *manifest, gsp *trace.Span) (records uint64, info CheckpointInfo, err, absorbErr error) {
	defer pauseGC()()
	t0 := time.Now()
	staged, records, info, err := st.decodeGeneration(dir, g, m)
	gsp.SetAttrs(trace.Float("decode_s", time.Since(t0).Seconds()))
	if err != nil {
		return 0, info, err, nil
	}
	// Shard i absorbs staged files i, i+n, … in ascending order, the
	// per-shard order of a file-at-a-time fold.
	t1 := time.Now()
	n := len(st.shards)
	absorbErr = st.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
		for j := i; j < len(staged); j += n {
			if err := p.Absorb(staged[j]); err != nil {
				return err
			}
		}
		return nil
	})
	gsp.SetAttrs(trace.Float("absorb_s", time.Since(t1).Seconds()))
	return records, info, nil, absorbErr
}

// gcPause counts the restores under way in the process; the collector is
// off while it is above zero, and prev is the setting to put back.
var gcPause struct {
	sync.Mutex
	n    int
	prev int
}

// pauseGC turns garbage collection off and returns the func that undoes
// it. Overlapping pauses — two stores restoring at once — share one
// refcount, so collection comes back, at the setting the first pause
// found, when the last of them resumes. The runtime's memory limit, if
// one is set, still forces a cycle while collection is off.
func pauseGC() (resume func()) {
	gcPause.Lock()
	if gcPause.n == 0 {
		gcPause.prev = debug.SetGCPercent(-1)
	}
	gcPause.n++
	gcPause.Unlock()
	return func() {
		gcPause.Lock()
		if gcPause.n--; gcPause.n == 0 {
			debug.SetGCPercent(gcPause.prev)
		}
		gcPause.Unlock()
	}
}

// decodeGeneration reads and decodes one generation directory completely
// into staging partitions, one per shard file, touching no live shard:
// any corruption, truncation or config mismatch fails it. The shard
// count is taken from the directory itself (every complete generation is
// self-describing), so fallback generations restore even when the
// manifest that described them is gone. records is what the files hold.
func (st *Store) decodeGeneration(dir string, g genEntry, m *manifest) (staged []*timewin.Partition, records uint64, info CheckpointInfo, err error) {
	genDir := filepath.Join(dir, g.name)
	entries, err := os.ReadDir(genDir)
	if err != nil {
		return nil, 0, info, err
	}
	shards := 0
	var bytes int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") && strings.HasSuffix(e.Name(), shardFileSuffix) {
			shards++
			if fi, err := e.Info(); err == nil {
				bytes += fi.Size()
			}
		}
	}
	if shards == 0 {
		return nil, 0, info, fmt.Errorf("no shard files in %s", g.name)
	}

	// Stage one empty partition per shard file, then decode every frame
	// of every file on one worker pool: nothing is staged unless all of
	// it decodes.
	staged = make([]*timewin.Partition, shards)
	streams := make([][]byte, shards)
	counts := make([]uint64, shards)
	for i := range staged {
		streams[i], counts[i], err = readShardFile(filepath.Join(genDir, shardFileName(i)), i, shards)
		if err != nil {
			return nil, 0, info, fmt.Errorf("shard file %d: %w", i, err)
		}
		staged[i], err = timewin.New(timewin.Config{
			Options: st.cfg.Options,
			Metrics: st.cfg.Metrics,
			Bucket:  st.cfg.Bucket,
			Retain:  st.cfg.Retain,
		})
		if err != nil {
			return nil, 0, info, err
		}
	}
	if err := timewin.UnmarshalFramesAll(staged, streams, runtime.GOMAXPROCS(0)); err != nil {
		return nil, 0, info, fmt.Errorf("shard files: %w", err)
	}
	// The header's count and the table's are the same number written
	// twice; a file that disagrees with itself is damaged, not trusted.
	for i, p := range staged {
		if got := p.Records(); got != counts[i] {
			return nil, 0, info, fmt.Errorf("shard file %d: header counts %d records, its table %d", i, counts[i], got)
		}
		records += counts[i]
	}

	if m != nil && m.Generation == g.name {
		return staged, records, m.CheckpointInfo, nil
	}
	// A fallback generation has no manifest metadata; reconstruct it
	// from the directory (creation time ≈ the directory's mtime, set by
	// the original rename).
	info = CheckpointInfo{Generation: g.name, Shards: shards, Records: records, Bytes: bytes}
	if fi, err := os.Stat(genDir); err == nil {
		info.CreatedUnix = fi.ModTime().Unix()
	}
	return staged, records, info, nil
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("serve: parsing %s: %w", manifestName, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("serve: checkpoint manifest format %d unsupported (max %d)", m.Format, manifestFormat)
	}
	return &m, nil
}

// readShardFile reads one checkpoint shard file and checks its header,
// returning the partition frames stream behind it and the record count
// the header claims for it.
func readShardFile(path string, idx, count int) (stream []byte, records uint64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	r := statecodec.NewReader(b)
	if magic := r.Raw(len(shardStateMagic)); r.Err() != nil || string(magic) != shardStateMagic {
		return nil, 0, fmt.Errorf("not a shard checkpoint (bad magic)")
	}
	if v := r.Byte(); r.Err() == nil && v != shardStateVersion {
		return nil, 0, fmt.Errorf("shard checkpoint version %d unsupported (want %d)", v, shardStateVersion)
	}
	if got := r.Uvarint(); r.Err() == nil && got != uint64(idx) {
		return nil, 0, fmt.Errorf("file claims shard %d, expected %d", got, idx)
	}
	if got := r.Uvarint(); r.Err() == nil && got != uint64(count) {
		return nil, 0, fmt.Errorf("file claims %d shards, manifest says %d", got, count)
	}
	records = r.Uvarint()
	r.Checksum()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return b[len(b)-r.Remaining():], records, nil
}
