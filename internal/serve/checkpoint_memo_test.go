package serve

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/timewin"
)

func newMemoStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.Bucket = time.Hour
	st, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// checkpointFiles cuts a checkpoint into a fresh directory and returns
// the bytes of its shard files, in shard order.
func checkpointFiles(t *testing.T, st *Store) [][]byte {
	t.Helper()
	dir := t.TempDir()
	info, err := st.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, info.Shards)
	var total int64
	for i := range files {
		b, err := os.ReadFile(filepath.Join(dir, info.Generation, shardFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
		total += int64(len(b))
	}
	if info.Bytes != total {
		t.Errorf("checkpoint reports %d bytes, its shard files hold %d", info.Bytes, total)
	}
	return files
}

func sameFiles(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shard files, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: shard file %d differs (%d vs %d bytes)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// frameCounts reads the two work counters.
func frameCounts(st *Store) (encoded, reused uint64) {
	return st.obsm.framesEncoded.Value(), st.obsm.framesReused.Value()
}

// assertMemoEqualsCold checks, on every shard, that the frames the memo
// hands out are what a partition rebuilt through the canonical encoding —
// which knows no memo — encodes from scratch.
func assertMemoEqualsCold(t *testing.T, st *Store) {
	t.Helper()
	err := st.each(false, nil, "", func(shard int, _ *trace.Span, p *timewin.Partition) error {
		cold, err := timewin.New(timewin.Config{Options: st.cfg.Options, Metrics: st.cfg.Metrics, Bucket: st.cfg.Bucket, Retain: st.cfg.Retain})
		if err != nil {
			return err
		}
		if err := cold.UnmarshalState(p.MarshalState()); err != nil {
			return err
		}
		var got, want bytes.Buffer
		memo, scratch := p.CheckpointFrames(), cold.CheckpointFrames()
		memo.WriteTo(&got)
		scratch.WriteTo(&want)
		if scratch.Reused != 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("shard %d: memoised frames differ from a cold encode (%d vs %d bytes)", shard, got.Len(), want.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// (a) Memoised == cold: after a seeded mix of ingest, checkpoints,
// retention compaction and late records, the shard files are byte for
// byte those of a fresh store that ingested the same records and
// checkpointed once.
func TestCheckpointMemoisedEqualsCold(t *testing.T) {
	f := corpus(t)
	t.Run("exact", func(t *testing.T) {
		cfg := Config{Options: f.opt, Shards: 3, Retain: 72 * time.Hour}
		st := newMemoStore(t, cfg)
		rnd := rand.New(rand.NewSource(11))
		var fed []logfmt.Record
		checkpoints := 0
		dir := t.TempDir()
		for next := 0; next < len(f.records); {
			switch r := rnd.Intn(8); {
			case r == 0:
				if _, err := st.Checkpoint(dir); err != nil {
					t.Fatal(err)
				}
				checkpoints++
			case r == 1 && next > 5000: // late records, from behind the horizon
				late := f.records[rnd.Intn(200):][:3]
				fed = append(fed, late...)
				st.add(late, nil)
			default:
				n := min(1+rnd.Intn(1500), len(f.records)-next)
				fed = append(fed, f.records[next:next+n]...)
				st.add(f.records[next:next+n], nil)
				next += n
			}
		}
		if st.obsm.compactions.Value() == 0 || checkpoints < 3 {
			t.Fatalf("schedule too tame: %d compactions, %d checkpoints", st.obsm.compactions.Value(), checkpoints)
		}
		got := checkpointFiles(t, st)

		cold := newMemoStore(t, cfg)
		cold.add(fed, nil)
		sameFiles(t, "memoised vs cold", got, checkpointFiles(t, cold))
		if enc, reused := frameCounts(cold); reused != 0 || enc == 0 {
			t.Errorf("cold store encoded %d and reused %d frames", enc, reused)
		}
		assertMemoEqualsCold(t, st)
	})
}

// (b) O(change), counted: a checkpoint encodes exactly one frame per
// (shard, bucket) that took records since the previous one, and reuses
// every other frame.
func TestCheckpointEncodesOnlyWhatChanged(t *testing.T) {
	f := corpus(t)
	t.Run("exact", func(t *testing.T) {
		const shards = 3
		st := newMemoStore(t, Config{Options: f.opt, Shards: shards})
		st.add(f.records, nil)
		// frames is the number of (shard, hour) pairs holding records.
		pairs := map[[2]int64]bool{}
		for i := range f.records {
			pairs[[2]int64{int64(shardKey(&f.records[i]) % shards), f.records[i].Time / 3600}] = true
		}
		frames := uint64(len(pairs))
		dir := t.TempDir()
		step := func(what string, wantEncoded uint64) {
			t.Helper()
			enc0, reu0 := frameCounts(st)
			if _, err := st.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			enc, reu := frameCounts(st)
			if enc-enc0 != wantEncoded || reu-reu0 != frames-wantEncoded {
				t.Errorf("%s: encoded %d and reused %d frames, want %d and %d",
					what, enc-enc0, reu-reu0, wantEncoded, frames-wantEncoded)
			}
		}
		step("first checkpoint", frames)
		step("nothing new", 0)

		// Records of one hour: one frame per shard that saw any of them.
		hour := f.records[len(f.records)/2].Time / 3600
		var touch []logfmt.Record
		saw := map[uint64]bool{}
		for i := range f.records {
			if f.records[i].Time/3600 == hour && len(touch) < 40 {
				touch = append(touch, f.records[i])
				saw[shardKey(&f.records[i])%shards] = true
			}
		}
		st.add(touch, nil)
		step("one hour touched", uint64(len(saw)))
		st.add(touch[:1], nil)
		step("one record", 1)
		step("nothing new again", 0)
		assertMemoEqualsCold(t, st)
	})
}

// (c) A checkpoint restored into an empty store of the same shape seeds
// the memo: the next checkpoint encodes nothing and writes the same
// files. Where the restore merges — another shard count, a loaded store —
// or loads a layout the store does not write — a full-module checkpoint
// into a module subset — the affected frames re-encode, to what a cold
// store holds.
func TestCheckpointRestoreCheckpoint(t *testing.T) {
	f := corpus(t)
	half := len(f.records) / 2
	t.Run("exact", func(t *testing.T) {
		cfg := Config{Options: f.opt, Shards: 4, Retain: 96 * time.Hour}
		orig := newMemoStore(t, cfg)
		orig.add(f.records, nil)
		dir := t.TempDir()
		info, err := orig.Checkpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := 0; i < info.Shards; i++ {
			b, err := os.ReadFile(filepath.Join(dir, info.Generation, shardFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}

		t.Run("same shape", func(t *testing.T) {
			st := newMemoStore(t, cfg)
			if _, err := st.Restore(dir); err != nil {
				t.Fatal(err)
			}
			sameFiles(t, "checkpoint after restore", checkpointFiles(t, st), want)
			if enc, reused := frameCounts(st); enc != 0 || reused == 0 {
				t.Errorf("checkpoint after restore encoded %d frames (reused %d), want 0", enc, reused)
			}
			assertMemoEqualsCold(t, st)
		})
		t.Run("half the shards", func(t *testing.T) {
			// Files 0 and 2 fold into shard 0, 1 and 3 into shard 1: every
			// hour both files hold merges, and must re-encode.
			two := cfg
			two.Shards = 2
			st := newMemoStore(t, two)
			if _, err := st.Restore(dir); err != nil {
				t.Fatal(err)
			}
			got := checkpointFiles(t, st)
			if enc, _ := frameCounts(st); enc == 0 {
				t.Error("a restore that merged shard files re-encoded nothing")
			}
			assertMemoEqualsCold(t, st)
			// hash%4 folds onto hash%2 exactly as the restore does, so a
			// cold two-shard store holds the same engines.
			cold := newMemoStore(t, two)
			cold.add(f.records, nil)
			sameFiles(t, "resharded vs cold", got, checkpointFiles(t, cold))
		})
		t.Run("into a loaded store", func(t *testing.T) {
			first := newMemoStore(t, cfg)
			first.add(f.records[:half], nil)
			halfDir := t.TempDir()
			if _, err := first.Checkpoint(halfDir); err != nil {
				t.Fatal(err)
			}
			st := newMemoStore(t, cfg)
			st.add(f.records[half:], nil)
			checkpointFiles(t, st) // cut a memo for the restore to invalidate
			if _, err := st.Restore(halfDir); err != nil {
				t.Fatal(err)
			}
			got := checkpointFiles(t, st)
			assertMemoEqualsCold(t, st)
			sameFiles(t, "restored into loaded vs cold", got, want)
		})
	})

	t.Run("full checkpoint into a module subset", func(t *testing.T) {
		orig := newMemoStore(t, Config{Options: f.opt, Shards: 2})
		orig.add(f.records, nil)
		dir := t.TempDir()
		if _, err := orig.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		sub := Config{Options: f.opt, Shards: 2, Metrics: []string{"datasets", "domains"}}
		st := newMemoStore(t, sub)
		if _, err := st.Restore(dir); err != nil {
			t.Fatal(err)
		}
		got := checkpointFiles(t, st)
		if enc, reused := frameCounts(st); reused != 0 || enc == 0 {
			t.Errorf("subset store reused %d full-module frames (encoded %d)", reused, enc)
		}
		cold := newMemoStore(t, sub)
		cold.add(f.records, nil)
		sameFiles(t, "subset vs cold", got, checkpointFiles(t, cold))
	})
}

// (e) No I/O on the shard goroutine: while a checkpoint's file write is
// held open, ingest into every shard still completes and becomes
// visible, and the held checkpoint is still the prefix it was cut at.
func TestIngestCompletesDuringCheckpointWrite(t *testing.T) {
	f := corpus(t)
	st := newMemoStore(t, Config{Options: f.opt, Shards: 3})
	st.add(f.records[:5000], nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	st.ckptWriteStall = func(int) {
		once.Do(func() { close(entered) })
		<-release
	}
	dir := t.TempDir()
	type result struct {
		info CheckpointInfo
		err  error
	}
	done := make(chan result, 1)
	go func() {
		info, err := st.Checkpoint(dir)
		done <- result{info, err}
	}()
	<-entered

	ingested := make(chan error, 1)
	go func() {
		if _, err := st.add(f.records[5000:9000], nil); err != nil {
			ingested <- err
			return
		}
		_, err := st.Refresh() // needs an answer from every shard goroutine
		ingested <- err
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ingest and cut did not complete while a checkpoint file write was held open")
	}
	if got := st.current().Records; got != 9000 {
		t.Errorf("snapshot cut during the held write holds %d records, want 9000", got)
	}
	select {
	case r := <-done:
		t.Fatalf("checkpoint finished while its write was held: %+v %v", r.info, r.err)
	default:
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.info.Records != 5000 {
		t.Errorf("held checkpoint covers %d records, want the 5000 it was cut at", r.info.Records)
	}
	restored := newMemoStore(t, Config{Options: f.opt, Shards: 3})
	if info, err := restored.Restore(dir); err != nil || info.Records != 5000 {
		t.Errorf("restore of the held checkpoint: %+v %v", info, err)
	}
}

// Checkpoints racing ingest: every checkpoint is a consistent prefix
// (it restores, to the record count it reports), and the memo never
// serves a frame older than its bucket.
func TestCheckpointUnderIngestHammer(t *testing.T) {
	f := corpus(t)
	st := newMemoStore(t, Config{Options: f.opt, Shards: 3, Retain: 72 * time.Hour})
	dir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+250 <= 10000; i += 250 {
			if _, err := st.add(f.records[i:i+250], nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		info, err := st.Checkpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		restored := newMemoStore(t, Config{Options: f.opt, Shards: 3, Retain: 72 * time.Hour})
		rinfo, err := restored.Restore(dir)
		if err != nil || rinfo.Records != info.Records {
			t.Fatalf("checkpoint %d (%d records) restored as %+v: %v", i, info.Records, rinfo, err)
		}
		if _, err := restored.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := restored.current().Records; got != info.Records {
			t.Fatalf("checkpoint %d restored to %d records, reported %d", i, got, info.Records)
		}
		restored.Close()
	}
	wg.Wait()
	assertMemoEqualsCold(t, st)
	cold := newMemoStore(t, Config{Options: f.opt, Shards: 3, Retain: 72 * time.Hour})
	cold.add(f.records[:10000], nil)
	sameFiles(t, "hammered vs cold", checkpointFiles(t, st), checkpointFiles(t, cold))
}

// A checkpoint's trace says what it did: each ckpt.shard span carries
// the frames it encoded and reused and the bytes it handed back, and the
// file write is a span of its own, outside every shard span.
func TestCheckpointTraceAttrs(t *testing.T) {
	f := corpus(t)
	tr := trace.New(trace.Config{Slow: -1}) // keep every trace
	st := newMemoStore(t, Config{Options: f.opt, Shards: 2, Tracer: tr})
	st.add(f.records[:4000], nil)
	dir := t.TempDir()
	if _, err := st.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	st.add(f.records[4000:4001], nil)
	info, err := st.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last *trace.Trace
	for _, tc := range tr.Recorder().Snapshot(0, 0) {
		if root := tc.TreeView(); root != nil && root.Name == "checkpoint.write" && root.Attrs["generation"] == info.Generation {
			last = tc
		}
	}
	if last == nil {
		t.Fatalf("no checkpoint.write trace for %s", info.Generation)
	}
	var encoded, reused, frameBytes, shardSpans, writeSpans int64
	for _, c := range last.TreeView().Children {
		switch c.Name {
		case "ckpt.shard":
			shardSpans++
			encoded += c.Attrs["frames_encoded"].(int64)
			reused += c.Attrs["frames_reused"].(int64)
			frameBytes += c.Attrs["bytes"].(int64)
		case "ckpt.write":
			writeSpans++
		}
	}
	if shardSpans != 2 || writeSpans != 2 {
		t.Errorf("%d ckpt.shard and %d ckpt.write spans under checkpoint.write, want 2 and 2", shardSpans, writeSpans)
	}
	if encoded != 1 || reused == 0 {
		t.Errorf("spans report %d frames encoded and %d reused after a one-record change, want 1 and > 0", encoded, reused)
	}
	if frameBytes <= 0 || frameBytes >= info.Bytes {
		t.Errorf("spans report %d frame bytes; the files (frames plus headers) hold %d", frameBytes, info.Bytes)
	}
}
