package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/render"
	"syriafilter/internal/timewin"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ckpt-sfck2 with the current code")

const goldenDir = "testdata/ckpt-sfck2"

// goldenDigests is testdata/ckpt-sfck2/digests.json: what the golden
// checkpoint must restore to, in terms no encoding change can move.
type goldenDigests struct {
	// Docs is the sha256 of every render.Order() doc's JSON over the
	// restored second generation.
	Docs map[string]string `json:"docs"`
	// PartitionState is the sha256 of MarshalState of one partition that
	// observed every golden record in ingest order.
	PartitionState string `json:"partition_state"`
}

func goldenConfig(f *fixture, shards int) Config {
	return Config{Options: f.opt, Shards: shards, Bucket: 6 * time.Hour, Retain: 72 * time.Hour}
}

// goldenBatches are the two ingest rounds behind the two generations:
// every eighth fixture record in time order, split two thirds / one
// third, the second round closing with a run of early records so the
// compacted tail also holds late arrivals.
func goldenBatches(f *fixture) (first, second []logfmt.Record) {
	var sub []logfmt.Record
	for i := 0; i < len(f.records); i += 8 {
		sub = append(sub, f.records[i])
	}
	cut := len(sub) * 2 / 3
	first, second = sub[:cut:cut], sub[cut:]
	for i := 1; i < 400; i += 8 {
		second = append(second, f.records[i])
	}
	return first, second
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenCut ingests the two rounds into a fresh 2-shard store and
// checkpoints into dir after each.
func goldenCut(t *testing.T, f *fixture, dir string) {
	t.Helper()
	store, err := NewStore(goldenConfig(f, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	first, second := goldenBatches(f)
	for _, batch := range [][]logfmt.Record{first, second} {
		if _, err := store.add(batch, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func goldenPartitionDigest(t *testing.T, f *fixture) string {
	t.Helper()
	cfg := goldenConfig(f, 1)
	p, err := timewin.New(timewin.Config{Options: cfg.Options, Bucket: cfg.Bucket, Retain: cfg.Retain})
	if err != nil {
		t.Fatal(err)
	}
	first, second := goldenBatches(f)
	for _, batch := range [][]logfmt.Record{first, second} {
		for i := range batch {
			p.Observe(&batch[i])
		}
	}
	if m := p.Meta(); m.TailRecords == 0 || len(m.Buckets) == 0 {
		t.Fatalf("golden partition has %d tail records and %d live buckets; it must have both", m.TailRecords, len(m.Buckets))
	}
	return sha256Hex(p.MarshalState())
}

func goldenDocDigests(t *testing.T, f *fixture, store *Store) map[string]string {
	t.Helper()
	snap, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, id := range render.Order() {
		doc, err := render.Render(id, render.Context{An: snap.An, Gen: f.gen})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := render.EncodeJSON(doc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		docs[id] = sha256Hex(b)
	}
	return docs
}

func goldenShardFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "gen-*", "shard-*"+shardFileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		if files[i], err = filepath.Rel(dir, files[i]); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestGoldenCheckpoint pins the on-disk checkpoint bytes across commits.
// testdata/ckpt-sfck2 was written by the commit before the partition
// became a run of segments (fcf7ea9), with this file copied into a clone
// of it:
//
//	go test ./internal/serve -run 'TestGoldenCheckpoint$' -update
//
// It holds two generations of a 2-shard, all-module, exact-mode store
// with a compacted tail. The test restores it at 1, 2 and 4 shards and
// compares every doc's digest, compares the canonical MarshalState of a
// partition fed the same records, and cuts the same records again with
// the code under test: the shard files must come out byte for byte
// (MANIFEST.json carries created_unix and is not compared). The frames
// are compress/gzip BestSpeed output, so a toolchain that changes deflate
// moves them too; the digests say whether anything else did.
func TestGoldenCheckpoint(t *testing.T) {
	f := corpus(t)
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		goldenCut(t, f, goldenDir)
		store, err := NewStore(goldenConfig(f, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if _, err := store.Restore(goldenDir); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(goldenDigests{
			Docs:           goldenDocDigests(t, f, store),
			PartitionState: goldenPartitionDigest(t, f),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "digests.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var want goldenDigests
	b, err := os.ReadFile(filepath.Join(goldenDir, "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Docs) != len(render.Order()) {
		t.Fatalf("golden digests cover %d docs, want %d", len(want.Docs), len(render.Order()))
	}
	first, second := goldenBatches(f)
	records := uint64(len(first) + len(second))

	for _, shards := range []int{1, 2, 4} {
		store, err := NewStore(goldenConfig(f, shards))
		if err != nil {
			t.Fatal(err)
		}
		info, err := store.Restore(goldenDir)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if info.Generation != "gen-00000002" || info.Records != records {
			t.Errorf("shards=%d: restored %s with %d records, want gen-00000002 with %d", shards, info.Generation, info.Records, records)
		}
		for id, got := range goldenDocDigests(t, f, store) {
			if got != want.Docs[id] {
				t.Errorf("shards=%d: %s renders differently from the golden checkpoint's writer", shards, id)
			}
		}
		store.Close()
	}

	if got := goldenPartitionDigest(t, f); got != want.PartitionState {
		t.Errorf("MarshalState digest %s, golden %s", got, want.PartitionState)
	}

	recut := t.TempDir()
	goldenCut(t, f, recut)
	files := goldenShardFiles(t, goldenDir)
	if len(files) != 4 {
		t.Fatalf("golden checkpoint holds shard files %v, want two generations of two", files)
	}
	var size int64
	for _, name := range files {
		wantBytes, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(recut, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s: re-cut file (%d bytes) differs from the golden one (%d bytes)", name, len(gotBytes), len(wantBytes))
		}
		size += int64(len(wantBytes))
	}
	if size > 256<<10 {
		t.Errorf("golden shard files total %d bytes, keep them under 256 KB", size)
	}
}
