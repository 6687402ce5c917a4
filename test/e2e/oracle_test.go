package e2e

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/render"
	"syriafilter/internal/synth"
)

// corpusSeed/corpusRequests pin the synthetic world shared by the
// oracle and every daemon it boots (-seed/-requests must match or the
// derived category DB and consensus diverge).
const (
	corpusSeed     = 1
	corpusRequests = 60_000
)

// world is the oracle's ground truth: the full corpus, the generator
// the daemon derives its databases from, and the analyzer options a
// batch reference run uses.
type world struct {
	gen     *synth.Generator
	records []logfmt.Record
	opt     core.Options
	minTime int64
	maxTime int64
}

var (
	worldOnce sync.Once
	theWorld  *world
)

func loadWorld(t *testing.T) *world {
	t.Helper()
	worldOnce.Do(func() {
		gen, err := synth.New(synth.Config{Seed: corpusSeed, TotalRequests: corpusRequests})
		if err != nil {
			return
		}
		w := &world{gen: gen, opt: core.Options{
			Categories: gen.CategoryDB(),
			Consensus:  gen.Consensus(),
			TitleDB:    bittorrent.NewTitleDB(),
		}}
		proxysim.Emit(gen, func(rec *logfmt.Record) {
			if w.minTime == 0 || rec.Time < w.minTime {
				w.minTime = rec.Time
			}
			if rec.Time > w.maxTime {
				w.maxTime = rec.Time
			}
			w.records = append(w.records, *rec)
		})
		theWorld = w
	})
	if theWorld == nil {
		t.Fatal("synthetic world failed to build")
	}
	return theWorld
}

// model is the oracle's running mirror of the daemon: an incremental
// batch analyzer over every acked record, plus a rendered-doc cache
// keyed by (experiment id, acked count).
type model struct {
	t     *testing.T
	w     *world
	an    *core.Analyzer
	acked uint64 // records acknowledged by the daemon, = an's input prefix

	docCache map[string][]byte // id → JSON body at docCount
	docCount uint64
}

func newModel(t *testing.T, w *world) *model {
	return &model{t: t, w: w, an: core.NewAnalyzer(w.opt), docCache: map[string][]byte{}}
}

// ack folds the next n records (the batch the daemon just acknowledged)
// into the analyzer.
func (m *model) ack(n uint64) {
	for i := m.acked; i < m.acked+n; i++ {
		m.an.Observe(&m.w.records[i])
	}
	m.acked += n
}

// doc renders one experiment over every acked record, as the daemon's
// JSON endpoint would emit it (json.Marshal + newline).
func (m *model) doc(id string) []byte {
	m.t.Helper()
	if m.docCount != m.acked {
		m.docCache = map[string][]byte{}
		m.docCount = m.acked
	}
	if b, ok := m.docCache[id]; ok {
		return b
	}
	doc, err := render.Render(id, render.Context{An: m.an, Gen: m.w.gen})
	if err != nil {
		m.t.Fatalf("model render %s: %v", id, err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		m.t.Fatal(err)
	}
	b = append(b, '\n')
	m.docCache[id] = b
	return b
}

// rangeDoc renders one experiment over the acked records inside the
// half-open window [from, to) — the model for /v1/range with a
// bucket-aligned window.
func (m *model) rangeDoc(id string, from, to int64) []byte {
	m.t.Helper()
	an := core.NewAnalyzer(m.w.opt)
	for i := uint64(0); i < m.acked; i++ {
		if t := m.w.records[i].Time; t >= from && t < to {
			an.Observe(&m.w.records[i])
		}
	}
	doc, err := render.Render(id, render.Context{An: an, Gen: m.w.gen})
	if err != nil {
		m.t.Fatalf("model range render %s: %v", id, err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		m.t.Fatal(err)
	}
	return append(b, '\n')
}

// encodeCSV renders records in the on-the-wire log format, optionally
// gzipped.
func encodeCSV(t *testing.T, recs []logfmt.Record, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w *logfmt.Writer
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(&buf)
		w = logfmt.NewWriter(zw)
	} else {
		w = logfmt.NewWriter(&buf)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// ledger mirrors the durable state the daemon leaves on disk: which
// generation directories exist, how many acked records each one
// covers, which bucket width wrote it, and which ones the chaos loop
// has corrupted. Restores are predicted by replaying exactly the
// daemon's fallback walk over this mirror.
type ledger struct {
	t       *testing.T
	dir     string
	gens    map[string]genFact // generation dir name → facts
	pending *pendingCkpt       // checkpoint racing a SIGKILL, unresolved
}

type genFact struct {
	records   uint64
	bucket    time.Duration
	corrupted bool
}

type pendingCkpt struct {
	acked  uint64 // records acked when the checkpoint was requested
	bucket time.Duration
}

func newLedger(t *testing.T, dir string) *ledger {
	return &ledger{t: t, dir: dir, gens: map[string]genFact{}}
}

// confirm records a checkpoint the daemon acknowledged with 200 (the
// response names the generation and its record count).
func (l *ledger) confirm(generation string, records uint64, bucket time.Duration) {
	l.gens[generation] = genFact{records: records, bucket: bucket}
}

// diskGens lists the complete (non-.tmp) generation directories,
// oldest first.
func (l *ledger) diskGens() []string {
	l.t.Helper()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		l.t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // gen-%08d: lexicographic == numeric
	return names
}

// reconcile scans the checkpoint dir after the daemon stopped and
// resolves any generation the ledger has not confirmed over HTTP: at
// most one unknown can appear per stop — the final SIGTERM checkpoint
// (covers totalAcked) or a mid-kill checkpoint that won its race
// (covers the acked count at the request). Returns the on-disk
// generation names, oldest first.
func (l *ledger) reconcile(totalAcked uint64, bucket time.Duration, graceful bool) []string {
	l.t.Helper()
	names := l.diskGens()
	var unknown []string
	for _, name := range names {
		if _, ok := l.gens[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	switch {
	case len(unknown) == 0:
	case len(unknown) == 1:
		switch {
		case graceful:
			l.gens[unknown[0]] = genFact{records: totalAcked, bucket: bucket}
		case l.pending != nil:
			l.gens[unknown[0]] = genFact{records: l.pending.acked, bucket: l.pending.bucket}
		default:
			l.t.Fatalf("generation %s appeared without any checkpoint in flight", unknown[0])
		}
	default:
		l.t.Fatalf("%d unconfirmed generations appeared at once: %v", len(unknown), unknown)
	}
	l.pending = nil
	// Forget pruned generations so the mirror stays exact.
	onDisk := map[string]bool{}
	for _, name := range names {
		onDisk[name] = true
	}
	for name := range l.gens {
		if !onDisk[name] {
			delete(l.gens, name)
		}
	}
	return names
}

// expectRestore replays the daemon's restore walk over the mirrored
// generations: newest to oldest, skipping corrupted directories and
// bucket-width mismatches, 0 on a cold boot. Also returns how many
// generations the walk must skip (the restore-fallback count floor).
func (l *ledger) expectRestore(bucket time.Duration) (records uint64, skipped int) {
	names := l.diskGens()
	for i := len(names) - 1; i >= 0; i-- {
		g, ok := l.gens[names[i]]
		if !ok {
			l.t.Fatalf("expectRestore before reconcile: %s unknown", names[i])
		}
		if g.corrupted || g.bucket != bucket {
			skipped++
			continue
		}
		return g.records, skipped
	}
	return 0, skipped
}

// corruptNewest damages the newest generation (or the manifest) while
// the daemon is down. Returns a description of what it did, and
// whether a generation (rather than just the manifest) was hit.
func (l *ledger) corruptNewest(mode int) (string, bool) {
	l.t.Helper()
	names := l.diskGens()
	if len(names) == 0 {
		return "", false
	}
	newest := names[len(names)-1]
	switch mode % 3 {
	case 0: // truncate the manifest: advisory, costs nothing
		path := filepath.Join(l.dir, "MANIFEST.json")
		if err := os.Truncate(path, 7); err != nil {
			l.t.Fatal(err)
		}
		return "truncated MANIFEST.json", false
	case 1: // truncate a shard file in the newest generation
		path := l.anyShardFile(newest)
		if err := os.Truncate(path, 16); err != nil {
			l.t.Fatal(err)
		}
		g := l.gens[newest]
		g.corrupted = true
		l.gens[newest] = g
		return "truncated " + path, true
	default: // garble gzip bytes mid-file
		path := l.anyShardFile(newest)
		b, err := os.ReadFile(path)
		if err != nil {
			l.t.Fatal(err)
		}
		for i := len(b) / 2; i < len(b)/2+16 && i < len(b); i++ {
			b[i] ^= 0xff
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			l.t.Fatal(err)
		}
		g := l.gens[newest]
		g.corrupted = true
		l.gens[newest] = g
		return "garbled " + path, true
	}
}

func (l *ledger) anyShardFile(gen string) string {
	l.t.Helper()
	entries, err := os.ReadDir(filepath.Join(l.dir, gen))
	if err != nil {
		l.t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") && strings.HasSuffix(e.Name(), ".ckpt") {
			return filepath.Join(l.dir, gen, e.Name())
		}
	}
	l.t.Fatalf("generation %s holds no shard files", gen)
	return ""
}

// alignedWindow picks a random bucket-aligned half-open window
// overlapping the corpus span. Bucket alignment matters: /v1/range
// merges whole buckets, so only aligned windows have an exact
// record-filter model.
func alignedWindow(rnd interface{ Intn(int) int }, w *world, bucket time.Duration) (int64, int64) {
	bs := int64(bucket / time.Second)
	lo := w.minTime / bs
	hi := w.maxTime/bs + 1
	n := int(hi - lo)
	a := lo + int64(rnd.Intn(n))
	b := a + 1 + int64(rnd.Intn(n-int(a-lo)))
	return a * bs, b * bs
}
