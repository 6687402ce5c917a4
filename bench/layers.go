package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/pipeline"
	"syriafilter/internal/render"
	"syriafilter/internal/serve"
	"syriafilter/internal/timewin"
)

// probeRequests is the size of the fixed slice of the corpus the
// in-process probes run over (see corpus.sample), read into memory
// before anything is timed.
const probeRequests = 40_000

// discoveryIDs are the experiments that run keyword/domain discovery
// at render time: the docs ROADMAP calls slow.
var discoveryIDs = map[string]bool{
	"table8": true, "table9": true, "table10": true, "bt": true, "probing": true, "groundtruth": true,
}

// probes times calls into each package's public functions, one layer at
// a time, over the same records. Every method runs its layer once over
// the whole slice and returns how long the layer's own work took
// (construction of the values it works on is left out).
type probes struct {
	w     *world
	mods  []string // the workload's module subset (nil = all)
	ids   []string
	dir   string
	paths []string // the slice as files, for pipeline.RunFilesBlocks
	data  []byte   // the slice as one stream
	recs  []logfmt.Record

	an    *core.Analyzer     // observe's result
	part  *timewin.Partition // partition's result
	store *serve.Store       // storeAdd's result
	srv   *serve.Server
	docs  []*render.Doc // renderDocs' result
	prev  []*render.Doc // the same docs over the first half of the records
}

func (r *run) newProbes() (*probes, error) {
	w, err := r.world()
	if err != nil {
		return nil, err
	}
	p := &probes{w: w, mods: r.w.modules(), ids: r.w.IDs, dir: filepath.Join(r.work, "probe")}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	for i, part := range r.corpus.sample(probeRequests) {
		path := filepath.Join(p.dir, fmt.Sprintf("part-%d.csv", i))
		if err := os.WriteFile(path, part, 0o644); err != nil {
			return nil, err
		}
		p.paths = append(p.paths, path)
		p.data = append(p.data, part...)
	}
	for _, blk := range p.blocks() {
		if _, err := logfmt.ParseBlock(blk, false, func(rec *logfmt.Record) { p.recs = append(p.recs, *rec) }); err != nil {
			return nil, err
		}
	}
	half, err := core.NewAnalyzerFor(w.opt, p.mods...)
	if err != nil {
		return nil, err
	}
	for i := range p.recs[:len(p.recs)/2] {
		half.Observe(&p.recs[i])
	}
	if p.prev, err = p.renderWith(half); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *probes) close() {
	if p.store != nil {
		p.store.Close()
	}
}

// blocks cuts the slice the way BlockReader would, over memory the
// probe owns (these blocks are never Released).
func (p *probes) blocks() []logfmt.Block {
	var out []logfmt.Block
	line := 1
	for _, b := range lineSlices(p.data, logfmt.DefaultBlockSize) {
		out = append(out, logfmt.Block{Data: b, FirstLine: line})
		line += bytes.Count(b, []byte{'\n'})
	}
	return out
}

func (p *probes) read() time.Duration {
	br := logfmt.NewBlockReader(bytes.NewReader(p.data))
	t0 := time.Now()
	for {
		blk, ok := br.Next()
		if !ok {
			break
		}
		blk.Release()
	}
	return time.Since(t0)
}

func (p *probes) parse() time.Duration {
	blocks := p.blocks()
	t0 := time.Now()
	for _, blk := range blocks {
		logfmt.ParseBlock(blk, false, func(*logfmt.Record) {})
	}
	return time.Since(t0)
}

func (p *probes) observeWith(mods []string) (*core.Analyzer, time.Duration) {
	an, err := core.NewAnalyzerFor(p.w.opt, mods...)
	must(err)
	t0 := time.Now()
	for i := range p.recs {
		an.Observe(&p.recs[i])
	}
	return an, time.Since(t0)
}

func (p *probes) observe() (d time.Duration) {
	p.an, d = p.observeWith(p.mods)
	return d
}

func (p *probes) observeModule(m string) time.Duration {
	_, d := p.observeWith([]string{m})
	return d
}

func (p *probes) partition() time.Duration {
	part, err := timewin.New(timewin.Config{Options: p.w.opt, Metrics: p.mods, Bucket: time.Hour})
	must(err)
	t0 := time.Now()
	for i := range p.recs {
		part.Observe(&p.recs[i])
	}
	p.part = part
	return time.Since(t0)
}

func (p *probes) newStore() *serve.Store {
	if p.store != nil {
		p.store.Close()
	}
	st, err := serve.NewStore(serve.Config{Options: p.w.opt, Metrics: p.mods})
	must(err)
	p.store = st
	p.srv = serve.NewServer(st, p.w.gen)
	return st
}

// drain waits until every shard has applied what was enqueued before
// it: a range query over a window that holds nothing runs one no-op on
// each shard goroutine, behind the queued batches.
func drain(st *serve.Store) {
	_, _, err := st.Range(timewin.Window{From: 1, To: 2})
	must(err)
}

// storeAdd is routing plus shard apply: records go in through AddCtx in
// pipeline-sized batches, and the clock stops when the shards have
// folded them.
func (p *probes) storeAdd() time.Duration {
	st := p.newStore()
	ctx := context.Background()
	t0 := time.Now()
	for lo := 0; lo < len(p.recs); lo += pipeline.BatchSize {
		_, err := st.AddCtx(ctx, p.recs[lo:min(lo+pipeline.BatchSize, len(p.recs))])
		must(err)
	}
	drain(st)
	return time.Since(t0)
}

func (p *probes) storeIngestBlocks() time.Duration {
	st := p.newStore()
	t0 := time.Now()
	_, _, err := st.IngestBlocks(logfmt.NewBlockReader(bytes.NewReader(p.data)), 0)
	must(err)
	drain(st)
	return time.Since(t0)
}

// refresh cuts a snapshot of a freshly filled store; refreshNoop cuts
// again with nothing new, which must be skipped.
func (p *probes) refresh() time.Duration {
	p.storeAdd()
	t0 := time.Now()
	_, err := p.store.Refresh()
	must(err)
	return time.Since(t0)
}

func (p *probes) refreshNoop() time.Duration {
	t0 := time.Now()
	_, err := p.store.Refresh()
	must(err)
	return time.Since(t0)
}

func (p *probes) checkpoint() time.Duration {
	dir := filepath.Join(p.dir, "ckpt")
	os.RemoveAll(dir)
	t0 := time.Now()
	_, err := p.store.Checkpoint(dir)
	must(err)
	return time.Since(t0)
}

func (p *probes) restore() time.Duration {
	st := p.newStore()
	t0 := time.Now()
	_, err := st.Restore(filepath.Join(p.dir, "ckpt"))
	must(err)
	return time.Since(t0)
}

func (p *probes) serve(id string) int {
	rw := httptest.NewRecorder()
	p.srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/experiments/"+id, nil))
	return rw.Code
}

// handlerCold serves every doc once right after a cut (each a cache
// miss: render + encode); handlerHit serves them again (each a hit).
func (p *probes) handlerCold() time.Duration {
	p.refresh()
	t0 := time.Now()
	for _, id := range p.ids {
		if code := p.serve(id); code != http.StatusOK {
			must(fmt.Errorf("in-process GET %s: status %d", id, code))
		}
	}
	return time.Since(t0)
}

func (p *probes) handlerHit() time.Duration {
	const rounds = 20
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, id := range p.ids {
			p.serve(id)
		}
	}
	return time.Since(t0) / time.Duration(rounds*len(p.ids))
}

func (p *probes) renderWith(an *core.Analyzer) ([]*render.Doc, error) {
	var docs []*render.Doc
	for _, id := range p.ids {
		doc, err := render.Render(id, render.Context{An: an, Gen: p.w.gen})
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

func (p *probes) renderDocs() time.Duration {
	t0 := time.Now()
	docs, err := p.renderWith(p.an)
	must(err)
	p.docs = docs
	return time.Since(t0)
}

func (p *probes) renderDiscovery() time.Duration {
	t0 := time.Now()
	for _, id := range p.ids {
		if discoveryIDs[id] {
			_, err := render.Render(id, render.Context{An: p.an, Gen: p.w.gen})
			must(err)
		}
	}
	return time.Since(t0)
}

func (p *probes) encode() (time.Duration, int) {
	total := 0
	t0 := time.Now()
	for _, doc := range p.docs {
		b, err := render.EncodeJSON(doc)
		must(err)
		total += len(b)
	}
	return time.Since(t0), total
}

func (p *probes) diff() time.Duration {
	t0 := time.Now()
	for i, doc := range p.docs {
		render.Diff(p.prev[i], doc)
	}
	return time.Since(t0)
}

// allocsDuring counts heap allocations fn makes.
func allocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// probeFailure carries an error out of a probe method; layerProbes
// turns it back into a returned error. The probes time bare calls in
// tight sequences, and an error return on each would put a branch and a
// second result into every timed closure.
type probeFailure struct{ err error }

func must(err error) {
	if err != nil {
		panic(probeFailure{err})
	}
}

// layerProbes fills in the in-process per-layer metrics and then traces
// one record life through the same layers.
func (r *run) layerProbes() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			pf, ok := rec.(probeFailure)
			if !ok {
				panic(rec)
			}
			err = pf.err
		}
	}()
	p, err := r.newProbes()
	if err != nil {
		return err
	}
	defer p.close()
	n := float64(len(p.recs))
	mb := float64(len(p.data)) / 1e6
	// med warms fn once, then reports the median of probeRepeat runs.
	med := func(fn func() time.Duration) time.Duration {
		fn()
		var s []float64
		for i := 0; i < r.plan.probeRepeat; i++ {
			s = append(s, float64(fn()))
		}
		return time.Duration(median(s))
	}
	nsPerRec := func(d time.Duration) float64 { return float64(d) / n }

	read, parse, observe := med(p.read), med(p.parse), med(p.observe)
	r.res.put("logfmt.read.ns_per_rec", nsPerRec(read))
	r.res.put("logfmt.parse.ns_per_rec", nsPerRec(parse))
	r.res.put("logfmt.parse.allocs_per_rec", allocsDuring(func() { p.parse() })/n)
	r.res.put("core.observe.ns_per_rec", nsPerRec(observe))
	r.res.put("core.observe.allocs_per_rec", allocsDuring(func() { p.observe() })/n)
	for _, m := range core.AllMetrics() {
		r.res.put("core.observe."+m+".ns_per_rec", nsPerRec(med(func() time.Duration { return p.observeModule(m) })))
	}

	pipe := func(workers int) func() time.Duration {
		return func() time.Duration {
			t0 := time.Now()
			_, _, err := p.w.analyzeFiles(p.paths, p.mods, workers)
			must(err)
			return time.Since(t0)
		}
	}
	w1, wn := med(pipe(1)), med(pipe(runtime.NumCPU()))
	r.res.put("pipeline.w1_mb_s", mb/w1.Seconds())
	r.res.put("pipeline.wn_mb_s", mb/wn.Seconds())
	r.res.put("pipeline.scaling", w1.Seconds()/wn.Seconds())
	r.res.put("pipeline.overhead_ns_per_rec", nsPerRec(w1-read-parse-observe))

	fresh := func() *core.Analyzer {
		a, err := core.NewAnalyzerFor(p.w.opt, p.mods...)
		must(err)
		return a
	}
	r.res.put("core.merge.s", med(func() time.Duration {
		dst := fresh()
		t0 := time.Now()
		dst.Merge(p.an)
		return time.Since(t0)
	}).Seconds())
	var state []byte
	r.res.put("core.marshal_state.s", med(func() time.Duration {
		t0 := time.Now()
		state = p.an.MarshalState()
		return time.Since(t0)
	}).Seconds())
	r.res.put("core.state_bytes", float64(len(state)))
	r.res.put("core.unmarshal_state.s", med(func() time.Duration {
		dst := fresh()
		t0 := time.Now()
		must(dst.UnmarshalState(state))
		return time.Since(t0)
	}).Seconds())

	r.res.put("timewin.observe.ns_per_rec", nsPerRec(med(p.partition)-observe))
	r.res.put("timewin.buckets", float64(p.part.Buckets()))
	r.res.put("timewin.all_into.s", med(func() time.Duration {
		dst := fresh()
		t0 := time.Now()
		p.part.AllInto(dst.Engine)
		return time.Since(t0)
	}).Seconds())
	threeDays, err := timewin.ParseWindow("2011-08-02", "2011-08-05")
	if err != nil {
		return err
	}
	r.res.put("timewin.range_into.s", med(func() time.Duration {
		dst := fresh()
		t0 := time.Now()
		_, err := p.part.RangeInto(dst.Engine, threeDays)
		must(err)
		return time.Since(t0)
	}).Seconds())
	r.res.put("timewin.marshal_state.s", med(func() time.Duration {
		t0 := time.Now()
		p.part.MarshalState()
		return time.Since(t0)
	}).Seconds())

	r.res.put("serve.store.add.ns_per_rec", nsPerRec(med(p.storeAdd)))
	r.res.put("serve.store.ingest_blocks.mb_s", mb/med(p.storeIngestBlocks).Seconds())
	r.res.put("serve.store.refresh.s", med(p.refresh).Seconds())
	r.res.put("serve.store.refresh_noop.s", med(p.refreshNoop).Seconds())
	r.res.put("serve.store.checkpoint.s", med(p.checkpoint).Seconds())
	r.res.put("serve.store.restore.s", med(p.restore).Seconds())
	r.res.put("serve.handler.cold.s", med(p.handlerCold).Seconds())
	r.res.put("serve.handler.hit.ns", float64(med(p.handlerHit)))

	r.res.put("render.all.s", med(p.renderDocs).Seconds())
	r.res.put("render.discovery.s", med(p.renderDiscovery).Seconds())
	var docBytes int
	r.res.put("render.encode.s", med(func() (d time.Duration) {
		d, docBytes = p.encode()
		return d
	}).Seconds())
	r.res.put("render.doc_bytes", float64(docBytes))
	r.res.put("render.diff.s", med(p.diff).Seconds())

	r.recordLife(p)
	return nil
}

// recordLife walks the slice through the layers once more, in the order
// a record meets them, with a span around each call: one trace whose
// stages must account for (nearly) the whole of it.
func (r *run) recordLife(p *probes) {
	trace := newTraceID()
	root := r.rec.begin(trace, 0, "record_life")
	stage := func(parent uint64, name string, fn func()) {
		sp := r.rec.begin(trace, parent, name)
		fn()
		r.rec.end(sp)
	}
	stage(root, "logfmt.read", func() { p.read() })
	stage(root, "logfmt.parse", func() { p.parse() })
	// core.observe is the sum of its modules, each folded on its own:
	// the children attribute the engine's time, the span adds nothing.
	obs := r.rec.begin(trace, root, "core.observe")
	mods := p.mods
	if mods == nil {
		mods = core.AllMetrics()
	}
	for _, m := range mods {
		stage(obs, "core.observe."+m, func() { p.observeModule(m) })
	}
	r.rec.end(obs)
	stage(root, "timewin.observe", func() { p.partition() })
	stage(root, "serve.store.add", func() { p.storeAdd() })
	stage(root, "serve.store.refresh", func() {
		_, err := p.store.Refresh()
		must(err)
	})
	stage(root, "render.render", func() { p.renderDocs() })
	stage(root, "render.encode", func() { p.encode() })
	stage(root, "render.diff", func() { p.diff() })
	r.rec.end(root)

	share := descendantSelfShare(r.rec.spans, root)
	r.res.put("trace.record_life.self_share", share)
	r.res.op(share >= 0.9, "record_life: stages cover %.3f of the trace, want >= 0.9", share)
}
