package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// plan gives every phase of one run its share of the measuring time.
// A phase takes as many samples as fit into its share (never fewer than
// its floor), so a workload whose operations are quick gets more of
// them, not a shorter run.
type plan struct {
	boots       int           // corpus generations and cold boots (setup_s, boot_mb_s)
	batch       time.Duration // censorlyzer processes, back to back
	saturate    time.Duration // closed-loop ingest, in whole 1-s windows
	paced       time.Duration // open-loop ingest
	hit         time.Duration // cached reads, in half-second windows
	rounds      time.Duration // refresh rounds (visible, cold sweep, range sweep)
	restarts    time.Duration // checkpoint / terminate / restore rounds
	probeRepeat int           // repetitions of each in-process probe
}

// Sample-count floors and caps of the count-based phases.
const (
	minBatchRuns = 3
	minRounds    = 3
	maxRounds    = 100 // bounds the bodies the final batch oracle re-reads
	minRestarts  = 2
	maxRestarts  = 30
)

func planFor(seconds float64, traced bool) plan {
	if traced {
		// The traced run is short by design: about three seconds of
		// ingest load under the span recorder, the floors elsewhere, then
		// the in-process probes.
		return plan{boots: 1, batch: time.Second, saturate: 2 * time.Second, paced: time.Second,
			hit: time.Second, rounds: time.Second, restarts: 0, probeRepeat: 5}
	}
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return plan{
		boots:    3,
		batch:    share(0.20),
		saturate: share(0.20).Truncate(time.Second),
		paced:    share(0.10),
		hit:      share(0.15),
		rounds:   share(0.20),
		restarts: share(0.10),
	}
}

// results accumulates everything one run measures.
type results struct {
	values    map[string]float64
	summaries map[string]summary

	mu        sync.Mutex // load goroutines count operations concurrently
	attempted int
	failed    int
	failures  []string
	noisy     []string
}

func newResults() *results {
	return &results{values: map[string]float64{}, summaries: map[string]summary{}}
}

// op counts one operation — a process run, a request, an oracle
// comparison — and records why it failed when it did.
func (r *results) op(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "FAIL:", msg)
	}
	return ok
}

// ops counts a batch of operations a hot loop tallied on its own.
func (r *results) ops(attempted int, failures []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += len(failures)
	r.failures = append(r.failures, failures...)
	for _, msg := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", msg)
	}
}

func (r *results) put(name string, v float64) { r.values[name] = v }

// putMedian reports the median of samples and keeps their quartiles.
func (r *results) putMedian(name string, samples []float64) {
	r.values[name] = median(samples)
	r.summaries[name] = summarize(samples)
}

// putPercentile reports a tail percentile and keeps the quartiles.
func (r *results) putPercentile(name string, samples []float64, p float64) {
	r.values[name] = percentile(samples, p)
	r.summaries[name] = summarize(samples)
}

// run is the state of one benchmark run: one workload, one seed.
type run struct {
	w       workload
	seed    uint64
	plan    plan
	traced  bool
	work    string // scratch directory, removed when the run ends
	logs    string // daemon logs survive the run
	bins    binaries
	rec     *recorder // nil unless traced
	speed   *speedometer
	res     *results
	prov    *provenance
	corpus  *corpus
	gens    []timed // syngen wall seconds, one per generation
	records uint64  // records in the corpus

	// batchDocs is censorlyzer -json's output by experiment id: the
	// reference every daemon body is compared with.
	batchDocs map[string][]byte

	loadWall time.Duration
	loadCPU  float64
	maxConns int
}

func (r *run) seedArg() string     { return strconv.FormatUint(r.seed, 10) }
func (r *run) requestsArg() string { return strconv.Itoa(r.w.Requests) }

// loadStart/loadEnd bracket the phases in which the harness generates
// load, so its CPU share of the box can be reported.
func (r *run) loadStart() (time.Time, float64) { return time.Now(), selfCPU() }
func (r *run) loadEnd(t0 time.Time, cpu0 float64, conns int) {
	r.loadWall += time.Since(t0)
	r.loadCPU += selfCPU() - cpu0
	r.maxConns = max(r.maxConns, conns)
}

// execute runs every phase in order. An error aborts the run (nothing
// sensible can be measured after, say, a daemon that will not boot);
// wrong outputs do not abort, they count as failed operations.
func (r *run) execute() error {
	r.speed = startSpeedometer()
	defer r.speed.close()
	began := time.Now()

	phase := func(name string, fn func() error) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "phase %-12s %6.2fs\n", name, time.Since(t0).Seconds())
		return nil
	}
	if err := phase("setup", r.setup); err != nil {
		return err
	}
	if err := phase("batch", r.batchPhase); err != nil {
		return err
	}
	if err := phase("serve ingest", r.ingestPhase); err != nil {
		return err
	}
	if err := phase("serve read", r.readPhase); err != nil {
		return err
	}
	if r.traced {
		if err := phase("layer probes", r.layerProbes); err != nil {
			return err
		}
	}

	r.res.put("gen.cpu_share", r.loadCPU/(r.loadWall.Seconds()*float64(r.prov.NProc)))
	r.res.put("gen.connections", float64(r.maxConns))
	// The speedometer doubles as the calibration pair: its mean reading
	// over the first and the last seconds of the run.
	const edge = 3 * time.Second
	r.res.put("env.calib_before_s", r.speed.factor(began, began.Add(edge))*speedRefNs/1e9)
	r.res.put("env.calib_after_s", r.speed.factor(time.Now().Add(-edge), time.Now())*speedRefNs/1e9)
	r.judgeNoise()
	return nil
}

// setup generates the corpus plan.boots times (the repeats only feed
// the setup_s median) and loads the last one.
func (r *run) setup() error {
	dir := filepath.Join(r.work, "corpus")
	for i := 0; i < r.plan.boots; i++ {
		d, err := generate(r.bins.syngen, dir, r.w.Requests, r.seed)
		if err != nil {
			return err
		}
		r.gens = append(r.gens, d)
	}
	c, err := loadCorpus(dir)
	if err != nil {
		return err
	}
	r.corpus = c
	for _, d := range c.data {
		r.records += countRecords(d)
	}
	r.prov.CorpusBytes, r.prov.CorpusRecords = c.bytes, r.records
	r.res.put("synth.generate.recs_per_s", float64(r.records)/median(values(r.gens)))
	r.res.put("logfmt.bytes_per_rec", float64(c.bytes)/float64(r.records))
	return nil
}

// judgeNoise marks a run whose numbers should not be compared: the box
// changed speed under it, or the load generator took too much of it.
func (r *run) judgeNoise() {
	before, after := r.res.values["env.calib_before_s"], r.res.values["env.calib_after_s"]
	if d := math.Abs(after-before) / before; d > 0.15 {
		r.res.noisy = append(r.res.noisy, fmt.Sprintf("box speed moved %.0f%% between the start and the end of the run", 100*d))
	}
	if s := r.res.values["gen.cpu_share"]; s > 0.25 {
		r.res.noisy = append(r.res.noisy, fmt.Sprintf("load generator used %.0f%% of the box", 100*s))
	}
}

func (r *run) mbPerS(d time.Duration) float64 {
	return float64(r.corpus.bytes) / 1e6 / d.Seconds()
}

// putTimed reports an end-to-end timing at reference box speed: the
// median of the samples after norm scaled each by the speedometer's
// factor over its own interval. The median of the samples as measured
// is kept beside it as raw.<name>.
func (r *run) putTimed(name string, samples []timed, norm func(timed) float64) {
	scaled := make([]float64, len(samples))
	for i, s := range samples {
		scaled[i] = norm(s)
	}
	r.res.putMedian(name, scaled)
	r.res.putMedian("raw."+name, values(samples))
}

func (r *run) putDurations(name string, samples []timed) { r.putTimed(name, samples, r.speed.duration) }
func (r *run) putRates(name string, samples []timed)     { r.putTimed(name, samples, r.speed.rate) }
