package timewin

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// stateCorpus spreads records over several days so a retained partition
// has both a compacted tail and a live ring.
func stateCorpus() []int64 {
	var times []int64
	for day := 0; day < 6; day++ {
		for h := 0; h < 24; h += 2 {
			times = append(times, base+int64(day)*86400+int64(h)*3600+int64(day*7+h)%1800)
		}
	}
	return times
}

// fillPartition folds deterministic records for times into p. off is
// the position of times[0] in the overall corpus, so split ingests
// (times[:k] at 0, times[k:] at k) generate exactly the records of one
// whole-corpus ingest.
func fillPartition(p *Partition, off int, times []int64) {
	for j, ts := range times {
		i := off + j
		rec := mkRec(ts, "site-"+strings.Repeat("x", i%3+1)+".example.com", i%5 == 0)
		p.Observe(&rec)
	}
}

// restore(checkpoint(P)) must reproduce P: identical Meta (bucket ring
// + tail span), identical all-time results, identical range results,
// and a byte-identical re-encoding.
func TestPartitionStateRoundTrip(t *testing.T) {
	for _, retain := range []time.Duration{0, 36 * time.Hour} {
		p := newPartition(t, time.Hour, retain)
		fillPartition(p, 0, stateCorpus())
		state := p.MarshalState()

		q := newPartition(t, time.Hour, retain)
		if err := q.UnmarshalState(state); err != nil {
			t.Fatalf("retain=%v: %v", retain, err)
		}

		pm, qm := p.Meta(), q.Meta()
		if len(pm.Buckets) != len(qm.Buckets) || pm.TailRecords != qm.TailRecords ||
			pm.TailFromUnix != qm.TailFromUnix || pm.TailToUnix != qm.TailToUnix {
			t.Errorf("retain=%v: Meta differs:\n got %+v\nwant %+v", retain, qm, pm)
		}
		if p.Records() != q.Records() {
			t.Errorf("retain=%v: Records: got %d, want %d", retain, q.Records(), p.Records())
		}

		pa, qa := newEngine(t), newEngine(t)
		p.AllInto(pa)
		q.AllInto(qa)
		sameResults(t, qa, pa)
		if !bytes.Equal(pa.MarshalState(), qa.MarshalState()) {
			t.Errorf("retain=%v: all-time engine state bytes differ after restore", retain)
		}

		// Range query over a live sub-window (inside the retained ring
		// for both retain settings) agrees too.
		w := Window{From: base + 5*86400, To: base + 6*86400}
		pr, qr := newEngine(t), newEngine(t)
		if _, err := p.RangeInto(pr, w); err != nil {
			t.Fatal(err)
		}
		if _, err := q.RangeInto(qr, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pr.MarshalState(), qr.MarshalState()) {
			t.Errorf("retain=%v: range result differs after restore", retain)
		}

		if !bytes.Equal(q.MarshalState(), state) {
			t.Errorf("retain=%v: re-encoded partition state differs", retain)
		}
	}
}

// Retention semantics survive a restore: records older than the
// restored horizon keep folding into the tail, and new buckets keep
// compacting old ones.
func TestPartitionStateRetentionSurvives(t *testing.T) {
	times := stateCorpus()
	// Reference: one partition sees everything.
	ref := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(ref, 0, times)
	late := mkRec(base+3600, "late.example.com", true) // behind the horizon
	ref.Observe(&late)

	// Checkpoint after the bulk, restore, then the late record.
	p := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(p, 0, times)
	q := newPartition(t, time.Hour, 36*time.Hour)
	if err := q.UnmarshalState(p.MarshalState()); err != nil {
		t.Fatal(err)
	}
	q.Observe(&late)

	if q.Records() != ref.Records() {
		t.Fatalf("Records: got %d, want %d", q.Records(), ref.Records())
	}
	qm, rm := q.Meta(), ref.Meta()
	if qm.TailRecords != rm.TailRecords {
		t.Errorf("late record did not fold into the restored tail: tail %d, want %d", qm.TailRecords, rm.TailRecords)
	}
	qa, ra := newEngine(t), newEngine(t)
	q.AllInto(qa)
	ref.AllInto(ra)
	if !bytes.Equal(qa.MarshalState(), ra.MarshalState()) {
		t.Error("all-time state differs from the always-live reference")
	}
}

// Restoring into a partition that already holds data folds, which is
// what lets a store absorb checkpoint shards after a shard-count
// change: half A checkpointed + half B ingested == everything ingested.
func TestPartitionStateFoldsIntoLoadedPartition(t *testing.T) {
	times := stateCorpus()
	a := newPartition(t, time.Hour, 0)
	fillPartition(a, 0, times[:len(times)/2])
	b := newPartition(t, time.Hour, 0)
	fillPartition(b, len(times)/2, times[len(times)/2:])
	if err := b.UnmarshalState(a.MarshalState()); err != nil {
		t.Fatal(err)
	}

	all := newPartition(t, time.Hour, 0)
	fillPartition(all, 0, times)

	ba, aa := newEngine(t), newEngine(t)
	b.AllInto(ba)
	all.AllInto(aa)
	if !bytes.Equal(ba.MarshalState(), aa.MarshalState()) {
		t.Error("checkpoint fold differs from single-partition ingest")
	}
	if b.Records() != all.Records() {
		t.Errorf("Records: got %d, want %d", b.Records(), all.Records())
	}
}

// Absorb is the same fold without a byte round-trip.
func TestPartitionAbsorb(t *testing.T) {
	times := stateCorpus()
	a := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(a, 0, times[:len(times)/2])
	b := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(b, len(times)/2, times[len(times)/2:])
	b.Absorb(Staged{a.segments})

	all := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(all, 0, times)
	ba, aa := newEngine(t), newEngine(t)
	b.AllInto(ba)
	all.AllInto(aa)
	if !bytes.Equal(ba.MarshalState(), aa.MarshalState()) {
		t.Error("Absorb differs from single-partition ingest")
	}

	// Mismatched grids are rejected: decoding checks the width.
	c, err := New(Config{Metrics: testMetrics, Bucket: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	_, stream := frameStream(t, c)
	if err := b.UnmarshalFrames(stream); err == nil || !strings.Contains(err.Error(), "bucket width") {
		t.Errorf("absorbing a 30m grid into a 1h grid should fail on its width: %v", err)
	}
}

// The partition keeps its record total itself: after Observe,
// compaction, Absorb and a frames restore, Records is the sum of its
// segments' counts, and so is what its cached Meta lists.
func TestRecordsIsSegmentSum(t *testing.T) {
	check := func(step string, p *Partition, want int) {
		t.Helper()
		var segs uint64
		p.each(func(s *segment) { segs += s.records })
		m := p.Meta()
		listed := m.TailRecords
		for _, b := range m.Buckets {
			listed += b.Records
		}
		if got := p.Records(); got != uint64(want) || segs != got || listed != got {
			t.Errorf("%s: Records %d, segments hold %d, Meta lists %d, want %d", step, got, segs, listed, want)
		}
	}
	times := stateCorpus()
	half := len(times) / 2
	a := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(a, 0, times[:half])
	if a.tail == nil {
		t.Fatal("no compacted tail: the corpus does not reach the horizon")
	}
	check("Observe and compaction", a, half)
	b := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(b, half, times[half:])
	check("Observe", b, len(times)-half)
	b.Absorb(Staged{a.segments})
	check("absorb", b, len(times))
	fillPartition(b, 0, times[:1]) // a late record, into the tail
	n := len(times) + 1
	check("a late record", b, n)
	_, stream := frameStream(t, b)
	c := restoreInto(t, 36*time.Hour, stream)
	check("frames restore", c, n)
	if err := c.UnmarshalFrames(stream); err != nil {
		t.Fatal(err)
	}
	check("frames restore into a loaded partition", c, 2*n)
}

// Corrupt, truncated, or grid-mismatched state must fail without
// mutating the partition.
func TestPartitionStateErrors(t *testing.T) {
	p := newPartition(t, time.Hour, 36*time.Hour)
	fillPartition(p, 0, stateCorpus())
	state := p.MarshalState()

	fresh := func() *Partition { return newPartition(t, time.Hour, 36*time.Hour) }
	if err := fresh().UnmarshalState(nil); err == nil {
		t.Error("empty state accepted")
	}
	if err := fresh().UnmarshalState([]byte("NOPE")); err == nil {
		t.Error("garbage accepted")
	}
	step := len(state)/61 + 1
	for n := 0; n < len(state); n += step {
		q := fresh()
		if err := q.UnmarshalState(state[:n]); err == nil {
			t.Fatalf("truncation to %d/%d accepted", n, len(state))
		}
		if q.Records() != 0 || q.Buckets() != 0 {
			t.Fatalf("failed restore left state behind: %d records, %d buckets", q.Records(), q.Buckets())
		}
	}

	// A different bucket width is a different grid: refuse it.
	q, err := New(Config{Metrics: testMetrics, Bucket: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.UnmarshalState(state); err == nil || !strings.Contains(err.Error(), "bucket width") {
		t.Errorf("grid mismatch not rejected: %v", err)
	}
}
