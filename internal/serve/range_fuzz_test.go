package serve

import (
	"math"
	"testing"
	"time"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/timewin"
)

// from, to and step of a series query are the caller's: whatever they
// are, RangeSeries answers with an error or with at most maxSeriesWindows
// windows that tile the aligned span in step-sized pieces — inside a
// second, because it holds the store lock while it works.
func FuzzRangeSeriesBounds(f *testing.F) {
	const hour int64 = 3600
	aug1 := time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	lastEdge := math.MaxInt64 - math.MaxInt64%hour // the largest hour edge
	f.Add(int64(-9000000000000000000), int64(9000000000000000000), hour)
	f.Add(int64(-9000000000000000000), int64(0), hour)
	f.Add(int64(0), int64(9000000000000000000), hour)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), hour)
	f.Add(int64(math.MinInt64), int64(math.MinInt64+10), hour)
	f.Add(int64(math.MaxInt64-10), int64(math.MaxInt64), hour)
	f.Add(lastEdge-hour, lastEdge, 24*hour) // one window whose From+step leaves int64
	f.Add(int64(math.MinInt64+hour), int64(math.MaxInt64-hour), int64(math.MaxInt64-math.MaxInt64%hour))
	f.Add(aug1, aug1+48*hour+1, 24*hour)
	f.Add(int64(0), int64(0), hour)
	f.Add(aug1, aug1+hour, int64(0))

	store, err := NewStore(Config{Metrics: []string{"datasets"}, Shards: 2, Bucket: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(store.Close)
	recs := make([]logfmt.Record, 72)
	for i := range recs {
		recs[i] = logfmt.Record{Time: aug1 + int64(i)*hour + 7, Host: "example.com", ClientIP: "0.0.0.0",
			Filter: logfmt.Observed, Method: "GET", Scheme: "http", Port: 80, Path: "/"}
		recs[i].SetProxy(logfmt.FirstProxy + i%logfmt.NumProxies)
	}
	if _, err := store.add(recs, nil); err != nil {
		f.Fatal(err)
	}
	if _, err := store.Refresh(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, from, to, step int64) {
		var wins []RangeWindow
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			wins, err = store.RangeSeries(timewin.Window{From: from, To: to}, step)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("RangeSeries(from=%d, to=%d, step=%d) still running after 1s", from, to, step)
		}
		if err != nil {
			return
		}
		if len(wins) == 0 || len(wins) > maxSeriesWindows {
			t.Fatalf("from=%d to=%d step=%d: %d windows, want 1..%d", from, to, step, len(wins), maxSeriesWindows)
		}
		first, last := wins[0].Window, wins[len(wins)-1].Window
		if from != 0 && (first.From > from || from-first.From >= hour) {
			t.Fatalf("series starts at %d, want the hour edge at or below from=%d", first.From, from)
		}
		if to != 0 && (last.To < to || last.To-to >= hour) {
			t.Fatalf("series ends at %d, want the hour edge at or above to=%d", last.To, to)
		}
		for i, w := range wins {
			w := w.Window
			if w.From%hour != 0 || w.To%hour != 0 || w.To <= w.From || uint64(w.To-w.From) > uint64(step) {
				t.Fatalf("window %d = [%d, %d) at step %d", i, w.From, w.To, step)
			}
			if i > 0 && wins[i-1].Window.To != w.From {
				t.Fatalf("window %d starts at %d, the one before ends at %d", i, w.From, wins[i-1].Window.To)
			}
			if i < len(wins)-1 && w.To-w.From != step {
				t.Fatalf("inner window %d = [%d, %d) is not a full step %d", i, w.From, w.To, step)
			}
		}
	})
}
