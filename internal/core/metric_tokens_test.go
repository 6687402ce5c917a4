package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"syriafilter/internal/logfmt"
)

// censoredRecord builds a policy_denied record for host i. Hosts are
// generated in a deliberately shuffled order (stride walk) so arrival
// order and value order disagree.
func censoredRecord(i int) logfmt.Record {
	host := fmt.Sprintf("site-%04d.example.com", i)
	return logfmt.Record{
		Time:      1312380000 + int64(i),
		ClientIP:  "10.0.0.1",
		Status:    403,
		Method:    "GET",
		Scheme:    "http",
		Host:      host,
		Port:      80,
		Path:      "/page",
		ProxyIP:   logfmt.ProxyBase + "42",
		Filter:    logfmt.Denied,
		Exception: logfmt.ExPolicyDenied,
	}
}

func censoredSetOf(t *testing.T, e *Engine) []censoredURL {
	t.Helper()
	return append([]censoredURL(nil), mod[*tokensMetric](e, "tokens", "test").censored()...)
}

// Past MaxStoredCensoredURLs, the kept censored-URL set must be a pure
// function of the corpus: identical whether the corpus is observed by one
// engine or split across eight engines merged in any order.
func TestCensoredURLCapDeterministicAcrossWorkers(t *testing.T) {
	const maxKeep = 50
	const total = 8 * maxKeep // well past the maxKeep
	opt := Options{MaxStoredCensoredURLs: maxKeep}

	newEngine := func() *Engine {
		e, err := NewEngine(opt, "tokens")
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Stride walk: record j carries host (j*37 mod total), so arrival
	// order differs from (Domain, URL) order.
	recAt := func(j int) logfmt.Record { return censoredRecord(j * 37 % total) }

	single := newEngine()
	for j := 0; j < total; j++ {
		rec := recAt(j)
		single.Observe(&rec)
	}
	want := censoredSetOf(t, single)
	if len(want) != maxKeep {
		t.Fatalf("single-engine store kept %d entries, want maxKeep %d", len(want), maxKeep)
	}

	for name, order := range map[string][]int{
		"forward": {0, 1, 2, 3, 4, 5, 6, 7},
		"reverse": {7, 6, 5, 4, 3, 2, 1, 0},
		"shuffle": {3, 0, 6, 1, 7, 2, 5, 4},
	} {
		workers := make([]*Engine, 8)
		for w := range workers {
			workers[w] = newEngine()
		}
		for j := 0; j < total; j++ {
			rec := recAt(j)
			workers[j%8].Observe(&rec) // round-robin partition
		}
		dst := workers[order[0]]
		for _, w := range order[1:] {
			dst.Merge(workers[w])
		}
		got := censoredSetOf(t, dst)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("merge order %s: kept set differs from single-engine run (got %d entries, want %d)",
				name, len(got), len(want))
		}
	}
}

// The store must never grow past 2x the maxKeep while observing, and the
// entries it keeps are exactly the maxKeep smallest of everything seen.
func TestCensoredURLCapBoundsAndSelection(t *testing.T) {
	const maxKeep = 10
	e, err := NewEngine(Options{MaxStoredCensoredURLs: maxKeep}, "tokens")
	if err != nil {
		t.Fatal(err)
	}
	for i := 200 - 1; i >= 0; i-- { // descending arrival: worst case for first-k-by-arrival
		rec := censoredRecord(i)
		e.Observe(&rec)
		if n := len(mod[*tokensMetric](e, "tokens", "test").censoredURLs); n > 2*maxKeep {
			t.Fatalf("store grew to %d entries (maxKeep %d)", n, maxKeep)
		}
	}
	got := censoredSetOf(t, e)
	if len(got) != maxKeep {
		t.Fatalf("kept %d entries, want %d", len(got), maxKeep)
	}
	// The maxKeep smallest by (Domain, URL, Host) are exactly hosts 0..maxKeep-1.
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].URL < got[j].URL }) {
		t.Error("canonical set not sorted")
	}
	for i, cu := range got {
		wantHost := fmt.Sprintf("site-%04d.example.com", i)
		if cu.Host != wantHost {
			t.Errorf("kept[%d].Host = %q, want %q", i, cu.Host, wantHost)
		}
	}
}
