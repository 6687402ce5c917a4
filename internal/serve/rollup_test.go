package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/obs/trace"
	"syriafilter/internal/timewin"
)

// Day-step series read sealed days from their shards' day rollups, and
// late records reach a rollup by replay on the read that next uses it.
// Posts of records taken at a stride across the whole capture — late for
// every day but the newest — alternate with step=24h reads, and every
// window of every read renders as a batch run over the records ingested
// so far that fall in it.
func TestRangeRollupsMatchBatchUnderStridedPosts(t *testing.T) {
	f := corpus(t)
	const stride = 5 // one record in five is held back for the posts
	var loaded, pool []logfmt.Record
	for i := range f.records {
		if i%stride == 0 {
			pool = append(pool, f.records[i])
		} else {
			loaded = append(loaded, f.records[i])
		}
	}
	store, err := NewStore(Config{Options: f.opt, Shards: 2, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.add(loaded, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, f.gen)
	ingested := loaded

	const rounds = 3
	for round := 0; ; round++ {
		for _, id := range []string{"table1", "table4", "table8", "fig5"} {
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/range/"+id+"?from=2011-07-22&to=2011-08-07&step=24h", nil))
			if rw.Code != http.StatusOK {
				t.Fatalf("round %d: %s: status %d: %.200s", round, id, rw.Code, rw.Body.Bytes())
			}
			var series struct {
				Windows []struct {
					FromUnix int64           `json:"from_unix"`
					ToUnix   int64           `json:"to_unix"`
					Records  uint64          `json:"records"`
					Doc      json.RawMessage `json:"doc"`
				} `json:"windows"`
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &series); err != nil {
				t.Fatal(err)
			}
			if len(series.Windows) != 16 {
				t.Fatalf("round %d: %s: %d windows, want 16", round, id, len(series.Windows))
			}
			for _, w := range series.Windows {
				ref := core.NewAnalyzer(f.opt)
				var n uint64
				for i := range ingested {
					if ts := ingested[i].Time; ts >= w.FromUnix && ts < w.ToUnix {
						ref.Observe(&ingested[i])
						n++
					}
				}
				if want := docJSON(t, id, ref); w.Records != n || !bytes.Equal(w.Doc, want) {
					t.Errorf("round %d: %s window %s of %d records differs from the batch run of %d\n got: %.300s\nwant: %.300s",
						round, id, timewin.Window{From: w.FromUnix, To: w.ToUnix}, w.Records, n, w.Doc, want)
				}
			}
		}
		if round == rounds {
			break
		}
		var post []logfmt.Record
		for i := round; i < len(pool); i += rounds {
			post = append(post, pool[i])
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(encodeCSV(t, post, false))))
		if rw.Code != http.StatusOK {
			t.Fatalf("round %d: ingest status %d: %.200s", round, rw.Code, rw.Body.Bytes())
		}
		ingested = append(ingested, post...)
	}

	days, replayed := make([]uint64, 2), make([]uint64, 2)
	if err := store.each(false, nil, "", func(i int, _ *trace.Span, p *timewin.Partition) error {
		days[i], replayed[i] = p.Rollups()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if days[0]+days[1] == 0 || replayed[0]+replayed[1] == 0 {
		t.Errorf("reads merged %v days from rollups and replayed %v late records; want both above 0", days, replayed)
	}
}
