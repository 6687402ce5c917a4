package render

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

var (
	fixOnce sync.Once
	fixGen  *synth.Generator
	fixAn   *core.Analyzer
)

// fixture analyzes one small shared corpus for the package tests.
func fixture(t *testing.T) Context {
	t.Helper()
	fixOnce.Do(func() {
		gen, err := synth.New(synth.Config{Seed: 11, TotalRequests: 20000})
		if err != nil {
			return
		}
		an := core.NewAnalyzer(core.Options{
			Categories: gen.CategoryDB(),
			Consensus:  gen.Consensus(),
			TitleDB:    bittorrent.NewTitleDB(),
		})
		proxysim.Emit(gen, an.Observe)
		fixGen, fixAn = gen, an
	})
	if fixAn == nil {
		t.Fatal("fixture failed to build")
	}
	return Context{An: fixAn, Gen: fixGen}
}

// Order must cover exactly the experiment ids core knows about.
func TestOrderMatchesCoreExperiments(t *testing.T) {
	want := map[string]bool{}
	for _, id := range core.Experiments() {
		want[id] = true
	}
	seen := map[string]bool{}
	for _, id := range Order() {
		if seen[id] {
			t.Errorf("duplicate id %q in Order()", id)
		}
		seen[id] = true
		if !want[id] {
			t.Errorf("Order() id %q unknown to core.Experiments()", id)
		}
	}
	for id := range want {
		if !seen[id] {
			t.Errorf("core experiment %q missing from Order()", id)
		}
	}
}

// Every experiment renders to non-empty text and valid JSON.
func TestRenderAllExperiments(t *testing.T) {
	cx := fixture(t)
	for _, id := range Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			doc, err := Render(id, cx)
			if err != nil {
				t.Fatal(err)
			}
			if doc.ID != id || doc.Title == "" || len(doc.Sections) == 0 {
				t.Fatalf("incomplete doc: %+v", doc)
			}
			if doc.Text() == "" {
				t.Error("empty text rendering")
			}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var decoded struct {
				ID       string `json:"id"`
				Kind     string `json:"kind"`
				Title    string `json:"title"`
				Sections []struct {
					Type string `json:"type"`
				} `json:"sections"`
			}
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatalf("round-trip: %v", err)
			}
			if decoded.ID != id || decoded.Kind != Kind(id) || len(decoded.Sections) != len(doc.Sections) {
				t.Errorf("JSON envelope mismatch: %s", b)
			}
		})
	}
}

func TestRenderErrors(t *testing.T) {
	cx := fixture(t)
	if _, err := Render("table99", cx); err == nil {
		t.Error("unknown id should error")
	}
	// Generator-requiring experiments degrade to an error without one.
	for _, id := range []string{"probing", "groundtruth"} {
		if !NeedsGenerator(id) {
			t.Errorf("NeedsGenerator(%q) = false", id)
		}
		if _, err := Render(id, Context{An: cx.An}); err == nil {
			t.Errorf("%s without generator should error", id)
		}
	}
	if NeedsGenerator("table1") {
		t.Error("table1 should not need the generator")
	}
	// A subset engine missing the needed module yields an error, not a
	// panic (the daemon can be built with a module subset).
	sub, err := core.NewAnalyzerFor(core.Options{}, "datasets")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Render("table4", Context{An: sub}); err == nil {
		t.Error("missing module should surface as an error")
	}
	if _, err := Render("table1", Context{An: sub}); err != nil {
		t.Errorf("table1 on a datasets-only engine should work: %v", err)
	}
}

func TestKind(t *testing.T) {
	for id, want := range map[string]string{
		"table4": "table", "fig8": "figure", "https": "analysis", "bt": "analysis",
	} {
		if got := Kind(id); got != want {
			t.Errorf("Kind(%q) = %q, want %q", id, got, want)
		}
	}
}

// The Series shape (windowed /v1/range responses) encodes one Doc per
// sub-window with both unix and RFC3339 bounds, and renders as text.
func TestSeriesJSONAndText(t *testing.T) {
	an := core.NewAnalyzer(core.Options{})
	doc, err := Render("table1", Context{An: an})
	if err != nil {
		t.Fatal(err)
	}
	s := &Series{
		ID: "table1", Kind: "table", Title: Title("table1"), StepSeconds: 86400,
		Windows: []SeriesWindow{
			{FromUnix: 1312156800, ToUnix: 1312243200, Records: 7, Doc: doc},
			{FromUnix: 1312243200, ToUnix: 1312329600, Records: 0, Doc: doc},
		},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID          string `json:"id"`
		StepSeconds int64  `json:"step_seconds"`
		Windows     []struct {
			From     string          `json:"from"`
			FromUnix int64           `json:"from_unix"`
			Records  uint64          `json:"records"`
			Doc      json.RawMessage `json:"doc"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "table1" || got.StepSeconds != 86400 || len(got.Windows) != 2 {
		t.Fatalf("series round-trip lost shape: %s", b)
	}
	if got.Windows[0].From != "2011-08-01T00:00:00Z" || got.Windows[0].Records != 7 {
		t.Errorf("window 0 = %+v", got.Windows[0])
	}
	wantDoc, _ := json.Marshal(doc)
	if !bytes.Equal(got.Windows[0].Doc, wantDoc) {
		t.Error("per-window doc encoding differs from the standalone Doc encoding")
	}
	text := s.Text()
	for _, frag := range []string{"table1", "step 86400s, 2 windows", "2011-08-01T00:00:00Z", "Table 1"} {
		if !strings.Contains(text, frag) {
			t.Errorf("series text missing %q:\n%s", frag, text)
		}
	}
}

// -exp resolves to ids in presentation order plus the modules they read;
// "all" anywhere in the list selects everything, and an unknown id fails
// the whole selection instead of being dropped beside the valid ones.
func TestSelect(t *testing.T) {
	cases := []struct {
		exps    string
		ids     []string
		metrics []string
		unknown string
	}{
		{exps: "all", ids: Order()},
		{exps: "table4, all", ids: Order()},
		{exps: "all,table4", ids: Order()},
		{exps: "fig5, table4,table1", ids: []string{"table1", "table4", "fig5"},
			metrics: []string{"datasets", "domains", "timeseries"}},
		{exps: "table4,nope", unknown: "nope"},
		{exps: "nope,all", unknown: "nope"},
		{exps: "nope,nada", unknown: "nope"},
		{exps: "", unknown: ""},
	}
	for _, tc := range cases {
		ids, metrics, err := Select(tc.exps)
		if tc.ids == nil {
			if !errors.Is(err, ErrUnknownID) || !strings.Contains(err.Error(), `"`+tc.unknown+`"`) {
				t.Errorf("-exp %q: err = %v, want ErrUnknownID naming %q", tc.exps, err, tc.unknown)
			}
			if ids != nil || metrics != nil {
				t.Errorf("-exp %q: a failed selection returned ids %v, metrics %v", tc.exps, ids, metrics)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.exps, err)
			continue
		}
		if !reflect.DeepEqual(ids, tc.ids) || !reflect.DeepEqual(metrics, tc.metrics) {
			t.Errorf("-exp %q: ids %v metrics %v, want %v %v", tc.exps, ids, metrics, tc.ids, tc.metrics)
		}
	}
}
