package render

import (
	"bytes"
	"encoding/json"
	"testing"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/proxysim"
	"syriafilter/internal/synth"
)

// jsonDoc mirrors the Doc wire encoding closely enough to apply a
// Delta the way a sync client would: rows kept as raw bytes, sections
// addressed by index.
type jsonDoc struct {
	ID       string        `json:"id"`
	Kind     string        `json:"kind"`
	Title    string        `json:"title"`
	Sections []jsonSection `json:"sections"`
}

type jsonSection struct {
	Type  string          `json:"type"`
	Table *jsonTable      `json:"table,omitempty"`
	Chart json.RawMessage `json:"chart,omitempty"`
	Text  *string         `json:"text,omitempty"`
}

type jsonTable struct {
	Title   string            `json:"title"`
	Headers []string          `json:"headers"`
	Rows    []json.RawMessage `json:"rows"`
}

// applyDelta patches the decoded previous document in place, following
// the client contract documented on Delta.
func applyDelta(t *testing.T, doc *jsonDoc, d *Delta) {
	t.Helper()
	for _, sd := range d.Sections {
		if sd.Index < 0 || sd.Index >= len(doc.Sections) {
			t.Fatalf("delta addresses section %d of %d", sd.Index, len(doc.Sections))
		}
		sec := &doc.Sections[sd.Index]
		switch {
		case sd.Chart != nil:
			b, err := json.Marshal(sd.Chart)
			if err != nil {
				t.Fatal(err)
			}
			sec.Chart = b
		case sd.Text != nil:
			sec.Text = sd.Text
		default:
			if sec.Table == nil {
				t.Fatalf("row patch against non-table section %d", sd.Index)
			}
			for _, p := range sd.Rows {
				for p.Index >= len(sec.Table.Rows) {
					sec.Table.Rows = append(sec.Table.Rows, nil)
				}
				sec.Table.Rows[p.Index] = p.Cells
			}
			if sd.NumRows != nil {
				for *sd.NumRows > len(sec.Table.Rows) {
					sec.Table.Rows = append(sec.Table.Rows, nil)
				}
				sec.Table.Rows = sec.Table.Rows[:*sd.NumRows]
			}
		}
	}
}

// diffCorpus builds two analyzer states where the second strictly
// extends the first — the exact relationship /v1/sync sees between
// consecutive snapshot generations.
func diffCorpus(t *testing.T) (prev, cur Context) {
	t.Helper()
	gen, err := synth.New(synth.Config{Seed: 7, TotalRequests: 12000})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Categories: gen.CategoryDB(),
		Consensus:  gen.Consensus(),
		TitleDB:    bittorrent.NewTitleDB(),
	}
	an1, an2 := core.NewAnalyzer(opt), core.NewAnalyzer(opt)
	i := 0
	proxysim.Emit(gen, func(rec *logfmt.Record) {
		if i < 6000 {
			an1.Observe(rec)
		}
		an2.Observe(rec)
		i++
	})
	return Context{An: an1, Gen: gen}, Context{An: an2, Gen: gen}
}

// The delta contract: Diff accepts the consecutive renderings of every
// experiment, and applying the delta to the previous document's JSON
// reproduces the current document's JSON exactly.
func TestDiffApplyReproducesCurrent(t *testing.T) {
	prevCx, curCx := diffCorpus(t)
	diffable, changed := 0, 0
	for _, id := range Order() {
		pd, err := Render(id, prevCx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cd, err := Render(id, curCx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		delta, ok := Diff(pd, cd)
		if !ok {
			t.Errorf("%s: not diffable; /v1/sync would resend the whole doc on every cut", id)
			continue
		}
		diffable++
		if len(delta.Sections) > 0 {
			changed++
		}

		pj, err := EncodeJSON(pd)
		if err != nil {
			t.Fatal(err)
		}
		cj, err := EncodeJSON(cd)
		if err != nil {
			t.Fatal(err)
		}
		var got, want jsonDoc
		if err := json.Unmarshal(pj, &got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := json.Unmarshal(cj, &want); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		applyDelta(t, &got, delta)
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: applying the delta does not reproduce the current doc\n got: %.300s\nwant: %.300s", id, gb, wb)
		}
	}
	if diffable != len(Order()) {
		t.Fatalf("diffable = %d of %d ids", diffable, len(Order()))
	}
	if changed == 0 {
		t.Fatal("no experiment changed between generations; the fixture proves nothing")
	}
	t.Logf("changed=%d of %d ids", changed, len(Order()))
}

// Identical documents diff to an empty delta; structural changes are
// refused rather than mis-patched.
func TestDiffEdgeCases(t *testing.T) {
	prevCx, _ := diffCorpus(t)
	d1, err := Render("table4", prevCx)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Render("table4", prevCx)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok := Diff(d1, d2)
	if !ok || len(delta.Sections) != 0 {
		t.Errorf("identical docs: ok=%v sections=%d, want empty delta", ok, len(delta.Sections))
	}
	other, err := Render("table1", prevCx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Diff(d1, other); ok {
		t.Error("Diff accepted documents of different experiments")
	}
	if _, ok := Diff(nil, d1); ok {
		t.Error("Diff accepted a nil previous doc")
	}
}
