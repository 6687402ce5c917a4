package render

import (
	"bytes"
	"encoding/json"

	"syriafilter/internal/report"
)

// EncodeJSON is the wire encoding shared by every JSON front end:
// compact json.Marshal plus a trailing newline. `censorlyzer -json`
// prints it and every censord doc endpoint serves it, so the two stay
// byte-comparable by construction (test/e2e and the bench oracle diff them).
func EncodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Delta is the incremental form of one changed experiment: instead of
// the full Doc, only the sections (and, inside tables, only the rows)
// that changed between two renderings. GET /v1/sync sends full
// documents, so no client receives a Delta; it is kept, with Diff, only
// for the bench harness's render.diff.s probe until that probe goes.
//
// A client applies a Delta to the JSON encoding of its previous Doc:
// for each SectionDelta, replace `sections[Index].table.rows[p.Index]`
// with p.Cells for every row patch, truncate or extend the row list to
// NumRows, and replace chart/text sections wholesale. Everything not
// mentioned is unchanged.
type Delta struct {
	ID       string         `json:"id"`
	Sections []SectionDelta `json:"sections"`
}

// SectionDelta patches one section, addressed by index — Diff refuses
// document pairs whose section structure changed, so indexes are
// stable. For a table section Rows carries the changed and appended
// rows and NumRows the new row count (rows at or past it are
// deleted). Chart and text sections are small, so they are replaced
// whole.
type SectionDelta struct {
	Index   int           `json:"index"`
	Rows    []RowPatch    `json:"rows,omitempty"`
	NumRows *int          `json:"num_rows,omitempty"`
	Chart   *report.Chart `json:"chart,omitempty"`
	Text    *string       `json:"text,omitempty"`
}

// RowPatch replaces one table row with its typed-JSON encoding — the
// exact bytes report.Table.MarshalJSON emits for that row.
type RowPatch struct {
	Index int             `json:"index"`
	Cells json.RawMessage `json:"cells"`
}

// Diff computes the row-level delta turning prev into cur, two
// renderings of the same experiment at different snapshots. ok=false
// means the pair is not cheaply diffable — the section structure or a
// table's title or headers changed. An ok Delta with no sections means
// the documents are identical. Its one caller outside tests is the
// bench harness's render.diff.s probe (see Delta).
func Diff(prev, cur *Doc) (*Delta, bool) {
	if prev == nil || cur == nil || prev.ID != cur.ID || prev.Kind != cur.Kind ||
		prev.Title != cur.Title || len(prev.Sections) != len(cur.Sections) {
		return nil, false
	}
	d := &Delta{ID: cur.ID}
	for i := range cur.Sections {
		ps, cs := &prev.Sections[i], &cur.Sections[i]
		switch {
		case cs.Table != nil:
			if ps.Table == nil {
				return nil, false
			}
			sd, ok := diffTable(ps.Table, cs.Table, i)
			if !ok {
				return nil, false
			}
			if sd != nil {
				d.Sections = append(d.Sections, *sd)
			}
		case cs.Chart != nil:
			if ps.Chart == nil {
				return nil, false
			}
			if !chartEqual(ps.Chart, cs.Chart) {
				d.Sections = append(d.Sections, SectionDelta{Index: i, Chart: cs.Chart})
			}
		default:
			if ps.Table != nil || ps.Chart != nil {
				return nil, false
			}
			if ps.Text != cs.Text {
				t := cs.Text
				d.Sections = append(d.Sections, SectionDelta{Index: i, Text: &t})
			}
		}
	}
	return d, true
}

// diffTable row-diffs two tables. A nil *SectionDelta with ok=true
// means the tables are identical.
func diffTable(prev, cur *report.Table, idx int) (*SectionDelta, bool) {
	if prev.Title() != cur.Title() || !stringsEqual(prev.Headers(), cur.Headers()) {
		return nil, false
	}
	sd := &SectionDelta{Index: idx}
	for i := 0; i < cur.NumRows(); i++ {
		cj, err := cur.RowJSON(i)
		if err != nil {
			return nil, false
		}
		if i < prev.NumRows() {
			pj, err := prev.RowJSON(i)
			if err != nil {
				return nil, false
			}
			if bytes.Equal(pj, cj) {
				continue
			}
		}
		sd.Rows = append(sd.Rows, RowPatch{Index: i, Cells: cj})
	}
	if len(sd.Rows) == 0 && cur.NumRows() == prev.NumRows() {
		return nil, true
	}
	n := cur.NumRows()
	sd.NumRows = &n
	return sd, true
}

func chartEqual(a, b *report.Chart) bool {
	if a.Title != b.Title || a.Spark != b.Spark ||
		len(a.Labels) != len(b.Labels) || len(a.Values) != len(b.Values) {
		return false
	}
	if !stringsEqual(a.Labels, b.Labels) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
