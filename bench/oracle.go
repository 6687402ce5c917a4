package main

import (
	"encoding/json"
	"fmt"
)

// wireDoc mirrors render.Doc's JSON closely enough to apply a
// /v1/sync delta the way a client would: table rows stay raw bytes,
// sections are addressed by index.
type wireDoc struct {
	ID       string        `json:"id"`
	Kind     string        `json:"kind"`
	Title    string        `json:"title"`
	Approx   bool          `json:"approx,omitempty"`
	Sections []wireSection `json:"sections"`
}

type wireSection struct {
	Type  string          `json:"type"`
	Table *wireTable      `json:"table,omitempty"`
	Chart json.RawMessage `json:"chart,omitempty"`
	Text  *string         `json:"text,omitempty"`
}

type wireTable struct {
	Title   string            `json:"title"`
	Headers []string          `json:"headers"`
	Rows    []json.RawMessage `json:"rows"`
}

// wireDelta is render.Delta as it arrives.
type wireDelta struct {
	ID       string `json:"id"`
	Sections []struct {
		Index int `json:"index"`
		Rows  []struct {
			Index int             `json:"index"`
			Cells json.RawMessage `json:"cells"`
		} `json:"rows"`
		NumRows *int            `json:"num_rows"`
		Chart   json.RawMessage `json:"chart"`
		Text    *string         `json:"text"`
	} `json:"sections"`
}

// apply patches doc in place following the client contract documented
// on render.Delta: replace the patched rows, then truncate or extend to
// num_rows; chart and text sections are replaced whole.
func (d *wireDelta) apply(doc *wireDoc) error {
	for _, sd := range d.Sections {
		if sd.Index < 0 || sd.Index >= len(doc.Sections) {
			return fmt.Errorf("delta addresses section %d of %d", sd.Index, len(doc.Sections))
		}
		sec := &doc.Sections[sd.Index]
		switch {
		case sd.Chart != nil:
			sec.Chart = sd.Chart
		case sd.Text != nil:
			sec.Text = sd.Text
		default:
			if sec.Table == nil {
				return fmt.Errorf("row patch against non-table section %d", sd.Index)
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
	return nil
}

// syncBody is the /v1/sync response.
type syncBody struct {
	Next     string `json:"next"`
	TimedOut bool   `json:"timed_out"`
	Changed  []struct {
		ID    string          `json:"id"`
		Full  json.RawMessage `json:"full"`
		Delta json.RawMessage `json:"delta"`
	} `json:"changed"`
}

// syncClient is the state a /v1/sync consumer keeps: its resume token
// and the docs it has assembled so far.
type syncClient struct {
	token  string
	docs   map[string]*wireDoc
	deltas int
	fulls  int
}

// absorb folds one sync response into the client's docs.
func (s *syncClient) absorb(body []byte) error {
	var sb syncBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return fmt.Errorf("sync body: %w", err)
	}
	if sb.TimedOut {
		return fmt.Errorf("sync long-poll timed out instead of waking")
	}
	for _, ch := range sb.Changed {
		switch {
		case ch.Full != nil:
			doc := new(wireDoc)
			if err := json.Unmarshal(ch.Full, doc); err != nil {
				return fmt.Errorf("sync full %s: %w", ch.ID, err)
			}
			s.docs[ch.ID] = doc
			s.fulls++
		case ch.Delta != nil:
			var d wireDelta
			if err := json.Unmarshal(ch.Delta, &d); err != nil {
				return fmt.Errorf("sync delta %s: %w", ch.ID, err)
			}
			prev := s.docs[ch.ID]
			if prev == nil {
				return fmt.Errorf("sync delta for %s before any full doc", ch.ID)
			}
			if err := d.apply(prev); err != nil {
				return fmt.Errorf("sync delta %s: %w", ch.ID, err)
			}
			s.deltas++
		}
	}
	s.token = sb.Next
	return nil
}

// matches reports whether the client's assembled doc equals a fresh GET
// body. Both sides go through the same decode and re-encode, so only
// content can differ, never formatting.
func (s *syncClient) matches(id string, fresh []byte) bool {
	have := s.docs[id]
	if have == nil {
		return false
	}
	var want wireDoc
	if json.Unmarshal(fresh, &want) != nil {
		return false
	}
	a, errA := json.Marshal(have)
	b, errB := json.Marshal(&want)
	return errA == nil && errB == nil && string(a) == string(b)
}
