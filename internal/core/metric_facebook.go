package core

import (
	"strings"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

// facebookMetric accumulates the facebook.com-internal views: targeted
// pages (Table 14) and platform elements / social plugins (Table 15).
type facebookMetric struct {
	cx    *recordCtx
	pages map[string]*pageStat
	paths map[string]*triple // facebook.com path stats (plugins)
	cens  uint64             // censored requests on facebook.com domain
	declared
}

func newFacebookMetric(e *Engine) *facebookMetric {
	m := &facebookMetric{cx: &e.cx}
	m.declare("facebook", scalarField{&m.cens}, pageTableField{&m.pages}, tripleMapField{&m.paths})
	return m
}

func (m *facebookMetric) Observe(rec *logfmt.Record) {
	if m.cx.Domain() != "facebook.com" {
		return
	}
	if m.cx.censored {
		m.cens++
	}
	path := rec.Path
	if path == "" || path == "/" {
		return
	}
	// Multi-segment paths and code-ish extensions are platform elements
	// (plugins etc.); other single-segment paths are pages. Page names may
	// contain dots (syria.news.F.N.N), so the extension alone is not a
	// reliable discriminator.
	if strings.Contains(path[1:], "/") || isCodeExt(rec.Ext) {
		ts := m.paths[path]
		if ts == nil {
			ts = &triple{}
			m.paths[path] = ts
		}
		bumpTriple(ts, m.cx.censored, m.cx.allowed, m.cx.proxied)
		return
	}
	ps := m.pages[path]
	if ps == nil {
		ps = &pageStat{}
		m.pages[path] = ps
	}
	switch {
	case m.cx.proxied:
		ps.Proxied++
	case m.cx.censored:
		ps.Censored++
	case m.cx.allowed:
		ps.Allowed++
	}
	if strings.Contains(rec.Categories, "Blocked sites") {
		ps.CustomCategory = true
	}
}

// pageTableField is the per-page table: a triple plus the sticky
// custom-category flag.
type pageTableField struct{ p *map[string]*pageStat }

func (f pageTableField) init() { *f.p = map[string]*pageStat{} }

func (f pageTableField) merge(src field) {
	for k, v := range *src.(pageTableField).p {
		ps := entry(*f.p, k)
		ps.Censored += v.Censored
		ps.Allowed += v.Allowed
		ps.Proxied += v.Proxied
		ps.CustomCategory = ps.CustomCategory || v.CustomCategory
	}
}

func (f pageTableField) encode(w *statecodec.Writer) {
	pages := *f.p
	w.Uvarint(uint64(len(pages)))
	for _, k := range sortedKeys(pages) {
		ps := pages[k]
		w.StringRef(k)
		w.Uvarint(ps.Censored)
		w.Uvarint(ps.Allowed)
		w.Uvarint(ps.Proxied)
		w.Bool(ps.CustomCategory)
	}
}

func (f pageTableField) decode(r *statecodec.Reader) {
	n := r.Count()
	pages := make(map[string]*pageStat, n)
	var prev string
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		if !ascending(r, i, prev, k) {
			break
		}
		pages[k], prev = &pageStat{
			Censored:       r.Uvarint(),
			Allowed:        r.Uvarint(),
			Proxied:        r.Uvarint(),
			CustomCategory: r.Bool(),
		}, k
	}
	*f.p = pages
}
