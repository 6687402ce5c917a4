package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

// datasetsMetric accumulates the four datasets of Table 1 and their
// class × exception breakdown (Table 3).
type datasetsMetric struct {
	cx       *recordCtx
	datasets [numDatasets]ClassCounts
	declared
}

func newDatasetsMetric(e *Engine) *datasetsMetric {
	m := &datasetsMetric{cx: &e.cx}
	m.declare("datasets", datasetCountsField{&m.datasets})
	return m
}

func (m *datasetsMetric) Observe(rec *logfmt.Record) {
	m.bump(DFull, rec)
	if m.cx.Sampled() {
		m.bump(DSample, rec)
	}
	if m.cx.UserKey() != "" {
		m.bump(DUser, rec)
	}
	if rec.IsDeniedAny() {
		m.bump(DDenied, rec)
	}
}

func (m *datasetsMetric) bump(id DatasetID, rec *logfmt.Record) {
	c := &m.datasets[id]
	c.Total++
	c.ByException[rec.Exception]++
	if m.cx.proxied {
		c.Proxied++
	}
}

// datasetCountsField is one ClassCounts row group per dataset, written
// with its length.
type datasetCountsField struct{ p *[numDatasets]ClassCounts }

func (f datasetCountsField) init() { *f.p = [numDatasets]ClassCounts{} }

func (f datasetCountsField) merge(src field) {
	o := src.(datasetCountsField)
	for i := range f.p {
		f.p[i].merge(&o.p[i])
	}
}

func (f datasetCountsField) encode(w *statecodec.Writer) {
	w.Uvarint(uint64(len(f.p)))
	for i := range f.p {
		encClassCounts(w, &f.p[i])
	}
}

func (f datasetCountsField) decode(r *statecodec.Reader) {
	if n := r.Count(); r.Err() == nil && n != len(f.p) {
		r.Failf("core: %d datasets, want %d", n, len(f.p))
		return
	}
	for i := range f.p {
		decClassCounts(r, &f.p[i])
	}
}
