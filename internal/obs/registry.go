package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric families and renders them in Prometheus
// text exposition format (WritePrometheus). Registration is cheap but
// locked — resolve metrics once at wiring time and keep the returned
// pointers; the returned objects are the lock-free hot path.
//
// Families are keyed by name; series within a family by their label
// set. Registering the same (name, labels) twice returns the same
// metric, so independent subsystems can share a series safely.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k seriesKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64
}

type family struct {
	name   string
	help   string
	kind   seriesKind
	order  []string // label keys in registration order
	series map[string]*series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// labelString renders k,v pairs into the exposition label block, with
// values escaped per the text format.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		escapeLabel(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
}

func (r *Registry) family(name, help string, kind seriesKind) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %s and %s", name, f.kind.promType(), kind.promType()))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

func (f *family) get(labels []string) (*series, string) {
	ls := labelString(labels)
	if s := f.series[ls]; s != nil {
		return s, ls
	}
	s := &series{labels: ls}
	f.series[ls] = s
	f.order = append(f.order, ls)
	return s, ls
}

// Counter registers (or returns the existing) counter series.
// labels are key, value pairs: Counter("x_total", "help", "shard", "3").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	s, _ := f.get(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	s, _ := f.get(labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or returns the existing) histogram series over
// the given bucket bounds (nil = DefLatencyBounds). Re-registration
// ignores the bounds argument and returns the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	s, _ := f.get(labels)
	if s.hist == nil {
		if bounds == nil {
			bounds = DefLatencyBounds
		}
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// CounterFunc registers a counter series whose value is sampled from fn
// at scrape time — for monotone values another subsystem already
// maintains (a store's record total, cumulative interned strings).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounterFunc)
	s, _ := f.get(labels)
	s.fn = fn
}

// GaugeFunc registers a gauge series sampled from fn at scrape time —
// queue depths, goroutine counts, heap sizes.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGaugeFunc)
	s, _ := f.get(labels)
	s.fn = fn
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format
// (sorted by family name, series in registration order). Func-backed
// series are sampled now.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, ls := range f.order {
			s := f.series[ls]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.gauge.Value())
			case kindCounterFunc, kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(s.fn()))
			case kindHistogram:
				writePromHistogram(&b, f.name, ls, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram emits the cumulative _bucket/_sum/_count triplet.
// The le label is appended to the series' own labels. _count is the
// cumulative total of the same bucket read, so it always equals the
// le="+Inf" bucket even while observations land mid-scrape.
func writePromHistogram(b *strings.Builder, name, ls string, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	open, sep := "{", ""
	if ls != "" {
		open, sep = ls[:len(ls)-1], ","
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%s%sle=%q} %d\n", name, open, sep, le, cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, ls, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, ls, cum)
}
