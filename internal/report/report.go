// Package report renders analysis results as aligned text tables and
// ASCII series, so each of the paper's tables and figures can be printed
// by cmd/censorlyzer without any plotting dependency.
// Tables and charts also marshal to JSON (typed rows, not pre-formatted
// strings), so cmd/censord's HTTP API and `censorlyzer -json` share one
// encoder.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Cell is one table cell: the original value (for typed JSON encoding)
// plus its text rendering.
type Cell struct {
	Value any
	Text  string
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]Cell
}

// NewTable starts a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Headers returns the column headers.
func (t *Table) Headers() []string { return t.headers }

// NumRows returns the number of appended rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row appends one row; values are formatted with %v (floats compactly via
// FormatFloat) but kept alongside their rendering for typed JSON output.
func (t *Table) Row(values ...interface{}) *Table {
	row := make([]Cell, len(values))
	for i, v := range values {
		var text string
		switch x := v.(type) {
		case float64:
			text = FormatFloat(x)
		default:
			text = fmt.Sprintf("%v", v)
		}
		row[i] = Cell{Value: v, Text: text}
	}
	t.rows = append(t.rows, row)
	return t
}

// jsonValue returns the typed JSON form of a cell: numbers stay numbers,
// booleans stay booleans, everything else (including non-finite floats,
// which JSON cannot carry) falls back to the rendered text.
func (c Cell) jsonValue() any {
	switch x := c.Value.(type) {
	case int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, uintptr,
		bool:
		return x
	case float32:
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return c.Text
		}
		return x
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return c.Text
		}
		return x
	default:
		return c.Text
	}
}

// RowJSON encodes row i exactly as MarshalJSON renders it inside
// "rows", so callers can diff tables row by row (render.Diff) without
// re-encoding whole documents.
func (t *Table) RowJSON(i int) ([]byte, error) {
	r := t.rows[i]
	row := make([]any, len(r))
	for j, c := range r {
		row[j] = c.jsonValue()
	}
	return json.Marshal(row)
}

// MarshalJSON encodes the table as {"title", "headers", "rows"} with
// typed row values.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := make([][]any, len(t.rows))
	for i, r := range t.rows {
		row := make([]any, len(r))
		for j, c := range r {
			row[j] = c.jsonValue()
		}
		rows[i] = row
	}
	headers := t.headers
	if headers == nil {
		headers = []string{}
	}
	return json.Marshal(struct {
		Title   string   `json:"title"`
		Headers []string `json:"headers"`
		Rows    [][]any  `json:"rows"`
	}{t.title, headers, rows})
}

// FormatFloat renders floats compactly (4 significant decimals max).
func FormatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e12 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4f", x)
}

// Percent renders a fraction as "12.34%".
func Percent(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	textRow := func(r []Cell) []string {
		out := make([]string, len(r))
		for i, c := range r {
			out[i] = c.Text
		}
		return out
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(textRow(r))
	}

	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("=", len(t.title)))
		sb.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		// Trim trailing spaces.
		s := sb.String()
		trimmed := strings.TrimRight(s, " ")
		sb.Reset()
		sb.WriteString(trimmed)
		sb.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, w := range widths {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(textRow(r))
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_, _ = t.WriteTo(&sb)
	return sb.String()
}

// Chart is the data form of one figure panel: a labeled numeric series.
// It marshals naturally to JSON and renders to text either as a
// horizontal bar chart (Series) or, when Spark is set, as a sparkline
// for dense time series.
type Chart struct {
	Title  string    `json:"title"`
	Labels []string  `json:"labels,omitempty"`
	Values []float64 `json:"values"`
	Spark  bool      `json:"spark,omitempty"`
}

// NewChart builds a bar-style chart. labels may be nil.
func NewChart(title string, labels []string, values []float64) *Chart {
	return &Chart{Title: title, Labels: labels, Values: values}
}

// NewSpark builds a sparkline-style chart.
func NewSpark(title string, values []float64) *Chart {
	return &Chart{Title: title, Values: values, Spark: true}
}

// Text renders the chart. width bounds the bar length (ignored for
// sparklines).
func (c *Chart) Text(width int) string {
	if c.Spark {
		if c.Title == "" {
			return Sparkline(c.Values) + "\n"
		}
		return c.Title + "\n" + Sparkline(c.Values) + "\n"
	}
	return Series(c.Title, c.Labels, c.Values, width)
}

// Series renders a numeric series as a horizontal ASCII bar chart, one
// row per point: label, value, bar. Used to print the paper's figures.
func Series(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		bar := 0
		if max > 0 {
			bar = int(v / max * float64(width))
		}
		fmt.Fprintf(&sb, "%-*s %12s |%s\n", labelW, label, FormatFloat(v), strings.Repeat("#", bar))
	}
	return sb.String()
}

// Sparkline compresses a series into one line of block characters, for
// dense time series (Fig 5/6 style).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// Downsample reduces a series to at most n points by bucket-averaging,
// keeping sparklines terminal-width.
func Downsample(values []float64, n int) []float64 {
	if n <= 0 || len(values) <= n {
		out := make([]float64, len(values))
		copy(out, values)
		return out
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(values) / n
		hi := (i + 1) * len(values) / n
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}
