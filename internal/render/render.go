// Package render turns an analyzed corpus into presentable experiment
// results. It owns the per-experiment renderers that used to live inside
// cmd/censorlyzer: each experiment id (table1..table15, fig1..fig10,
// https, bt, gcache, probing, groundtruth) maps to a function building a
// Doc — an ordered list of tables, charts and text lines — which renders
// to aligned text for the CLI or to JSON for cmd/censord's HTTP API.
// Both front ends therefore share one encoder, so their outputs are
// byte-comparable.
package render

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"syriafilter/internal/core"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/policy"
	"syriafilter/internal/prober"
	"syriafilter/internal/report"
	"syriafilter/internal/synth"
)

// chartWidth bounds bar length in text renderings.
const chartWidth = 40

// Section is one block of a Doc: exactly one of Table, Chart or Text is
// set.
type Section struct {
	Table *report.Table
	Chart *report.Chart
	Text  string
}

// Doc is one experiment's rendered result.
type Doc struct {
	ID       string
	Kind     string // "table", "figure" or "analysis"
	Title    string
	Sections []Section
}

// addTable appends a table section.
func (d *Doc) addTable(t *report.Table) { d.Sections = append(d.Sections, Section{Table: t}) }

// addChart appends a chart section.
func (d *Doc) addChart(c *report.Chart) { d.Sections = append(d.Sections, Section{Chart: c}) }

// textf appends one line to the trailing text section, starting a new
// one after a table or chart.
func (d *Doc) textf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if n := len(d.Sections); n > 0 && d.Sections[n-1].Table == nil && d.Sections[n-1].Chart == nil {
		d.Sections[n-1].Text += line + "\n"
		return
	}
	d.Sections = append(d.Sections, Section{Text: line + "\n"})
}

// Text renders the whole Doc as terminal text.
func (d *Doc) Text() string {
	var sb strings.Builder
	for i, s := range d.Sections {
		if i > 0 {
			sb.WriteByte('\n')
		}
		switch {
		case s.Table != nil:
			sb.WriteString(s.Table.String())
		case s.Chart != nil:
			sb.WriteString(s.Chart.Text(chartWidth))
		default:
			sb.WriteString(s.Text)
		}
	}
	return sb.String()
}

// MarshalJSON encodes the Doc with a type-discriminated section list.
func (d *Doc) MarshalJSON() ([]byte, error) {
	secs := make([]any, len(d.Sections))
	for i, s := range d.Sections {
		switch {
		case s.Table != nil:
			secs[i] = struct {
				Type  string        `json:"type"`
				Table *report.Table `json:"table"`
			}{"table", s.Table}
		case s.Chart != nil:
			secs[i] = struct {
				Type  string        `json:"type"`
				Chart *report.Chart `json:"chart"`
			}{"chart", s.Chart}
		default:
			secs[i] = struct {
				Type string `json:"type"`
				Text string `json:"text"`
			}{"text", s.Text}
		}
	}
	return json.Marshal(struct {
		ID       string `json:"id"`
		Kind     string `json:"kind"`
		Title    string `json:"title"`
		Sections []any  `json:"sections"`
	}{d.ID, d.Kind, d.Title, secs})
}

// Context carries what renderers read. An is required. Gen is the
// ground-truth synthetic world; only the experiments for which
// NeedsGenerator reports true require it (they compare recovered policy
// against the generator's ruleset, which a live daemon ingesting foreign
// logs does not have).
type Context struct {
	An  *core.Analyzer
	Gen *synth.Generator
}

type renderer struct {
	title    string
	needsGen bool
	run      func(cx Context, d *Doc)
}

// Kind classifies an experiment id for API routing.
func Kind(id string) string {
	switch {
	case strings.HasPrefix(id, "table"):
		return "table"
	case strings.HasPrefix(id, "fig"):
		return "figure"
	default:
		return "analysis"
	}
}

// Order returns every experiment id in presentation order (the paper's
// table/figure numbering, then the section analyses).
func Order() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Title returns the experiment's one-line description ("" if unknown).
func Title(id string) string { return renderers[id].title }

// NeedsGenerator reports whether the experiment requires the synthetic
// ground-truth generator in its Context.
func NeedsGenerator(id string) bool { return renderers[id].needsGen }

// ErrUnknownID is what Render fails with (wrapped) for an id no renderer
// is registered under; front ends test for it with errors.Is to answer
// "no such experiment" apart from "cannot render it here".
var ErrUnknownID = errors.New("render: unknown experiment id")

// UnknownID is the ErrUnknownID error for id, listing the known ids.
// Front ends that reject an id before calling Render answer with it, so
// every path words the failure alike.
func UnknownID(id string) error {
	return fmt.Errorf("%w %q (known: %v)", ErrUnknownID, id, Order())
}

// Select resolves a comma-separated -exp list into the ids to render, in
// presentation order, and the metric modules they read, so producing one
// table does not pay for all of them. "all", alone or beside other ids,
// selects every id and the full engine (nil metrics). Any id no renderer
// knows fails the whole selection with UnknownID. Every front end
// parses -exp here, so they accept and word it alike.
func Select(exps string) (ids, metrics []string, err error) {
	selected := map[string]bool{}
	for _, e := range strings.Split(exps, ",") {
		id := strings.TrimSpace(e)
		if _, ok := renderers[id]; !ok && id != "all" {
			return nil, nil, UnknownID(id)
		}
		selected[id] = true
	}
	if selected["all"] {
		return Order(), nil, nil
	}
	for _, id := range order {
		if selected[id] {
			ids = append(ids, id)
		}
	}
	metrics, err = core.ModulesFor(ids...)
	return ids, metrics, err
}

// Check reports what Render refuses before it reads the analyzer: an
// unknown id (ErrUnknownID) and a generator-requiring experiment in a
// context without one. A front end that must answer for a doc without
// rendering it — a conditional GET — asks here, in Render's words.
func Check(id string, cx Context) error {
	r, ok := renderers[id]
	if !ok {
		return UnknownID(id)
	}
	if r.needsGen && cx.Gen == nil {
		return fmt.Errorf("render: experiment %q needs the ground-truth generator, which this context does not have", id)
	}
	return nil
}

// Render builds the Doc for one experiment id. It returns an error for
// what Check refuses, and when the analyzer was built without a module
// the experiment reads (subset engines panic there; Render converts
// that into an error so a daemon serving a module subset degrades
// per-experiment).
func Render(id string, cx Context) (doc *Doc, err error) {
	if err := Check(id, cx); err != nil {
		return nil, err
	}
	r := renderers[id]
	d := &Doc{ID: id, Kind: Kind(id), Title: r.title}
	defer func() {
		if rec := recover(); rec != nil {
			doc, err = nil, fmt.Errorf("render: %s: %v", id, rec)
		}
	}()
	r.run(cx, d)
	return d, nil
}

var order = []string{
	"table1", "table3", "table4", "table5", "table6", "table7", "table8",
	"table9", "table10", "table11", "table12", "table13", "table14", "table15",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"https", "bt", "gcache", "probing", "groundtruth",
}

func aug(day, hour int) int64 {
	return time.Date(2011, 8, day, hour, 0, 0, 0, time.UTC).Unix()
}

var renderers = map[string]renderer{
	"table1": {title: "Datasets description", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 1", "Dataset", "# Requests")
		for _, ds := range cx.An.Table1() {
			tbl.Row(ds.ID.String(), ds.Requests)
		}
		d.addTable(tbl)
	}},
	"table3": {title: "Decisions and exceptions per dataset", run: func(cx Context, d *Doc) {
		t3 := cx.An.Table3()
		tbl := report.NewTable("Table 3", "Exception", "Class", "Full", "%", "Sample", "User", "Denied")
		full := t3[core.DFull]
		for ex := 0; ex < logfmt.NumExceptions; ex++ {
			e := logfmt.ExceptionID(ex)
			tbl.Row(e.String(), e.Class().String(),
				full.ByException[ex],
				report.Percent(sfrac(full.ByException[ex], full.Total)),
				t3[core.DSample].ByException[ex],
				t3[core.DUser].ByException[ex],
				t3[core.DDenied].ByException[ex])
		}
		tbl.Row("PROXIED (total)", "proxied", full.Proxied,
			report.Percent(sfrac(full.Proxied, full.Total)),
			t3[core.DSample].Proxied, t3[core.DUser].Proxied, t3[core.DDenied].Proxied)
		d.addTable(tbl)
	}},
	"table4": {title: "Top-10 domains (allowed and censored)", run: func(cx Context, d *Doc) {
		allowed, censored := cx.An.TopDomains(10)
		tbl := report.NewTable("Table 4", "Allowed domain", "# Req", "%", "", "Censored domain", "# Req", "%")
		for i := 0; i < 10; i++ {
			var row [8]interface{}
			for j := range row {
				row[j] = ""
			}
			if i < len(allowed) {
				row[0], row[1], row[2] = allowed[i].Domain, allowed[i].Count, report.Percent(allowed[i].Share)
			}
			if i < len(censored) {
				row[4], row[5], row[6] = censored[i].Domain, censored[i].Count, report.Percent(censored[i].Share)
			}
			tbl.Row(row[:7]...)
		}
		d.addTable(tbl)
	}},
	"table5": {title: "Top censored domains, Aug 3 6am-12pm", run: func(cx Context, d *Doc) {
		for _, win := range cx.An.Table5(aug(3, 6), aug(3, 12), 2*3600, 10) {
			from := time.Unix(win.FromUnix, 0).UTC().Format("15:04")
			to := time.Unix(win.ToUnix, 0).UTC().Format("15:04")
			tbl := report.NewTable(fmt.Sprintf("Table 5 window %s-%s", from, to), "Domain", "%")
			for _, row := range win.Top {
				tbl.Row(row.Domain, report.Percent(row.Share))
			}
			d.addTable(tbl)
		}
	}},
	"table6": {title: "Cosine similarity of censored domains across proxies", run: func(cx Context, d *Doc) {
		m := cx.An.ProxySimilarity()
		headers := []string{""}
		for sg := 42; sg <= 48; sg++ {
			headers = append(headers, fmt.Sprintf("SG-%d", sg))
		}
		tbl := report.NewTable("Table 6", headers...)
		for i, row := range m {
			cells := []interface{}{fmt.Sprintf("SG-%d", 42+i)}
			for _, v := range row {
				cells = append(cells, v)
			}
			tbl.Row(cells...)
		}
		d.addTable(tbl)
		d.textf("Default cs-categories labels:")
		for i, l := range cx.An.ProxyCategoryLabels() {
			d.textf("  SG-%d: %q", 42+i, l)
		}
	}},
	"table7": {title: "Top policy_redirect hosts", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 7", "cs_host", "# requests", "%")
		for _, row := range cx.An.RedirectHosts(5) {
			tbl.Row(row.Domain, row.Count, report.Percent(row.Share))
		}
		d.addTable(tbl)
	}},
	"table8": {title: "Suspected URL-censored domains", run: func(cx Context, d *Doc) {
		disc := cx.An.DiscoverFilters(0)
		// The title is fixed and the live count sits in a text section:
		// a table's title is structure to Diff, so a count in it would
		// make every cut resend the whole doc over /v1/sync.
		tbl := report.NewTable("Table 8 (top 15 shown)", "Domain", "Censored", "Allowed", "Proxied")
		for i, sd := range disc.Domains {
			if i >= 15 {
				break
			}
			tbl.Row(sd.Domain, sd.Censored, sd.Allowed, sd.Proxied)
		}
		d.addTable(tbl)
		d.textf("suspected domains: %d", len(disc.Domains))
	}},
	"table9": {title: "Censored domain categories", run: func(cx Context, d *Doc) {
		disc := cx.An.DiscoverFilters(0)
		tbl := report.NewTable("Table 9", "Category", "# Domains", "Censored requests")
		for _, row := range cx.An.Table9(disc) {
			tbl.Row(row.Category, row.Domains, row.Requests)
		}
		d.addTable(tbl)
	}},
	"table10": {title: "Censored keywords", run: func(cx Context, d *Doc) {
		disc := cx.An.DiscoverFilters(0)
		tbl := report.NewTable("Table 10", "Keyword", "Censored", "Allowed", "Proxied")
		for _, kw := range disc.Keywords {
			tbl.Row(kw.Keyword, kw.Censored, kw.Allowed, kw.Proxied)
		}
		d.addTable(tbl)
	}},
	"table11": {title: "Censorship ratio per country (IP-literal hosts)", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 11", "Country", "Ratio", "# Censored", "# Allowed")
		for _, row := range cx.An.CountryRatios() {
			tbl.Row(row.Country, report.Percent(row.Ratio), row.Censored, row.Allowed)
		}
		d.addTable(tbl)
	}},
	"table12": {title: "Top censored Israeli subnets", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 12", "Subnet", "Cens req", "Cens IPs", "Allow req", "Allow IPs", "Prox req", "Prox IPs")
		for _, row := range cx.An.IsraeliSubnets() {
			tbl.Row(row.Subnet, row.CensoredReqs, row.CensoredIPs,
				row.AllowedReqs, row.AllowedIPs, row.ProxiedReqs, row.ProxiedIPs)
		}
		d.addTable(tbl)
	}},
	"table13": {title: "Censorship across social networks", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 13 (top 10)", "OSN", "Censored", "Allowed", "Proxied")
		for i, row := range cx.An.SocialNetworks() {
			if i >= 10 {
				break
			}
			tbl.Row(row.Domain, row.Censored, row.Allowed, row.Proxied)
		}
		d.addTable(tbl)
	}},
	"table14": {title: "Blocked Facebook pages (custom category)", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 14", "Facebook page", "# Censored", "# Allowed", "# Proxied")
		for _, row := range cx.An.FacebookPages() {
			tbl.Row(row.Page, row.Censored, row.Allowed, row.Proxied)
		}
		d.addTable(tbl)
	}},
	"table15": {title: "Censored Facebook social-plugin elements", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Table 15", "Element", "Censored", "share of fb censored", "Allowed", "Proxied")
		for _, row := range cx.An.SocialPlugins(10) {
			tbl.Row(row.Path, row.Censored, report.Percent(row.ShareOfFBCensored), row.Allowed, row.Proxied)
		}
		d.addTable(tbl)
	}},
	"fig1": {title: "Destination port distribution", run: func(cx Context, d *Doc) {
		allowed, censored := cx.An.PortDistribution()
		chart := func(name string, pcs []core.PortCount) *report.Chart {
			labels := make([]string, 0, 8)
			values := make([]float64, 0, 8)
			for i, pc := range pcs {
				if i >= 8 {
					break
				}
				labels = append(labels, fmt.Sprint(pc.Port))
				values = append(values, float64(pc.Count))
			}
			return report.NewChart("Fig 1 — "+name, labels, values)
		}
		d.addChart(chart("allowed ports", allowed))
		d.addChart(chart("censored ports", censored))
	}},
	"fig2": {title: "Requests-per-domain distribution (power law)", run: func(cx Context, d *Doc) {
		for _, s := range cx.An.DomainFreqDistribution() {
			d.textf("Fig 2 — %s: %d distinct counts, fitted alpha %.2f",
				s.Class, len(s.Points), s.Alpha)
			show := s.Points
			if len(show) > 8 {
				show = show[:8]
			}
			for _, p := range show {
				d.textf("  %8d requests -> %6d domains", p[0], p[1])
			}
		}
	}},
	"fig3": {title: "Category distribution of censored traffic", run: func(cx Context, d *Doc) {
		rows := cx.An.CensoredCategories(false)
		labels := make([]string, 0, len(rows))
		values := make([]float64, 0, len(rows))
		for i, r := range rows {
			if i >= 12 {
				break
			}
			labels = append(labels, r.Category)
			values = append(values, r.Share*100)
		}
		d.addChart(report.NewChart("Fig 3 — censored categories (% of censored)", labels, values))
	}},
	"fig4": {title: "Per-user censorship (Duser)", run: func(cx Context, d *Doc) {
		rep := cx.An.UserAnalysis()
		d.textf("users: %d, censored users: %d (%.2f%%)",
			rep.TotalUsers, rep.CensoredUsers,
			100*float64(rep.CensoredUsers)/float64(maxInt(1, rep.TotalUsers)))
		d.textf("mean requests/user: censored %.1f vs others %.1f",
			rep.MeanActivityCensored, rep.MeanActivityOthers)
		d.textf("share with >100 requests: censored %.1f%% vs others %.1f%%",
			100*rep.ShareActiveCensored, 100*rep.ShareActiveOthers)
		labels := make([]string, len(rep.CensoredPerUser))
		values := make([]float64, len(rep.CensoredPerUser))
		for i, n := range rep.CensoredPerUser {
			labels[i] = fmt.Sprintf("%d", i+1)
			values[i] = float64(n)
		}
		d.addChart(report.NewChart("Fig 4a — censored requests per censored user", labels, values))
	}},
	"fig5": {title: "Censored/allowed traffic over Aug 1-6", run: func(cx Context, d *Doc) {
		series := cx.An.TimeSeries(aug(1, 0), aug(7, 0))
		al := make([]float64, len(series))
		ce := make([]float64, len(series))
		for i, p := range series {
			al[i] = float64(p.Allowed)
			ce[i] = float64(p.Censored)
		}
		d.addChart(report.NewSpark("Fig 5 — allowed (5-min slots, downsampled):", report.Downsample(al, 72)))
		d.addChart(report.NewSpark("Fig 5 — censored:", report.Downsample(ce, 72)))
	}},
	"fig6": {title: "Relative Censored Volume, Aug 3", run: func(cx Context, d *Doc) {
		pts := cx.An.RCV(aug(3, 0), aug(4, 0))
		values := make([]float64, len(pts))
		for i, p := range pts {
			values[i] = p.RCV
		}
		d.addChart(report.NewSpark("Fig 6 — RCV across Aug 3 (5-min slots):", report.Downsample(values, 96)))
		type hv struct {
			h int
			v float64
		}
		var hours []hv
		for h := 0; h < 24; h++ {
			sum, n := 0.0, 0
			for _, p := range pts {
				if int((p.Unix-aug(3, 0))/3600) == h {
					sum += p.RCV
					n++
				}
			}
			hours = append(hours, hv{h, sum / float64(maxInt(1, n))})
		}
		sort.Slice(hours, func(i, j int) bool {
			if hours[i].v != hours[j].v {
				return hours[i].v > hours[j].v
			}
			return hours[i].h < hours[j].h
		})
		d.textf("peak RCV hours: %02d:00 (%.4f), %02d:00 (%.4f), %02d:00 (%.4f)",
			hours[0].h, hours[0].v, hours[1].h, hours[1].v, hours[2].h, hours[2].v)
	}},
	"fig7": {title: "Per-proxy load and censored share", run: func(cx Context, d *Doc) {
		tbl := report.NewTable("Fig 7", "Proxy", "Total", "Censored", "Censored share")
		for _, l := range cx.An.ProxyLoads() {
			tbl.Row(fmt.Sprintf("SG-%d", l.SG), l.Total, l.Censored,
				report.Percent(sfrac(l.Censored, maxU64(1, l.Total))))
		}
		d.addTable(tbl)
	}},
	"fig8": {title: "Tor traffic", run: func(cx Context, d *Doc) {
		rep := cx.An.TorAnalysis()
		d.textf("Tor requests: %d to %d relays (Torhttp %.1f%%, Toronion %.1f%%)",
			rep.Total, rep.Relays,
			100*sfrac(rep.HTTP, maxU64(1, rep.Total)), 100*sfrac(rep.Onion, maxU64(1, rep.Total)))
		d.textf("censored: %d (%.2f%%), tcp errors: %d (%.1f%%)",
			rep.Censored, 100*sfrac(rep.Censored, maxU64(1, rep.Total)),
			rep.Errors, 100*sfrac(rep.Errors, maxU64(1, rep.Total)))
		for i, n := range rep.CensoredByProxy {
			if n > 0 {
				d.textf("  censored on SG-%d: %d (%.1f%% of censored Tor)",
					42+i, n, 100*sfrac(n, maxU64(1, rep.Censored)))
			}
		}
		hourly := cx.An.TorHourly(aug(1, 0), aug(7, 0))
		values := make([]float64, len(hourly))
		for i, h := range hourly {
			values[i] = float64(h.Total)
		}
		d.addChart(report.NewSpark("Fig 8a — Tor requests/hour, Aug 1-6:", values))
	}},
	"fig9": {title: "Tor re-censoring consistency (Rfilter)", run: func(cx Context, d *Doc) {
		pts := cx.An.RFilter(aug(1, 0), aug(7, 0))
		if pts == nil {
			d.textf("no censored Tor relays in this corpus")
			return
		}
		values := make([]float64, len(pts))
		below := 0
		for i, p := range pts {
			values[i] = p.RFilter
			if p.AllowedSeen && p.RFilter < 1 {
				below++
			}
		}
		d.addChart(report.NewSpark("Fig 9 — Rfilter per hour (1 = fully re-censored):", values))
		d.textf("hours where censored relays were re-allowed: %d of %d", below, len(pts))
	}},
	"fig10": {title: "Anonymizer services", run: func(cx Context, d *Doc) {
		rep := cx.An.Anonymizers()
		d.textf("anonymizer hosts: %d (%d never filtered, %.1f%%), %d requests",
			rep.Hosts, rep.NeverFiltered,
			100*float64(rep.NeverFiltered)/float64(maxInt(1, rep.Hosts)), rep.Requests)
		d.textf("Fig 10a — CDF of requests per never-filtered host:")
		for _, q := range []float64{0.5, 0.9, 0.99} {
			d.textf("  P%.0f: %.0f requests", q*100, rep.RequestsCDF.Quantile(q))
		}
		if rep.FilteredHosts > 0 {
			d.textf("Fig 10b — filtered hosts: %d; allowed/censored ratio median %.2f",
				rep.FilteredHosts, rep.RatioCDF.Quantile(0.5))
		}
	}},
	"https": {title: "HTTPS traffic (§4)", run: func(cx Context, d *Doc) {
		rep := cx.An.HTTPSAnalysis()
		d.textf("HTTPS/CONNECT requests: %d (%.3f%% of traffic)", rep.Total, 100*rep.ShareOfTraffic)
		d.textf("censored: %d (%.2f%% of HTTPS); IP-literal destinations: %d (%.1f%% of censored)",
			rep.Censored, 100*rep.CensoredShare, rep.CensoredIPLiteral, 100*rep.IPLiteralShare)
	}},
	"bt": {title: "BitTorrent (§7.3)", run: func(cx Context, d *Doc) {
		disc := cx.An.DiscoverFilters(0)
		kws := make([]string, 0, len(disc.Keywords))
		for _, kw := range disc.Keywords {
			kws = append(kws, kw.Keyword)
		}
		rep := cx.An.BitTorrent(kws)
		d.textf("announces: %d from %d peers for %d contents", rep.Announces, rep.Users, rep.Contents)
		d.textf("allowed: %.2f%%; censored: %d", 100*rep.AllowedShare, rep.Censored)
		d.textf("titles resolved: %d (%.1f%%); with blacklisted keywords: %d; anti-censorship tools: %d",
			rep.Resolved, 100*rep.ResolvedShare, rep.KeywordTitles, rep.ToolTitles)
		tbl := report.NewTable("Top trackers", "Tracker", "Announces")
		for _, tr := range rep.TopTrackers {
			tbl.Row(tr.Domain, tr.Count)
		}
		d.addTable(tbl)
	}},
	"gcache": {title: "Google cache (§7.4)", run: func(cx Context, d *Doc) {
		rep := cx.An.GoogleCache()
		d.textf("cache requests: %d, censored: %d", rep.Total, rep.Censored)
	}},
	"probing": {title: "Probing-based measurement vs log analysis (§1 claims)", needsGen: true, run: func(cx Context, d *Doc) {
		// A probing campaign over a classic candidate list: popular sites
		// plus the suspected-blocked sites a prober might know about.
		candidates := []string{
			"google.com", "facebook.com", "twitter.com", "youtube.com",
			"wikipedia.org", "amazon.com", "metacafe.com", "skype.com",
			"badoo.com", "netlog.com", "bbc.co.uk", "aljazeera.net",
			"aawsat.com", "panet.co.il", "linkedin.com", "flickr.com",
		}
		pr := prober.New(cx.Gen.Engine())
		rep := pr.Run(prober.HomepageProbes(candidates))
		d.textf("probes: %d, blocked: %d, blocked hosts: %v",
			rep.Probes, rep.Blocked, rep.BlockedHosts)

		kwCov := prober.KeywordCoverage(rep, cx.Gen.Ruleset().Keywords)
		domCov := prober.DomainCoverage(rep, cx.Gen.Ruleset().Domains)
		d.textf("probing keyword recall: %.0f%% (missed: %v)",
			100*kwCov.Recall(), kwCov.MissedRules)
		d.textf("probing domain recall:  %.0f%% (%d of %d rules witnessed)",
			100*domCov.Recall(), domCov.FoundRules, domCov.ReferenceRules)

		disc := cx.An.DiscoverFilters(0)
		kws := map[string]bool{}
		for _, kw := range disc.Keywords {
			kws[kw.Keyword] = true
		}
		logKw := 0
		for _, kw := range cx.Gen.Ruleset().Keywords {
			if kws[kw] {
				logKw++
			}
		}
		d.textf("log-analysis keyword recall: %.0f%% — the §1 advantage of logs over probing",
			100*float64(logKw)/float64(len(cx.Gen.Ruleset().Keywords)))
		full := cx.An.Dataset(core.DFull)
		d.textf("extent: probing cannot measure traffic volume; logs show %s of requests censored",
			report.Percent(sfrac(full.Censored(), full.Total)))
	}},
	"groundtruth": {title: "Recovered policy vs ground truth", needsGen: true, run: func(cx Context, d *Doc) {
		disc := cx.An.DiscoverFilters(0)
		rs := cx.Gen.Ruleset()
		truth := map[string]bool{}
		for _, kw := range rs.Keywords {
			truth[kw] = true
		}
		hits := 0
		for _, kw := range disc.Keywords {
			if truth[kw.Keyword] {
				hits++
			}
		}
		d.textf("keyword recall: %d/%d ground-truth keywords recovered; %d extra tokens",
			hits, len(rs.Keywords), len(disc.Keywords)-hits)
		blocked := 0
		engine := cx.Gen.Engine()
		for _, sd := range disc.Domains {
			if strings.HasPrefix(sd.Domain, ".") {
				blocked++
				continue
			}
			r := policy.Request{Host: sd.Domain, Path: "/", Scheme: "http", Method: "GET", Port: 80}
			if engine.Evaluate(&r).Action != policy.Allow {
				blocked++
			}
		}
		d.textf("domain precision: %d/%d suspected domains are truly blocked", blocked, len(disc.Domains))
	}},
}

func sfrac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
