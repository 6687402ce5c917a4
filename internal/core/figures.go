package core

import (
	"sort"
	"strings"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/stats"
)

// --- Figure 1 ---

// PortCount is one bar of Fig 1.
type PortCount struct {
	Port  uint16
	Count uint64
}

// PortDistribution returns the allowed and censored per-port request
// counts, descending by count.
func (e *Engine) PortDistribution() (allowed, censored []PortCount) {
	m := mod[*portsMetric](e, "ports", "PortDistribution")
	return sortPorts(m.allowed), sortPorts(m.censored)
}

func sortPorts(m map[uint16]uint64) []PortCount {
	out := make([]PortCount, 0, len(m))
	for p, n := range m {
		out = append(out, PortCount{Port: p, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// --- Figure 2 ---

// FreqSeries is one curve of Fig 2: (requests-per-domain, #domains) pairs
// plus the fitted power-law exponent.
type FreqSeries struct {
	Class  string
	Points [][2]uint64 // (request count, number of domains with that count)
	Alpha  float64     // fitted exponent (0 if the fit failed)
}

// DomainFreqDistribution returns the Fig 2 curves for allowed, denied
// (errors) and censored traffic.
func (e *Engine) DomainFreqDistribution() []FreqSeries {
	dm := mod[*domainsMetric](e, "domains", "DomainFreqDistribution")
	mk := func(name string, c *stats.Counter) FreqSeries {
		var counts []uint64
		var samples []float64
		// Top(0) yields a sorted order, so the float summation inside
		// FitPowerLaw is deterministic run to run.
		for _, en := range c.Top(0) {
			counts = append(counts, en.Count)
			samples = append(samples, float64(en.Count))
		}
		fs := FreqSeries{Class: name, Points: stats.FreqOfFreq(counts)}
		if fit, err := stats.FitPowerLaw(samples, 1); err == nil {
			fs.Alpha = fit.Alpha
		}
		return fs
	}
	return []FreqSeries{
		mk("allowed", dm.allowed),
		mk("denied", dm.denied),
		mk("censored", dm.censored),
	}
}

// --- Figure 3 ---

// CategoryShare is one bar of Fig 3.
type CategoryShare struct {
	Category string
	Count    uint64
	Share    float64
}

// CensoredCategories returns the category distribution of censored
// traffic. sample selects the Dsample-based variant the paper plots.
func (e *Engine) CensoredCategories(sample bool) []CategoryShare {
	m := mod[*categoriesMetric](e, "categories", "CensoredCategories")
	c := m.censoredFull
	if sample {
		c = m.censoredSample
	}
	total := c.Total()
	entries := c.Top(0)
	out := make([]CategoryShare, len(entries))
	for i, en := range entries {
		out[i] = CategoryShare{Category: en.Key, Count: en.Count, Share: frac(en.Count, total)}
	}
	return out
}

// --- Figure 4 ---

// UserReport is Fig 4 plus the §4 headline user numbers.
type UserReport struct {
	TotalUsers    int
	CensoredUsers int
	// CensoredPerUser is the histogram of censored-request counts among
	// censored users (Fig 4a), bucket i = i+1 censored requests, last
	// bucket is ">= len".
	CensoredPerUser []uint64
	// ActivityCensored / ActivityOthers are the request-count CDFs of
	// Fig 4b.
	ActivityCensored *stats.CDF
	ActivityOthers   *stats.CDF
	// ShareActiveCensored / ShareActiveOthers report P(requests > 100),
	// the paper's 50%-vs-5% contrast.
	ShareActiveCensored float64
	ShareActiveOthers   float64
	// MeanActivityCensored / MeanActivityOthers give the scale-free
	// version of the same contrast for scaled-down corpora.
	MeanActivityCensored float64
	MeanActivityOthers   float64
}

// UserAnalysis computes the Duser-based per-user view.
func (e *Engine) UserAnalysis() UserReport {
	return userReport(mod[*usersMetric](e, "users", "UserAnalysis"))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// --- Figures 5 and 6 ---

// SeriesPoint is one 5-minute bucket of Fig 5.
type SeriesPoint struct {
	Unix     int64
	Allowed  uint64
	Censored uint64
}

// TimeSeries returns the censored/allowed series over [fromUnix, toUnix),
// with empty slots materialized as zeros.
func (e *Engine) TimeSeries(fromUnix, toUnix int64) []SeriesPoint {
	parts := layers[*timeseriesMetric](e, "timeseries", "TimeSeries")
	var out []SeriesPoint
	for t := fromUnix - fromUnix%SlotSeconds; t < toUnix; t += SlotSeconds {
		s := tsAt(parts, t/SlotSeconds)
		out = append(out, SeriesPoint{
			Unix:     t,
			Allowed:  s.allowed,
			Censored: s.censored,
		})
	}
	return out
}

// RCVPoint is one Fig 6 sample: the Relative Censored traffic Volume.
type RCVPoint struct {
	Unix int64
	RCV  float64 // censored / total in the slot (0 when the slot is empty)
}

// RCV computes Fig 6 over [fromUnix, toUnix).
func (e *Engine) RCV(fromUnix, toUnix int64) []RCVPoint {
	parts := layers[*timeseriesMetric](e, "timeseries", "RCV")
	var out []RCVPoint
	for t := fromUnix - fromUnix%SlotSeconds; t < toUnix; t += SlotSeconds {
		s := tsAt(parts, t/SlotSeconds)
		cens := s.censored
		total := cens + s.allowed
		p := RCVPoint{Unix: t}
		if total > 0 {
			p.RCV = float64(cens) / float64(total)
		}
		out = append(out, p)
	}
	return out
}

// --- Figure 7 ---

// ProxyLoad is the Fig 7 summary for one proxy.
type ProxyLoad struct {
	SG       int
	Total    uint64
	Censored uint64
}

// ProxyLoads returns per-proxy totals (SG-42..48 order).
func (e *Engine) ProxyLoads() []ProxyLoad {
	parts := layers[*proxiesMetric](e, "proxies", "ProxyLoads")
	out := make([]ProxyLoad, logfmt.NumProxies)
	for i := range out {
		out[i].SG = logfmt.FirstProxy + i
		for _, m := range parts {
			out[i].Total += m.total[i]
			out[i].Censored += m.censored[i]
		}
	}
	return out
}

// --- Figure 8 ---

// TorReport is the §7.1 summary.
type TorReport struct {
	Total    uint64
	HTTP     uint64 // Torhttp: directory protocol
	Onion    uint64 // Toronion: OR-port traffic
	Censored uint64
	Errors   uint64
	// CensoredByProxy indexes SG-42..48.
	CensoredByProxy [7]uint64
	// Relays is the number of distinct relays contacted.
	Relays int
}

// TorAnalysis returns the Tor summary (zero-valued without a consensus).
func (e *Engine) TorAnalysis() TorReport {
	var rep TorReport
	relays := map[uint32]struct{}{}
	for _, m := range layers[*torMetric](e, "tor", "TorAnalysis") {
		rep.Total += m.total
		rep.HTTP += m.http
		rep.Onion += m.onion
		rep.Censored += m.censored
		rep.Errors += m.errors
		for i, n := range m.censoredByProxy {
			rep.CensoredByProxy[i] += n
		}
		mergeSet(relays, m.censoredIPs)
		for _, set := range m.allowedIPsByHour {
			mergeSet(relays, set)
		}
	}
	rep.Relays = len(relays)
	return rep
}

// HourPoint is one Fig 8(a) bar.
type HourPoint struct {
	Unix     int64
	Total    uint64
	Censored uint64
}

// TorHourly returns the per-hour Tor request series over [from, to).
func (e *Engine) TorHourly(fromUnix, toUnix int64) []HourPoint {
	parts := layers[*torMetric](e, "tor", "TorHourly")
	var out []HourPoint
	for t := fromUnix - fromUnix%3600; t < toUnix; t += 3600 {
		hour, p := t/3600, HourPoint{Unix: t}
		for _, m := range parts {
			p.Total += m.hourly[hour]
			p.Censored += m.censHourly[hour]
		}
		out = append(out, p)
	}
	return out
}

// --- Figure 9 ---

// RFilterPoint is one Fig 9 sample.
type RFilterPoint struct {
	Unix    int64
	RFilter float64
	// AllowedSeen reports whether any Tor traffic was allowed in the bin
	// (the paper plots empty bins distinctly).
	AllowedSeen bool
}

// RFilter computes the §7.1 re-censoring consistency metric per hour bin:
//
//	Rfilter(k) = 1 - |Censored-IPs ∩ Allowed-IPs(k)| / |Censored-IPs|
//
// over [fromUnix, toUnix). Returns nil if no Tor relay was ever censored.
func (e *Engine) RFilter(fromUnix, toUnix int64) []RFilterPoint {
	parts := layers[*torMetric](e, "tor", "RFilter")
	censored := eachUnion(parts, func(m *torMetric) map[uint32]struct{} { return m.censoredIPs }, nil)
	if censored == 0 {
		return nil
	}
	total := float64(censored)
	isCensored := func(ip uint32) bool {
		for _, m := range parts {
			if _, ok := m.censoredIPs[ip]; ok {
				return true
			}
		}
		return false
	}
	var out []RFilterPoint
	for t := fromUnix - fromUnix%3600; t < toUnix; t += 3600 {
		hour := t / 3600
		inter := 0
		allowed := eachUnion(parts, func(m *torMetric) map[uint32]struct{} { return m.allowedIPsByHour[hour] }, func(ip uint32) {
			if isCensored(ip) {
				inter++
			}
		})
		out = append(out, RFilterPoint{
			Unix:        t,
			RFilter:     1 - float64(inter)/total,
			AllowedSeen: allowed > 0,
		})
	}
	return out
}

// --- Figure 10 ---

// AnonymizerReport is the §7.2 summary.
type AnonymizerReport struct {
	Hosts         int // distinct anonymizer hosts seen
	NeverFiltered int // hosts with zero censored requests
	Requests      uint64
	// RequestsCDF is Fig 10(a): #requests per never-filtered host.
	RequestsCDF *stats.CDF
	// RatioCDF is Fig 10(b): allowed/censored ratio for filtered hosts.
	RatioCDF *stats.CDF
	// FilteredHosts is the Fig 10(b) population size.
	FilteredHosts int
}

// Anonymizers computes the anonymizer-service view.
func (e *Engine) Anonymizers() AnonymizerReport {
	m := mod[*anonymizersMetric](e, "anonymizers", "Anonymizers")
	rep := AnonymizerReport{}
	hosts := map[string]struct{}{}
	m.allowed.Each(func(h string, _ uint64) { hosts[h] = struct{}{} })
	m.censored.Each(func(h string, _ uint64) { hosts[h] = struct{}{} })
	rep.Hosts = len(hosts)
	rep.Requests = m.allowed.Total() + m.censored.Total()

	var reqs, ratios []float64
	for h := range hosts {
		cens := m.censored.Count(h)
		allow := m.allowed.Count(h)
		if cens == 0 {
			rep.NeverFiltered++
			reqs = append(reqs, float64(allow))
			continue
		}
		rep.FilteredHosts++
		ratios = append(ratios, float64(allow)/float64(cens))
	}
	rep.RequestsCDF = stats.NewCDF(reqs)
	rep.RatioCDF = stats.NewCDF(ratios)
	return rep
}

// --- §4 HTTPS ---

// HTTPSReport is the §4 HTTPS summary.
type HTTPSReport struct {
	Total             uint64
	ShareOfTraffic    float64
	Censored          uint64
	CensoredShare     float64
	CensoredIPLiteral uint64
	// IPLiteralShare is the share of censored HTTPS whose destination is
	// a raw IP (the paper reports 82%).
	IPLiteralShare float64
}

// HTTPSAnalysis summarizes CONNECT/HTTPS traffic.
func (e *Engine) HTTPSAnalysis() HTTPSReport {
	m := mod[*httpsMetric](e, "https", "HTTPSAnalysis")
	rep := HTTPSReport{
		Total:             m.total,
		Censored:          m.censored,
		CensoredIPLiteral: m.censoredIPLit,
	}
	rep.ShareOfTraffic = frac(m.total, m.grandTotal)
	rep.CensoredShare = frac(m.censored, m.total)
	rep.IPLiteralShare = frac(m.censoredIPLit, m.censored)
	return rep
}

// --- §7.3 BitTorrent ---

// BitTorrentReport is the §7.3 summary.
type BitTorrentReport struct {
	Announces     uint64
	Users         int // distinct peer ids
	Contents      int // distinct info hashes
	Censored      uint64
	AllowedShare  float64
	Resolved      int     // info hashes resolved to titles
	ResolvedShare float64 // the paper reports 77.4%
	// KeywordTitles counts resolved titles containing a blacklisted
	// keyword — their announces were nonetheless allowed (§7.3's point).
	KeywordTitles int
	// ToolTitles counts resolved titles naming anti-censorship tools.
	ToolTitles  int
	TopTrackers []DomainShare
}

// BitTorrent summarizes tracker-announce traffic. keywords is the
// blacklist to check titles against (pass the Table 10 discovery output
// or the ground-truth list).
func (e *Engine) BitTorrent(keywords []string) BitTorrentReport {
	parts := layers[*bittorrentMetric](e, "bittorrent", "BitTorrent")
	var rep BitTorrentReport
	for _, m := range parts {
		rep.Announces += m.total
		rep.Censored += m.censored
	}
	peers := func(m *bittorrentMetric) map[[20]byte]struct{} { return m.peers }
	hashes := func(m *bittorrentMetric) map[[20]byte]struct{} { return m.hashes }
	rep.Users = eachUnion(parts, peers, nil)
	rep.Contents = eachUnion(parts, hashes, nil)
	rep.AllowedShare = frac(rep.Announces-rep.Censored, rep.Announces)
	rep.TopTrackers = sharesOf(layered(parts, func(m *bittorrentMetric) *stats.Counter { return m.trackers }), 5)
	if e.opt.TitleDB != nil {
		keywords := bittorrent.LowerKeywords(keywords)
		tools := []string{"ultrasurf", "hidemyass", "hide ip", "anonymous browser"}
		eachUnion(parts, hashes, func(hash [20]byte) {
			title, ok := e.opt.TitleDB.Resolve(hash)
			if !ok {
				return
			}
			title = strings.ToLower(title)
			rep.Resolved++
			if bittorrent.ContainsAnyKeyword(title, keywords) {
				rep.KeywordTitles++
			}
			if bittorrent.ContainsAnyKeyword(title, tools) {
				rep.ToolTitles++
			}
		})
		rep.ResolvedShare = frac(uint64(rep.Resolved), uint64(rep.Contents))
	}
	return rep
}

// --- §7.4 Google cache ---

// GoogleCacheReport is the §7.4 summary.
type GoogleCacheReport struct {
	Total    uint64
	Censored uint64
}

// GoogleCache summarizes webcache.googleusercontent.com traffic.
func (e *Engine) GoogleCache() GoogleCacheReport {
	m := mod[*gcacheMetric](e, "gcache", "GoogleCache")
	return GoogleCacheReport{Total: m.total, Censored: m.censored}
}
