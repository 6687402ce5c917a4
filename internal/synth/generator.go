package synth

import (
	"sort"

	"syriafilter/internal/categorydb"
	"syriafilter/internal/geoip"
	"syriafilter/internal/policy"
	"syriafilter/internal/stats"
	"syriafilter/internal/torsim"
	"syriafilter/internal/urlx"
)

// Generator streams a calibrated request corpus in time order. Create one
// with New, then drain it with Next. The same Config always produces the
// same corpus.
type Generator struct {
	cfg  Config
	w    *world
	r    *stats.Rand
	days []Day

	userCum []float64 // cumulative activity weights for user selection

	perWeight float64 // requests per unit of (dayWeight * diurnal)

	// Iteration state.
	dayIdx int
	slot   int
	batch  []Request
	batchI int

	israeliIPs  []uint32 // sample pool of Israeli addresses (blocked + allowed)
	countryIPs  map[string][]uint32
	countryCum  []float64
	countryKeys []string
}

// New builds a generator. The returned generator owns cfg (a copy).
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := stats.NewRand(cfg.Seed ^ 0x53594e5448)
	w, err := buildWorld(&cfg, r.Fork())
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, w: w, r: r, days: Timeline()}

	weights := make([]float64, len(w.users))
	for i := range w.users {
		weights[i] = w.users[i].activity
	}
	g.userCum = stats.Cumulate(weights)

	total := 0.0
	for _, d := range g.days {
		for s := 0; s < SlotsPerDay; s++ {
			total += d.Weight * diurnal(s)
		}
	}
	g.perWeight = float64(cfg.TotalRequests) / total

	g.buildIPPools(r.Fork())
	return g, nil
}

func (g *Generator) buildIPPools(r *stats.Rand) {
	// Israeli pool: mostly-blocked subnets plus the mostly-allowed /16,
	// shaping Table 12's two groups.
	add := func(dst []uint32, cidr string, n int) []uint32 {
		start, end, err := geoip.ParseCIDR(cidr)
		if err != nil {
			panic("synth: bad pool CIDR " + cidr)
		}
		span := end - start
		for i := 0; i < n; i++ {
			dst = append(dst, start+r.Uint32()%(span+1))
		}
		return dst
	}
	// Israel's traffic is mostly *allowed* (Table 11: 6.69% censorship
	// ratio): the popular destinations live in the mostly-allowed
	// 212.150.0.0/16 and in Israeli space outside the blocked subnets.
	g.israeliIPs = add(g.israeliIPs, "212.150.0.0/16", 60)
	g.israeliIPs = add(g.israeliIPs, "80.179.0.0/16", 90)
	for _, cidr := range policy.PaperBlockedSubnets {
		g.israeliIPs = add(g.israeliIPs, cidr, 3)
	}
	for _, s := range []string{"212.150.10.1", "212.150.20.2", "212.150.30.3"} {
		ip, _ := urlx.ParseIPv4(s)
		// The blocked hosts inside the mostly-allowed /16 are popular
		// destinations (Table 12 shows hundreds of censored requests to
		// just 3 addresses); duplication weights them accordingly.
		g.israeliIPs = append(g.israeliIPs, ip, ip, ip, ip)
	}

	// Other countries' pools with Table 11-shaped visit weights.
	blocks := geoip.CountryBlocks()
	g.countryIPs = make(map[string][]uint32)
	type cw struct {
		c string
		w float64
	}
	weights := []cw{
		{"NL", 58}, {"GB", 12}, {"RU", 3}, {"US", 25}, {"DE", 4},
		{"FR", 2.5}, {"SG", 0.13}, {"BG", 0.13}, {"KW", 0.05}, {"IL", 2},
	}
	var cum []float64
	var keys []string
	wsum := 0.0
	for _, c := range weights {
		pool := []uint32{}
		for _, cidr := range blocks[c.c] {
			pool = add(pool, cidr, 25)
		}
		if c.c == "IL" {
			// Israel's destination mix is the curated pool: mostly allowed
			// space with the Table 12 blocked subnets as a minority.
			pool = g.israeliIPs
		}
		g.countryIPs[c.c] = pool
		wsum += c.w
		cum = append(cum, wsum)
		keys = append(keys, c.c)
	}
	g.countryCum = cum
	g.countryKeys = keys
}

// Seed returns the seed the corpus is generated from.
func (g *Generator) Seed() uint64 { return g.cfg.Seed }

// Ruleset returns the effective ground-truth policy (paper base plus the
// generated blocked domains).
func (g *Generator) Ruleset() *policy.Ruleset { return g.w.ruleset }

// Engine returns the compiled ground-truth policy engine.
func (g *Generator) Engine() *policy.Engine { return g.w.engine }

// CategoryDB returns the category database covering every generated host.
func (g *Generator) CategoryDB() *categorydb.DB { return g.w.catdb }

// Consensus returns the Tor consensus the corpus's Tor traffic targets.
func (g *Generator) Consensus() *torsim.Consensus { return g.w.consensus }

// Next returns the next request in time order, or ok=false when the
// timeline is exhausted. The returned value is a copy; callers may retain
// it.
func (g *Generator) Next() (Request, bool) {
	for g.batchI >= len(g.batch) {
		if g.dayIdx >= len(g.days) {
			return Request{}, false
		}
		g.fillSlot()
		g.slot++
		if g.slot >= SlotsPerDay {
			g.slot = 0
			g.dayIdx++
		}
	}
	req := g.batch[g.batchI]
	g.batchI++
	return req, true
}

// fillSlot generates one 5-minute slot's worth of traffic into g.batch.
func (g *Generator) fillSlot() {
	day := g.days[g.dayIdx]
	want := int(g.perWeight * day.Weight * diurnal(g.slot))
	g.batch = g.batch[:0]
	g.batchI = 0
	if want <= 0 {
		return
	}
	slotStart := day.Date.Unix() + int64(g.slot*SlotSeconds)
	surge := imSurge(day, g.slot)

	for len(g.batch) < want {
		ui := g.r.WeightedChoice(g.userCum)
		g.emitActivity(ui, slotStart, surge)
	}
	sort.Slice(g.batch, func(i, j int) bool { return g.batch[i].Time < g.batch[j].Time })
}

// Activity kinds. Weights are assembled per user from flags.
type activity uint8

const (
	actBrowseHead activity = iota
	actBrowseTail
	actHTTPS
	actIPLiteral
	actSkype
	actMSN
	actMetacafe
	actPlugins
	actZynga
	actNews
	actIsraeli
	actAnonymizer
	actTor
	actBT
	actGCache
	actFBPages
	actUpload
	numActivities
)

func (g *Generator) emitActivity(ui int, slotStart int64, surge float64) {
	u := &g.w.users[ui]
	var w [numActivities]float64
	w[actBrowseHead] = 60
	w[actBrowseTail] = 26
	w[actHTTPS] = 0.8
	w[actIPLiteral] = 3.0
	if u.flags&bhSkype != 0 {
		w[actSkype] = 11 * surge
	}
	if u.flags&bhMSN != 0 {
		w[actMSN] = 10 * surge
	}
	if surge > 1 {
		// Protest-day demand: *everyone* reaches for IM (the paper's
		// explanation for the Fig. 6 peaks), not just habitual users.
		w[actSkype] += 0.35 * (surge - 1)
		w[actMSN] += 0.2 * (surge - 1)
	}
	if u.flags&bhMetacafe != 0 {
		w[actMetacafe] = 22
	}
	if u.flags&bhPluginSites != 0 {
		w[actPlugins] = 18
	}
	if u.flags&bhZynga != 0 {
		w[actZynga] = 14
	}
	if u.flags&bhNews != 0 {
		w[actNews] = 10
	}
	if u.flags&bhIsraeli != 0 {
		w[actIsraeli] = 9
	}
	if u.flags&bhAnonymizer != 0 {
		w[actAnonymizer] = 13
	}
	if u.flags&bhTor != 0 {
		w[actTor] = 15
	}
	if u.flags&bhBitTorrent != 0 {
		w[actBT] = 25
	}
	if u.flags&bhGCache != 0 {
		w[actGCache] = 6
	}
	if u.flags&bhFBPages != 0 {
		w[actFBPages] = 6
	}
	if u.flags&bhUploader != 0 {
		w[actUpload] = 6
	}

	var cum [numActivities]float64
	total := 0.0
	for i, wi := range w {
		total += wi
		cum[i] = total
	}
	x := g.r.Float64() * total
	act := activity(0)
	for i, c := range cum {
		if x < c {
			act = activity(i)
			break
		}
	}

	t := func() int64 { return slotStart + int64(g.r.Intn(SlotSeconds)) }
	switch act {
	case actBrowseHead:
		g.emitHeadVisit(u, t)
	case actBrowseTail:
		g.emitTailVisit(u, t)
	case actHTTPS:
		g.emitHTTPS(u, t)
	case actIPLiteral:
		g.emitIPLiteral(u, t)
	case actSkype:
		g.emitSkype(u, t)
	case actMSN:
		g.emitMSN(u, t)
	case actMetacafe:
		g.emitMetacafe(u, t)
	case actPlugins:
		g.emitPluginPage(u, t)
	case actZynga:
		g.emitZynga(u, t)
	case actNews:
		g.emitNews(u, t)
	case actIsraeli:
		g.emitIsraeli(u, t)
	case actAnonymizer:
		g.emitAnonymizer(u, t)
	case actTor:
		g.emitTor(u, t)
	case actBT:
		g.emitBT(ui, t)
	case actGCache:
		g.emitGCache(u, t)
	case actFBPages:
		g.emitFBPage(u, t)
	case actUpload:
		g.emitUpload(u, t)
	}
}

// push appends a GET request with defaults filled.
func (g *Generator) push(u *user, t int64, host string, port uint16, path, query string) {
	g.batch = append(g.batch, Request{
		Time: t, ClientIP: u.ip, UserAgent: u.agent,
		Method: "GET", Scheme: "http", Host: host, Port: port,
		Path: path, Query: query,
	})
}

// pushConnect appends an HTTPS CONNECT tunnel request.
func (g *Generator) pushConnect(u *user, t int64, host string, port uint16) {
	g.batch = append(g.batch, Request{
		Time: t, ClientIP: u.ip, UserAgent: u.agent,
		Method: "CONNECT", Scheme: "tcp", Host: host, Port: port,
	})
}
