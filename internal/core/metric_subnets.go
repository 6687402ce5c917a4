package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
	"syriafilter/internal/stats"
)

// subnetStat is the per-subnet accumulator behind Table 12. The subnet key
// space itself is bounded (the fixed Israeli ranges), but the distinct-IP
// sets are not — in sketch mode each set becomes a HyperLogLog so memory
// stays constant per subnet regardless of how many client IPs appear.
type subnetStat struct {
	Censored, Allowed, Proxied uint64

	// Exact mode.
	CensoredIPs, AllowedIPs, ProxIPs map[uint32]struct{}

	// Sketch mode.
	CensHLL, AllowHLL, ProxHLL *stats.HyperLogLog
}

func newSubnetStat() *subnetStat {
	return &subnetStat{
		CensoredIPs: map[uint32]struct{}{},
		AllowedIPs:  map[uint32]struct{}{},
		ProxIPs:     map[uint32]struct{}{},
	}
}

func newSubnetStatSketch(p uint8) *subnetStat {
	return &subnetStat{
		CensHLL:  stats.NewHyperLogLog(p),
		AllowHLL: stats.NewHyperLogLog(p),
		ProxHLL:  stats.NewHyperLogLog(p),
	}
}

func (st *subnetStat) sketched() bool { return st.CensHLL != nil }

// CensoredIPCount etc. report the distinct-IP counts in the stat's mode.
func (st *subnetStat) CensoredIPCount() uint64 {
	if st.sketched() {
		return st.CensHLL.Estimate()
	}
	return uint64(len(st.CensoredIPs))
}

func (st *subnetStat) AllowedIPCount() uint64 {
	if st.sketched() {
		return st.AllowHLL.Estimate()
	}
	return uint64(len(st.AllowedIPs))
}

func (st *subnetStat) ProxiedIPCount() uint64 {
	if st.sketched() {
		return st.ProxHLL.Estimate()
	}
	return uint64(len(st.ProxIPs))
}

// subnetsMetric accumulates per-subnet request and distinct-IP counts over
// the Israeli address ranges (Table 12).
type subnetsMetric struct {
	cx       *recordCtx
	opt      *Options
	sketched bool
	subnets  map[string]*subnetStat
	declared
}

func newSubnetsMetric(e *Engine) *subnetsMetric {
	m := &subnetsMetric{cx: &e.cx, opt: &e.opt, sketched: e.Sketched()}
	m.declare(e, "subnets", subnetTableField{m})
	return m
}

func (m *subnetsMetric) stat(subnet string) *subnetStat {
	st := m.subnets[subnet]
	if st == nil {
		if m.sketched {
			st = newSubnetStatSketch(m.opt.Sketches.Precision)
		} else {
			st = newSubnetStat()
		}
		m.subnets[subnet] = st
	}
	return st
}

func (m *subnetsMetric) Observe(rec *logfmt.Record) {
	ip, isIP := m.cx.IPv4()
	if !isIP {
		return
	}
	r, ok := m.opt.GeoDB.Lookup(ip)
	if !ok || r.Country != "IL" {
		return
	}
	st := m.stat(r.Subnet)
	switch {
	case m.cx.proxied:
		st.Proxied++
		m.addIP(st.ProxIPs, st.ProxHLL, ip)
	case m.cx.censored:
		st.Censored++
		m.addIP(st.CensoredIPs, st.CensHLL, ip)
	case m.cx.allowed:
		st.Allowed++
		m.addIP(st.AllowedIPs, st.AllowHLL, ip)
	}
}

func (m *subnetsMetric) addIP(set map[uint32]struct{}, hll *stats.HyperLogLog, ip uint32) {
	if m.sketched {
		hll.AddHash(uint64(ip))
		return
	}
	set[ip] = struct{}{}
}

// subnetTableField is the per-subnet table in the engine's counting
// mode: three counts plus three distinct-IP sets, or HyperLogLogs, per
// subnet.
type subnetTableField struct{ m *subnetsMetric }

func (f subnetTableField) init(*Engine) { f.m.subnets = map[string]*subnetStat{} }

// sketchSizes: no frequency sketches here, three distinct-IP
// HyperLogLogs (censored / allowed / proxied) per subnet.
func (f subnetTableField) sketchSizes() SketchSizes {
	return SketchSizes{HLLs: 3 * len(f.m.subnets)}
}

func (f subnetTableField) merge(src field) {
	m := f.m
	for k, v := range src.(subnetTableField).m.subnets {
		st := m.stat(k)
		st.Censored += v.Censored
		st.Allowed += v.Allowed
		st.Proxied += v.Proxied
		if m.sketched {
			st.CensHLL.Merge(v.CensHLL)
			st.AllowHLL.Merge(v.AllowHLL)
			st.ProxHLL.Merge(v.ProxHLL)
			continue
		}
		mergeSet(st.CensoredIPs, v.CensoredIPs)
		mergeSet(st.AllowedIPs, v.AllowedIPs)
		mergeSet(st.ProxIPs, v.ProxIPs)
	}
}

func (f subnetTableField) encode(w *statecodec.Writer) {
	m := f.m
	w.Uvarint(uint64(len(m.subnets)))
	for _, k := range sortedKeys(m.subnets) {
		st := m.subnets[k]
		w.StringRef(k)
		w.Uvarint(st.Censored)
		w.Uvarint(st.Allowed)
		w.Uvarint(st.Proxied)
		if m.sketched {
			encHLL(w, st.CensHLL)
			encHLL(w, st.AllowHLL)
			encHLL(w, st.ProxHLL)
		} else {
			encIPSet(w, st.CensoredIPs)
			encIPSet(w, st.AllowedIPs)
			encIPSet(w, st.ProxIPs)
		}
	}
}

func (f subnetTableField) decode(r *statecodec.Reader, layout byte, _ *Engine) {
	m := f.m
	n := r.Count()
	m.subnets = make(map[string]*subnetStat, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		st := m.stat(k)
		st.Censored = r.Uvarint()
		st.Allowed = r.Uvarint()
		st.Proxied = r.Uvarint()
		switch {
		case layout == layoutSketch:
			st.CensHLL = decHLL(r)
			st.AllowHLL = decHLL(r)
			st.ProxHLL = decHLL(r)
		case m.sketched:
			// Exact state into a sketched engine: replay the IP sets
			// into the fresh HLLs.
			for _, hll := range []*stats.HyperLogLog{st.CensHLL, st.AllowHLL, st.ProxHLL} {
				for ip := range decIPSet(r) {
					hll.AddHash(uint64(ip))
				}
			}
		default:
			st.CensoredIPs = decIPSet(r)
			st.AllowedIPs = decIPSet(r)
			st.ProxIPs = decIPSet(r)
		}
	}
}
