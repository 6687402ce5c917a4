package core

import (
	"syriafilter/internal/logfmt"
	"syriafilter/internal/statecodec"
)

// subnetStat is the per-subnet accumulator behind Table 12: request
// counts and distinct client IPs per class.
type subnetStat struct {
	Censored, Allowed, Proxied       uint64
	CensoredIPs, AllowedIPs, ProxIPs map[uint32]struct{}
}

// subnetsMetric accumulates per-subnet request and distinct-IP counts over
// the Israeli address ranges (Table 12).
type subnetsMetric struct {
	cx      *recordCtx
	opt     *Options
	subnets map[string]*subnetStat
	declared
}

func newSubnetsMetric(e *Engine) *subnetsMetric {
	m := &subnetsMetric{cx: &e.cx, opt: &e.opt}
	m.declare("subnets", subnetTableField{m})
	return m
}

func (m *subnetsMetric) stat(subnet string) *subnetStat {
	st := m.subnets[subnet]
	if st == nil {
		st = &subnetStat{
			CensoredIPs: map[uint32]struct{}{},
			AllowedIPs:  map[uint32]struct{}{},
			ProxIPs:     map[uint32]struct{}{},
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
		st.ProxIPs[ip] = struct{}{}
	case m.cx.censored:
		st.Censored++
		st.CensoredIPs[ip] = struct{}{}
	case m.cx.allowed:
		st.Allowed++
		st.AllowedIPs[ip] = struct{}{}
	}
}

// subnetTableField is the per-subnet table: three counts plus three
// distinct-IP sets per subnet.
type subnetTableField struct{ m *subnetsMetric }

func (f subnetTableField) init() { f.m.subnets = map[string]*subnetStat{} }

func (f subnetTableField) merge(src field) {
	m := f.m
	for k, v := range src.(subnetTableField).m.subnets {
		st := m.stat(k)
		st.Censored += v.Censored
		st.Allowed += v.Allowed
		st.Proxied += v.Proxied
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
		encIPSet(w, st.CensoredIPs)
		encIPSet(w, st.AllowedIPs)
		encIPSet(w, st.ProxIPs)
	}
}

func (f subnetTableField) decode(r *statecodec.Reader) {
	n := r.Count()
	subnets := make(map[string]*subnetStat, n)
	var prev string
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.StringRef()
		if !ascending(r, i, prev, k) {
			break
		}
		subnets[k], prev = &subnetStat{
			Censored: r.Uvarint(), Allowed: r.Uvarint(), Proxied: r.Uvarint(),
			CensoredIPs: decIPSet(r), AllowedIPs: decIPSet(r), ProxIPs: decIPSet(r),
		}, k
	}
	f.m.subnets = subnets
}
