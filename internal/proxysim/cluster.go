// Package proxysim simulates the Blue Coat SG-9000 deployment described in
// the paper: seven transparent filtering proxies (SG-42…SG-48) at the STE
// backbone, each classifying every request as OBSERVED / PROXIED / DENIED
// and stamping an x-exception-id (§3.2–3.3).
//
// Cluster is the offline simulator: it takes synthetic client requests,
// routes them to a proxy (uniform load with the domain-affinity redirection
// inferred in §5.2: metacafe/skype traffic concentrates on SG-48), applies
// the policy engine, the network-error model of Table 3, the cache
// (PROXIED) behaviour, the per-proxy configuration differences (the
// "none" vs "unavailable" category labels of §5.2), and SG-44's
// intermittent Tor blocking (§7.1) — then renders logfmt Records.
//
// Emit is the entry point: it runs a synth.Generator through a cluster
// built from that same generator and hands out the log records.
package proxysim

import (
	"fmt"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/policy"
	"syriafilter/internal/stats"
	"syriafilter/internal/synth"
	"syriafilter/internal/torsim"
	"syriafilter/internal/urlx"
)

// ErrorModel gives the probability of each network-error exception,
// conditional on the request not being censored. Defaults reproduce
// Table 3's denied-traffic breakdown.
type ErrorModel struct {
	TCPError       float64
	InternalError  float64
	InvalidRequest float64
	UnsupProto     float64
	DNSUnresolved  float64
	DNSFailure     float64
	UnsupEncoding  float64
	InvalidResp    float64
}

// DefaultErrorModel matches Table 3 (shares of total traffic).
func DefaultErrorModel() ErrorModel {
	return ErrorModel{
		TCPError:       0.0286,
		InternalError:  0.0196,
		InvalidRequest: 0.0036,
		UnsupProto:     0.0010,
		DNSUnresolved:  0.0002,
		DNSFailure:     0.0001,
		UnsupEncoding:  0.0000004,
		InvalidResp:    0.00000001,
	}
}

// Config parameterizes a Cluster.
type Config struct {
	Seed   uint64
	Engine *policy.Engine
	// Consensus enables Tor recognition; without it no Tor-specific
	// blocking happens (the policy engine has no Tor rules).
	Consensus *torsim.Consensus
	Errors    ErrorModel
	// ProxiedRate is the cache-hit (PROXIED) share; default 0.0047.
	ProxiedRate float64
	// TorBlockDuty is the fraction of hours in which SG-44 aggressively
	// censors Tor OR-traffic; default 0.33 (Fig. 9's alternation).
	TorBlockDuty float64
}

// Cluster is the offline seven-proxy simulator. Not safe for concurrent
// use; shard the input stream and give each worker its own Cluster with a
// forked seed if parallel generation is needed.
type Cluster struct {
	cfg  Config
	r    *stats.Rand
	errs []struct {
		p  float64
		ex logfmt.ExceptionID
	}
	counts Counts
}

// Counts aggregates what the cluster has processed, for calibration tests.
type Counts struct {
	Total    uint64
	Allowed  uint64
	Censored uint64
	Errors   uint64
	Proxied  uint64
	Redirect uint64
}

// NewCluster builds a cluster simulator.
func NewCluster(cfg Config) *Cluster {
	if cfg.Engine == nil {
		cfg.Engine = policy.Compile(policy.PaperRuleset())
	}
	zero := ErrorModel{}
	if cfg.Errors == zero {
		cfg.Errors = DefaultErrorModel()
	}
	if cfg.ProxiedRate == 0 {
		cfg.ProxiedRate = 0.0047
	}
	if cfg.TorBlockDuty == 0 {
		cfg.TorBlockDuty = 0.33
	}
	c := &Cluster{cfg: cfg, r: stats.NewRand(cfg.Seed ^ 0x534721)}
	em := cfg.Errors
	c.errs = []struct {
		p  float64
		ex logfmt.ExceptionID
	}{
		{em.TCPError, logfmt.ExTCPError},
		{em.InternalError, logfmt.ExInternalError},
		{em.InvalidRequest, logfmt.ExInvalidRequest},
		{em.UnsupProto, logfmt.ExUnsupportedProtocol},
		{em.DNSUnresolved, logfmt.ExDNSUnresolvedHostname},
		{em.DNSFailure, logfmt.ExDNSServerFailure},
		{em.UnsupEncoding, logfmt.ExUnsupportedEncoding},
		{em.InvalidResp, logfmt.ExInvalidResponse},
	}
	return c
}

// Emit writes the corpus gen describes: it drains gen through a cluster
// built from gen itself — seed, policy engine and consensus are the
// generator's, so the two halves of the simulated world cannot disagree —
// and calls fn with each log record, in time order. The record is reused
// between calls; copy it to keep it. Emit returns the cluster's totals.
func Emit(gen *synth.Generator, fn func(*logfmt.Record)) Counts {
	c := NewCluster(Config{Seed: gen.Seed(), Engine: gen.Engine(), Consensus: gen.Consensus()})
	var rec logfmt.Record
	for {
		req, ok := gen.Next()
		if !ok {
			return c.counts
		}
		c.Process(&req, &rec)
		fn(&rec)
	}
}

// Process filters one client request and fills rec with the resulting log
// line. rec is fully overwritten.
func (c *Cluster) Process(req *synth.Request, rec *logfmt.Record) {
	*rec = logfmt.Record{}
	rec.Time = req.Time
	rec.Method = req.Method
	rec.Scheme = req.Scheme
	rec.Host = req.Host
	rec.Port = req.Port
	rec.Path = req.Path
	rec.Query = req.Query
	rec.Ext = urlx.PathExt(req.Path)
	rec.UserAgent = req.UserAgent

	sg := c.routeProxy(req)
	rec.SetProxy(sg)
	rec.ClientIP = c.clientIP(req)
	rec.Categories = defaultCategoryLabel(sg)

	// Policy decision.
	preq := policy.Request{
		Host: req.Host, Port: req.Port, Path: req.Path, Query: req.Query,
		Scheme: req.Scheme, Method: req.Method,
	}
	verdict := c.cfg.Engine.Evaluate(&preq)

	// SG-44's intermittent Tor-onion blocking (§7.1), plus a trickle on
	// SG-48 (the paper attributes 0.01% of censored Tor to it).
	if verdict.Action == policy.Allow && c.cfg.Consensus != nil {
		switch c.cfg.Consensus.ClassifyRequest(req.Host, req.Port, req.Path) {
		case torsim.TorOnion:
			if sg == 44 && c.torBlockActive(req.Time) {
				verdict = policy.Verdict{Action: policy.Deny, Kind: policy.KindIPRange, Match: "tor-relay"}
			} else if sg == 48 && c.r.Bool(0.001) {
				verdict = policy.Verdict{Action: policy.Deny, Kind: policy.KindIPRange, Match: "tor-relay"}
			}
		case torsim.TorHTTP:
			// Torhttp is always allowed in the observation window.
		}
	}

	switch verdict.Action {
	case policy.Deny:
		rec.Exception = logfmt.ExPolicyDenied
		rec.Filter = logfmt.Denied
		rec.SAction = "TCP_DENIED"
		rec.Status = 403
		rec.ScBytes = 729
		rec.CsBytes = 300 + uint32(c.r.Intn(400))
		rec.TimeTaken = uint32(1 + c.r.Intn(20))
		c.counts.Censored++
	case policy.Redirect:
		rec.Exception = logfmt.ExPolicyRedirect
		rec.Filter = logfmt.Denied
		rec.SAction = "tcp_policy_redirect"
		rec.Status = 302
		rec.ScBytes = 350
		rec.CsBytes = 300 + uint32(c.r.Intn(400))
		rec.TimeTaken = uint32(1 + c.r.Intn(10))
		if verdict.Kind == policy.KindCategory && isPageRule(verdict.Match, req.Host) {
			rec.Categories = customCategoryLabel(sg)
		}
		c.counts.Censored++
		c.counts.Redirect++
	default:
		// Allowed by policy; the network may still fail it (Table 3's
		// error breakdown).
		if ex, failed := c.networkFate(); failed {
			rec.Exception = ex
			rec.Filter = logfmt.Denied
			rec.SAction = "TCP_ERR_MISS"
			rec.Status = errorStatus(ex)
			rec.ScBytes = 0
			rec.CsBytes = 300 + uint32(c.r.Intn(400))
			rec.TimeTaken = errorLatency(ex, c.r)
			c.counts.Errors++
		} else {
			rec.Exception = logfmt.ExNone
			rec.Filter = logfmt.Observed
			rec.SAction = "TCP_NC_MISS"
			rec.Status = 200
			rec.ScBytes = 500 + uint32(c.r.Intn(60000))
			rec.CsBytes = 300 + uint32(c.r.Intn(500))
			rec.TimeTaken = uint32(20 + c.r.Intn(1500))
			if req.Method == "CONNECT" {
				rec.SAction = "TCP_TUNNELED"
			}
			c.counts.Allowed++
		}
	}

	// Cache behaviour: a small share of requests is answered from cache
	// (PROXIED), with the same exception mix as the rest of the traffic.
	if c.r.Bool(c.cfg.ProxiedRate) {
		rec.Filter = logfmt.Proxied
		rec.SAction = "TCP_HIT"
		c.counts.Proxied++
	}
	c.counts.Total++
}

// routeProxy assigns the handling proxy: SG-42 only in July (the leak's
// coverage), domain-affinity for metacafe/skype (§5.2's redirection
// hypothesis), uniform hashing otherwise.
func (c *Cluster) routeProxy(req *synth.Request) int {
	if isJuly(req.Time) {
		return 42
	}
	domain := urlx.RegisteredDomain(req.Host)
	switch domain {
	case "metacafe.com":
		if c.r.Bool(0.95) {
			return 48
		}
		return 45
	case "skype.com":
		if c.r.Bool(0.85) {
			return 48
		}
		return 45
	}
	h := stats.Hash64(req.Host) ^ uint64(req.ClientIP)*0x9e3779b97f4a7c15 ^ uint64(req.Time/3600)
	return logfmt.FirstProxy + int(h%logfmt.NumProxies)
}

// torBlockActive implements the Fig. 9 alternation: hour-granular windows,
// deterministic in the seed, with ~TorBlockDuty duty cycle; quiet on the
// night of Aug 3 (hours are UTC).
func (c *Cluster) torBlockActive(t int64) bool {
	hour := t / 3600
	h := stats.Hash64(fmt.Sprintf("torwin-%d-%d", c.cfg.Seed, hour))
	duty := c.cfg.TorBlockDuty
	// Lull during the night of Aug 3 (22:00 Aug 3 – 06:00 Aug 4 UTC).
	const aug3 = 1312329600 // 2011-08-03 00:00:00 UTC
	if t >= aug3+22*3600 && t < aug3+30*3600 {
		duty *= 0.1
	}
	if float64(h%1000)/1000 < duty {
		return c.r.Bool(0.92) // aggressive window
	}
	return c.r.Bool(0.03) // mild background
}

// networkFate draws a network error per the model; ok=false means success.
func (c *Cluster) networkFate() (logfmt.ExceptionID, bool) {
	x := c.r.Float64()
	acc := 0.0
	for _, e := range c.errs {
		acc += e.p
		if x < acc {
			return e.ex, true
		}
	}
	return logfmt.ExNone, false
}

// clientIP renders c-ip: hashed during the Duser window (Telecomix
// preserved hashes for July 22–23), zeroed otherwise.
func (c *Cluster) clientIP(req *synth.Request) string {
	if isDuserWindow(req.Time) {
		return fmt.Sprintf("%08x", stats.Hash64(urlx.FormatIPv4(req.ClientIP))&0xffffffff)
	}
	return "0.0.0.0"
}

const (
	july22 = 1311292800 // 2011-07-22 00:00:00 UTC
	july24 = 1311465600 // 2011-07-24 00:00:00 UTC
	aug1   = 1312156800 // 2011-08-01 00:00:00 UTC
)

func isJuly(t int64) bool { return t < aug1 }

func isDuserWindow(t int64) bool { return t >= july22 && t < july24 }

// defaultCategoryLabel reproduces §5.2: SG-43 and SG-48 log "none", the
// other five log "unavailable".
func defaultCategoryLabel(sg int) string {
	if sg == 43 || sg == 48 {
		return "none"
	}
	return "unavailable"
}

// customCategoryLabel: the custom category combines with the default
// ("Blocked sites; unavailable" on five proxies, "Blocked sites" on the
// two whose default is "none").
func customCategoryLabel(sg int) string {
	if sg == 43 || sg == 48 {
		return "Blocked sites"
	}
	return "Blocked sites; unavailable"
}

// isPageRule distinguishes page-rule category hits (which carry the custom
// label) from plain redirect hosts (Table 7 hosts keep the default label:
// the paper finds upload.youtube.com redirects not categorized as
// "Blocked sites" — only the Facebook pages are).
func isPageRule(match, host string) bool {
	return len(match) > len(host) && match[:len(host)] == host && match[len(host)] == '/'
}

// errorStatus maps error exceptions to plausible HTTP statuses.
func errorStatus(ex logfmt.ExceptionID) uint16 {
	switch ex {
	case logfmt.ExTCPError:
		return 503
	case logfmt.ExInternalError:
		return 500
	case logfmt.ExInvalidRequest:
		return 400
	case logfmt.ExUnsupportedProtocol:
		return 501
	case logfmt.ExDNSUnresolvedHostname, logfmt.ExDNSServerFailure:
		return 503
	case logfmt.ExUnsupportedEncoding:
		return 415
	case logfmt.ExInvalidResponse:
		return 502
	}
	return 0
}

func errorLatency(ex logfmt.ExceptionID, r *stats.Rand) uint32 {
	switch ex {
	case logfmt.ExTCPError:
		return 3000 + uint32(r.Intn(27000)) // connect timeouts
	case logfmt.ExDNSUnresolvedHostname, logfmt.ExDNSServerFailure:
		return 1000 + uint32(r.Intn(4000))
	default:
		return uint32(1 + r.Intn(100))
	}
}
