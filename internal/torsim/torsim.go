// Package torsim models the Tor network directory data the paper joins
// against its logs in §7.1: relay descriptors (IP, OR port, directory
// port) extracted from consensus/network-status files, the HTTP directory
// protocol paths that identify Tor signaling traffic (Torhttp), and the
// relay endpoints whose TCP connections constitute circuit traffic
// (Toronion).
//
// Since the real July/August 2011 consensus archives are not shipped with
// this repository, NewConsensus procedurally generates a deterministic
// relay population with the structural properties the analysis needs:
// 1,111 relays (the paper identifies exactly that many contacted relays),
// OR ports concentrated on 9001/443 (Fig. 1 shows port 9001 as the third
// most censored port) and directory ports on 9030/80.
package torsim

import (
	"strings"

	"syriafilter/internal/stats"
	"syriafilter/internal/urlx"
)

// Relay is one Tor relay descriptor.
type Relay struct {
	Nickname string
	IP       uint32
	ORPort   uint16
	DirPort  uint16 // 0 if the relay serves no directory
}

// Host returns the relay IP as a dotted quad.
func (r Relay) Host() string { return urlx.FormatIPv4(r.IP) }

// DefaultRelayCount matches the number of distinct relays the paper
// observes being contacted from Syria.
const DefaultRelayCount = 1111

// Consensus is a snapshot of the relay population, valid for the whole
// observation window (relay churn over 9 days is negligible for the
// analyses reproduced here).
type Consensus struct {
	relays []Relay
	byAddr map[uint64]int // ip<<16|port -> relay index (both OR and Dir ports)
}

// NewConsensus generates n relays deterministically from seed.
func NewConsensus(seed uint64, n int) *Consensus {
	r := stats.NewRand(seed ^ 0x70725f72656c6179)
	c := &Consensus{
		relays: make([]Relay, 0, n),
		byAddr: make(map[uint64]int, 2*n),
	}
	used := make(map[uint32]struct{}, n)
	for len(c.relays) < n {
		// Relay IPs live in European/US hosting space; avoid the geoip
		// seed's special subnets (Israel etc.) so analyses don't conflate
		// Tor endpoints with IP-censored destinations.
		ip := 0x55000000 + r.Uint32()%0x20000000 // 85.0.0.0 .. 116.255.255.255
		if _, dup := used[ip]; dup {
			continue
		}
		used[ip] = struct{}{}

		var or uint16
		switch {
		case r.Bool(0.62):
			or = 9001
		case r.Bool(0.5):
			or = 443
		default:
			or = uint16(9000 + r.Intn(200))
		}
		var dir uint16
		if r.Bool(0.55) {
			if r.Bool(0.7) {
				dir = 9030
			} else {
				dir = 80
			}
		}
		relay := Relay{
			Nickname: nickname(r),
			IP:       ip,
			ORPort:   or,
			DirPort:  dir,
		}
		idx := len(c.relays)
		c.relays = append(c.relays, relay)
		c.byAddr[addrKey(ip, or)] = idx
		if dir != 0 {
			c.byAddr[addrKey(ip, dir)] = idx
		}
	}
	return c
}

func addrKey(ip uint32, port uint16) uint64 {
	return uint64(ip)<<16 | uint64(port)
}

func nickname(r *stats.Rand) string {
	const syll = "tornodexitguardrelaymidfastbeta"
	var b strings.Builder
	for i := 0; i < 3; i++ {
		j := r.Intn(len(syll) - 3)
		b.WriteString(syll[j : j+3])
	}
	return b.String()
}

// Len returns the relay count.
func (c *Consensus) Len() int { return len(c.relays) }

// Relay returns relay i.
func (c *Consensus) Relay(i int) Relay { return c.relays[i] }

// Lookup finds the relay listening on (ip, port), matching either the OR
// or the directory port — the paper's ⟨node IP, port, date⟩ triplet join.
func (c *Consensus) Lookup(ip uint32, port uint16) (Relay, bool) {
	i, ok := c.byAddr[addrKey(ip, port)]
	if !ok {
		return Relay{}, false
	}
	return c.relays[i], true
}

// LookupHost is Lookup over a dotted-quad host string.
func (c *Consensus) LookupHost(host string, port uint16) (Relay, bool) {
	ip, ok := urlx.ParseIPv4(host)
	if !ok {
		return Relay{}, false
	}
	return c.Lookup(ip, port)
}

// Traffic classes of §7.1.
type TrafficClass uint8

const (
	// NotTor means the request does not touch a known relay.
	NotTor TrafficClass = iota
	// TorHTTP is directory-protocol signaling (fetching descriptors,
	// consensus documents, keys) over a relay's directory port.
	TorHTTP
	// TorOnion is OR-port traffic: circuit building and relayed data.
	TorOnion
)

// String names the traffic class.
func (t TrafficClass) String() string {
	switch t {
	case TorHTTP:
		return "Tor-http"
	case TorOnion:
		return "Tor-onion"
	}
	return "not-tor"
}

// dirPrefixes are the Tor directory protocol path prefixes (dir-spec v2),
// the signatures the paper greps for to isolate Torhttp.
var dirPrefixes = []string{
	"/tor/server/",
	"/tor/extra/",
	"/tor/keys",
	"/tor/status/",
	"/tor/status-vote/",
	"/tor/micro/",
	"/tor/rendezvous",
}

// IsDirPath reports whether an HTTP request path speaks the Tor directory
// protocol.
func IsDirPath(path string) bool {
	if !strings.HasPrefix(path, "/tor/") {
		return false
	}
	for _, p := range dirPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// ClassifyRequest classifies a proxied request against the consensus: a
// directory-path GET to a relay (or any request hitting a relay's DirPort)
// is TorHTTP; any other request to a relay endpoint is TorOnion.
func (c *Consensus) ClassifyRequest(host string, port uint16, path string) TrafficClass {
	relay, ok := c.LookupHost(host, port)
	if !ok {
		return NotTor
	}
	if IsDirPath(path) || (relay.DirPort != 0 && port == relay.DirPort && port != relay.ORPort) {
		return TorHTTP
	}
	return TorOnion
}

// DirPath returns a canonical directory-protocol path for fetch kind k,
// used by the traffic generator. Kinds cycle through the dir-spec
// endpoints the paper names (/tor/server/authority.z, /tor/keys, ...).
func DirPath(k int) string {
	switch k % 5 {
	case 0:
		return "/tor/server/authority.z"
	case 1:
		return "/tor/keys/all.z"
	case 2:
		return "/tor/status-vote/current/consensus.z"
	case 3:
		return "/tor/server/all.z"
	default:
		return "/tor/status/all.z"
	}
}
