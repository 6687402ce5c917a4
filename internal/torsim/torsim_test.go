package torsim

import (
	"testing"

	"syriafilter/internal/urlx"
)

func TestConsensusDeterministic(t *testing.T) {
	a := NewConsensus(1, 100)
	b := NewConsensus(1, 100)
	for i := 0; i < 100; i++ {
		if a.Relay(i) != b.Relay(i) {
			t.Fatalf("relay %d differs between same-seed consensuses", i)
		}
	}
	c := NewConsensus(2, 100)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Relay(i) == c.Relay(i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical consensus")
	}
}

func TestConsensusSize(t *testing.T) {
	c := NewConsensus(7, DefaultRelayCount)
	if c.Len() != DefaultRelayCount {
		t.Fatalf("Len = %d, want %d", c.Len(), DefaultRelayCount)
	}
	// All relay IPs must be unique.
	seen := map[uint32]struct{}{}
	for i := range c.Len() {
		r := c.Relay(i)
		if _, dup := seen[r.IP]; dup {
			t.Fatalf("duplicate relay IP %s", r.Host())
		}
		seen[r.IP] = struct{}{}
	}
}

func TestPortDistribution(t *testing.T) {
	c := NewConsensus(7, DefaultRelayCount)
	or9001 := 0
	for i := range c.Len() {
		r := c.Relay(i)
		if r.ORPort == 9001 {
			or9001++
		}
	}
	// 9001 must dominate (paper: port 9001 ranks third among censored
	// ports because of Tor blocking).
	if frac := float64(or9001) / float64(c.Len()); frac < 0.5 {
		t.Errorf("9001 OR-port share = %v, want majority", frac)
	}
}

func TestLookup(t *testing.T) {
	c := NewConsensus(3, 50)
	r := c.Relay(0)
	got, ok := c.Lookup(r.IP, r.ORPort)
	if !ok || got != r {
		t.Fatalf("Lookup OR port failed: %+v ok=%v", got, ok)
	}
	if r.DirPort != 0 {
		got, ok = c.Lookup(r.IP, r.DirPort)
		if !ok || got != r {
			t.Fatalf("Lookup dir port failed")
		}
	}
	if _, ok := c.Lookup(r.IP, 1); ok {
		t.Error("bogus port matched")
	}
	if _, ok := c.LookupHost("not-an-ip", 9001); ok {
		t.Error("hostname matched")
	}
}

func TestIsDirPath(t *testing.T) {
	yes := []string{
		"/tor/server/authority.z",
		"/tor/keys/all.z",
		"/tor/status-vote/current/consensus.z",
		"/tor/micro/d/abc",
	}
	no := []string{
		"/",
		"/tor",
		"/torrent/file",
		"/tor/unknown/x",
		"tor/server/authority.z",
	}
	for _, p := range yes {
		if !IsDirPath(p) {
			t.Errorf("IsDirPath(%q) = false", p)
		}
	}
	for _, p := range no {
		if IsDirPath(p) {
			t.Errorf("IsDirPath(%q) = true", p)
		}
	}
}

func TestClassifyRequest(t *testing.T) {
	c := NewConsensus(5, 200)
	var withDir, orOnly Relay
	for i := range c.Len() {
		r := c.Relay(i)
		if r.DirPort != 0 && withDir.IP == 0 && r.DirPort != r.ORPort {
			withDir = r
		}
		if r.DirPort == 0 && orOnly.IP == 0 {
			orOnly = r
		}
	}
	if withDir.IP == 0 || orOnly.IP == 0 {
		t.Fatal("consensus lacks needed relay shapes")
	}

	if got := c.ClassifyRequest(withDir.Host(), withDir.DirPort, "/tor/server/all.z"); got != TorHTTP {
		t.Errorf("dir fetch = %v", got)
	}
	if got := c.ClassifyRequest(withDir.Host(), withDir.ORPort, ""); got != TorOnion {
		t.Errorf("OR connect = %v", got)
	}
	if got := c.ClassifyRequest(orOnly.Host(), orOnly.ORPort, "/tor/keys"); got != TorHTTP {
		t.Errorf("dir path over OR port = %v (dir-protocol path should win)", got)
	}
	if got := c.ClassifyRequest("10.9.8.7", 9001, "/tor/keys"); got != NotTor {
		t.Errorf("non-relay = %v", got)
	}
	if got := c.ClassifyRequest("example.com", 80, "/"); got != NotTor {
		t.Errorf("plain web = %v", got)
	}
}

func TestDirPathCycles(t *testing.T) {
	seen := map[string]struct{}{}
	for k := 0; k < 10; k++ {
		p := DirPath(k)
		if !IsDirPath(p) {
			t.Errorf("DirPath(%d) = %q not recognized by IsDirPath", k, p)
		}
		seen[p] = struct{}{}
	}
	if len(seen) < 5 {
		t.Errorf("DirPath variety = %d", len(seen))
	}
}

func TestRelayHostRoundTrip(t *testing.T) {
	c := NewConsensus(11, 20)
	for i := range c.Len() {
		r := c.Relay(i)
		ip, ok := urlx.ParseIPv4(r.Host())
		if !ok || ip != r.IP {
			t.Fatalf("Host round trip failed for %+v", r)
		}
	}
}
