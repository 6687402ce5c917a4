package proxysim

import (
	"testing"

	"syriafilter/internal/logfmt"
	"syriafilter/internal/policy"
	"syriafilter/internal/torsim"
)

// TorBlockDuty scales the fraction of hours SG-44 blocks aggressively.
func TestTorBlockDutyKnob(t *testing.T) {
	cons := torsim.NewConsensus(21, 400)
	countCensored := func(duty float64) int {
		c := NewCluster(Config{Seed: 21, Consensus: cons, TorBlockDuty: duty})
		var rec logfmt.Record
		censored := 0
		for i := 0; i < 30000; i++ {
			relay := cons.Relay(i % cons.Len())
			req := testReq(relay.Host(), "", "", augTime(1+(i%6), i%24))
			req.Method = "CONNECT"
			req.Scheme = "tcp"
			req.Port = relay.ORPort
			req.ClientIP = uint32(i) * 53
			c.Process(req, &rec)
			if rec.Class() == logfmt.ClassCensored {
				censored++
			}
		}
		return censored
	}
	low := countCensored(0.1)
	high := countCensored(0.8)
	if high <= low*2 {
		t.Errorf("duty knob ineffective: duty 0.1 -> %d, duty 0.8 -> %d", low, high)
	}
}

// Without a consensus the cluster never censors Tor endpoints.
func TestNoConsensusNoTorBlocking(t *testing.T) {
	cons := torsim.NewConsensus(22, 200)
	c := NewCluster(Config{Seed: 22}) // no consensus wired in
	var rec logfmt.Record
	for i := 0; i < 20000; i++ {
		relay := cons.Relay(i % cons.Len())
		req := testReq(relay.Host(), "", "", augTime(2, i%24))
		req.Method = "CONNECT"
		req.Scheme = "tcp"
		req.Port = relay.ORPort
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
		if rec.Class() == logfmt.ClassCensored {
			t.Fatalf("request %d censored without consensus: %+v", i, rec)
		}
	}
}

// A custom engine fully replaces the default policy.
func TestCustomEngineRespected(t *testing.T) {
	c := NewCluster(Config{Seed: 23, Engine: emptyEngine()})
	var rec logfmt.Record
	c.Process(testReq("www.metacafe.com", "/watch/1/", "", augTime(2, 10)), &rec)
	if rec.Class() == logfmt.ClassCensored {
		t.Error("empty policy censored metacafe")
	}
}

// Custom error model: zeroing the probabilities removes network errors.
func TestZeroErrorModel(t *testing.T) {
	em := ErrorModel{TCPError: -1} // non-zero struct so defaults don't kick in
	c := NewCluster(Config{Seed: 24, Errors: em})
	var rec logfmt.Record
	for i := 0; i < 20000; i++ {
		req := testReq("ok.example", "/", "", augTime(2, i%24))
		req.ClientIP = uint32(i)
		c.Process(req, &rec)
		if rec.Class() == logfmt.ClassError {
			t.Fatalf("error emitted under zeroed model: %v", rec.Exception)
		}
	}
}

// Redirect records carry the tcp_policy_redirect s-action and 302 status
// the paper reads from the s-action field (§5.3).
func TestRedirectRendering(t *testing.T) {
	c := NewCluster(Config{Seed: 25})
	var rec logfmt.Record
	c.Process(testReq("sharek.aljazeera.net", "/upload", "", augTime(2, 10)), &rec)
	if rec.Exception != logfmt.ExPolicyRedirect || rec.SAction != "tcp_policy_redirect" || rec.Status != 302 {
		t.Errorf("redirect record: %+v", rec)
	}
}

// Deterministic replays: identical seed and input stream give identical
// log records.
func TestClusterDeterminism(t *testing.T) {
	run := func() []logfmt.Record {
		c := NewCluster(Config{Seed: 26})
		out := make([]logfmt.Record, 0, 500)
		var rec logfmt.Record
		for i := 0; i < 500; i++ {
			host := "a.example"
			if i%17 == 0 {
				host = "skype.com"
			}
			req := testReq(host, "/", "", augTime(2, i%24))
			req.ClientIP = uint32(i)
			c.Process(req, &rec)
			out = append(out, rec)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between same-seed runs", i)
		}
	}
}

func emptyEngine() *policy.Engine { return policy.Compile(&policy.Ruleset{}) }
