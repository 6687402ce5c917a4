// Package synth generates the synthetic request workload that substitutes
// for the paper's leaked 600 GB corpus. The generator is calibrated,
// distribution by distribution, to the published statistics:
//
//   - the observation window (July 22, 23, 31 with SG-42 only; August 1–6
//     with all seven proxies) and the request-volume split between them;
//   - the diurnal curve of Fig. 5 with the Friday-protest lull (Aug 4–5)
//     and the Aug 3 morning Instant-Messaging censorship peak of Fig. 6;
//   - the domain popularity of Table 4 (head domains with the paper's
//     shares, Zipf tail) and the page-visit fan-out that inflates allowed
//     traffic relative to censored traffic (§4, Fig. 2);
//   - the user population with heavy-tailed activity and the sparse
//     censorship-prone behaviours that reproduce Fig. 4;
//   - the niche traffic populations analysed in §7: Tor directory/OR
//     traffic, BitTorrent announces, anonymizer services, Google cache.
//
// The generator emits *client requests only*. Filtering verdicts, network
// fates, cache hits, proxy assignment and log rendering belong to
// internal/proxysim, so censorship is decided by the policy engine rather
// than baked into the data.
package synth

import (
	"errors"
	"time"

	"syriafilter/internal/torsim"
)

// Day identifies one observed day.
type Day struct {
	Date   time.Time // midnight UTC
	Weight float64   // share of corpus volume relative to a full Aug day
	// SG42Only marks the July days where only proxy SG-42 logged.
	SG42Only bool
	// HashedIPs marks the Duser period where Telecomix preserved hashed
	// client IPs (July 22–23).
	HashedIPs bool
}

// Timeline returns the paper's nine observed days. July days carry ~3% of
// a full day's volume (one proxy, partial coverage), matching the ratio of
// Duser (6.4M requests over two days) to Dfull.
func Timeline() []Day {
	d := func(m time.Month, day int) time.Time {
		return time.Date(2011, m, day, 0, 0, 0, 0, time.UTC)
	}
	return []Day{
		{Date: d(time.July, 22), Weight: 0.030, SG42Only: true, HashedIPs: true},
		{Date: d(time.July, 23), Weight: 0.030, SG42Only: true, HashedIPs: true},
		{Date: d(time.July, 31), Weight: 0.025, SG42Only: true},
		{Date: d(time.August, 1), Weight: 1.0},
		{Date: d(time.August, 2), Weight: 1.0},
		{Date: d(time.August, 3), Weight: 1.05}, // protest day: busy + censorship peaks
		{Date: d(time.August, 4), Weight: 0.85}, // slowdown from Thursday afternoon
		{Date: d(time.August, 5), Weight: 0.55}, // Friday protests: throttled
		{Date: d(time.August, 6), Weight: 0.95},
	}
}

// SlotSeconds is the time-series granularity used throughout (the paper
// plots 5-minute buckets).
const SlotSeconds = 300

// SlotsPerDay is the number of 5-minute slots per day.
const SlotsPerDay = 24 * 3600 / SlotSeconds

// Config parameterizes a corpus.
type Config struct {
	// Seed drives all randomness; equal seeds give identical corpora.
	Seed uint64
	// TotalRequests is the approximate corpus size (the generator emits
	// whole page-visits, so the realized count differs by a few percent).
	TotalRequests int
	// Users is the synthetic user population size. Zero derives a
	// population giving the paper's ~43 requests/user ratio.
	Users int
	// TailDomains is the size of the long-tail domain catalog (Fig. 2's
	// power-law body). Zero means TotalRequests/200 (>= 2000).
	TailDomains int
	// AnonymizerHosts is the number of anonymizer services in the world
	// (§7.2 finds 821 in Dsample). Zero means 821.
	AnonymizerHosts int
	// TorRelays is the consensus size. Zero means torsim.DefaultRelayCount.
	TorRelays int
	// BlockedNewsDomains is how many generated news/opposition domains are
	// URL-blacklisted on top of the paper-named ones; with forums and NA
	// hosts this builds the ~105 suspected domains of §5.4. Zero means 50.
	BlockedNewsDomains int
}

// Validate applies defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.TotalRequests <= 0 {
		return errors.New("synth: TotalRequests must be positive")
	}
	if c.TotalRequests < 10_000 {
		return errors.New("synth: corpora below 10k requests are too small to be calibrated")
	}
	if c.Users == 0 {
		c.Users = c.TotalRequests / 50
		if c.Users < 500 {
			c.Users = 500
		}
	}
	if c.TailDomains == 0 {
		c.TailDomains = c.TotalRequests / 200
		if c.TailDomains < 2000 {
			c.TailDomains = 2000
		}
	}
	if c.AnonymizerHosts == 0 {
		c.AnonymizerHosts = 821
	}
	if c.TorRelays == 0 {
		c.TorRelays = torsim.DefaultRelayCount
	}
	if c.BlockedNewsDomains == 0 {
		c.BlockedNewsDomains = 50
	}
	return nil
}

// Request is one client request before it reaches the filtering proxies.
type Request struct {
	Time      int64  // unix seconds
	ClientIP  uint32 // synthetic client address (pre-anonymization)
	UserAgent string
	Method    string // GET/POST/CONNECT
	Scheme    string // http/https/tcp
	Host      string
	Port      uint16
	Path      string
	Query     string
}

// diurnal returns the relative traffic intensity for a 5-minute slot
// index, shaping Fig. 5: climb through the morning, peak before noon,
// smooth lull in the afternoon, smaller evening bump, quiet night.
func diurnal(slot int) float64 {
	h := float64(slot) / float64(SlotsPerDay) * 24
	switch {
	case h < 5:
		return 0.25
	case h < 9:
		return 0.25 + (h-5)/4*0.95 // morning climb
	case h < 12:
		return 1.2 // late-morning peak
	case h < 17:
		return 0.85 // afternoon lull
	case h < 22:
		return 1.0 // evening
	default:
		return 0.5
	}
}

// imSurge returns the activity multiplier for Instant-Messaging behaviours
// (Skype / MSN messenger) at a given day index and slot, reproducing the
// Aug 3 RCV peaks of Fig. 6: sharp rise 8:00–9:30, smaller bumps around
// 5:00 and 22:00.
func imSurge(day Day, slot int) float64 {
	if day.Date.Month() != time.August || day.Date.Day() != 3 {
		return 1
	}
	h := float64(slot) / float64(SlotsPerDay) * 24
	switch {
	case h >= 8 && h < 9.5:
		return 7
	case h >= 4.75 && h < 5.5:
		return 3.5
	case h >= 22 && h < 23:
		return 3
	default:
		return 1
	}
}
