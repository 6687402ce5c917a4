// Package bittorrent models the BitTorrent tracker-announce traffic the
// paper analyzes in §7.3: HTTP GET /announce requests carrying a 20-byte
// info_hash (content identifier) and peer_id (client instance identifier),
// plus the torrent-title resolution step the authors performed by crawling
// torrentz.eu / torrentproject.com (77.4% success rate), which we replace
// with a deterministic TitleDB.
package bittorrent

import (
	"errors"
	"strings"

	"syriafilter/internal/stats"
)

// Announce is a parsed tracker announce request.
type Announce struct {
	InfoHash   [20]byte
	PeerID     [20]byte
	Port       uint16
	Uploaded   uint64
	Downloaded uint64
	Left       uint64
	Event      string // "started", "stopped", "completed" or ""
}

// Query renders the announce as a cs-uri-query string, percent-encoding
// the binary hash the way real clients do.
func (a *Announce) Query() string {
	var b strings.Builder
	b.Grow(160)
	b.WriteString("info_hash=")
	writePercent(&b, a.InfoHash[:])
	b.WriteString("&peer_id=")
	writePercent(&b, a.PeerID[:])
	b.WriteString("&port=")
	writeUint(&b, uint64(a.Port))
	b.WriteString("&uploaded=")
	writeUint(&b, a.Uploaded)
	b.WriteString("&downloaded=")
	writeUint(&b, a.Downloaded)
	b.WriteString("&left=")
	writeUint(&b, a.Left)
	if a.Event != "" {
		b.WriteString("&event=")
		b.WriteString(a.Event)
	}
	return b.String()
}

func writePercent(b *strings.Builder, data []byte) {
	const hexdigits = "0123456789abcdef"
	for _, c := range data {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~' {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(hexdigits[c>>4])
		b.WriteByte(hexdigits[c&0xf])
	}
}

func writeUint(b *strings.Builder, v uint64) {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(tmp[i:])
}

// Parse errors.
var (
	ErrNotAnnounce = errors.New("bittorrent: not an announce request")
	ErrBadHash     = errors.New("bittorrent: malformed info_hash/peer_id")
)

// IsAnnouncePath reports whether an HTTP path is a tracker announce
// endpoint ("/announce", "/announce.php", "/tracker/announce", ...).
func IsAnnouncePath(path string) bool {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return false
	}
	last := path[i+1:]
	return last == "announce" || strings.HasPrefix(last, "announce.")
}

// ParseAnnounce decodes an announce from a request path and query.
func ParseAnnounce(path, query string) (*Announce, error) {
	if !IsAnnouncePath(path) {
		return nil, ErrNotAnnounce
	}
	a := &Announce{}
	var haveHash, havePeer bool
	for len(query) > 0 {
		var kv string
		if i := strings.IndexByte(query, '&'); i >= 0 {
			kv, query = query[:i], query[i+1:]
		} else {
			kv, query = query, ""
		}
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "info_hash":
			if !decode20(val, &a.InfoHash) {
				return nil, ErrBadHash
			}
			haveHash = true
		case "peer_id":
			if !decode20(val, &a.PeerID) {
				return nil, ErrBadHash
			}
			havePeer = true
		case "port":
			a.Port = uint16(parseUint(val))
		case "uploaded":
			a.Uploaded = parseUint(val)
		case "downloaded":
			a.Downloaded = parseUint(val)
		case "left":
			a.Left = parseUint(val)
		case "event":
			a.Event = val
		}
	}
	if !haveHash || !havePeer {
		return nil, ErrBadHash
	}
	return a, nil
}

// decode20 percent-decodes val into a 20-byte array.
func decode20(val string, out *[20]byte) bool {
	n := 0
	for i := 0; i < len(val); {
		if n >= 20 {
			return false
		}
		c := val[i]
		if c == '%' {
			if i+2 >= len(val) {
				return false
			}
			hi, ok1 := unhex(val[i+1])
			lo, ok2 := unhex(val[i+2])
			if !ok1 || !ok2 {
				return false
			}
			out[n] = hi<<4 | lo
			n++
			i += 3
			continue
		}
		out[n] = c
		n++
		i++
	}
	return n == 20
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func parseUint(s string) uint64 {
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}

// NewPeerID builds a conventional Azureus-style peer id: "-UT3110-" style
// client prefix plus random suffix drawn from r.
func NewPeerID(r *stats.Rand) [20]byte {
	prefixes := []string{"-UT3110-", "-AZ4500-", "-TR2210-", "-BC0181-", "-DE1360-"}
	var id [20]byte
	p := prefixes[r.Intn(len(prefixes))]
	copy(id[:], p)
	const alnum = "0123456789abcdefghijklmnopqrstuvwxyz"
	for i := len(p); i < 20; i++ {
		id[i] = alnum[r.Intn(len(alnum))]
	}
	return id
}

// TitleDB resolves info hashes to torrent titles, replacing the paper's
// crawl of torrentz.eu and torrentproject.com. Resolution success and
// title content are deterministic functions of the hash, tuned to the
// paper's observations: 77.4% of hashes resolve; resolved titles include
// anti-censorship tools (UltraSurf, HideMyAss, Auto Hide IP, anonymous
// browsers) and IM installers (Skype, MSN, Yahoo Messenger) alongside
// ordinary media titles.
type TitleDB struct {
	// ResolveRate is the probability a hash resolves (default 0.774).
	ResolveRate float64
}

// NewTitleDB returns a resolver with the paper's success rate.
func NewTitleDB() *TitleDB { return &TitleDB{ResolveRate: 0.774} }

// specialTitles mirror §7.3's identified content groups. Weights are
// relative; the remainder of resolutions are generic media titles.
var specialTitles = []struct {
	Title  string
	Weight int
}{
	{"UltraSurf 10.17 censorship bypass", 27},
	{"Auto Hide IP 5.1.8.2 + crack", 6},
	{"HideMyAss VPN setup", 2},
	{"anonymous browser portable", 4},
	{"Skype 5.3 offline installer", 8},
	{"MSN Messenger 2011 setup", 5},
	{"Yahoo Messenger 11 installer", 3},
}

// Resolve returns the title for an info hash and whether resolution
// succeeded. The decision hashes the info hash, so the same content
// resolves identically everywhere.
func (db *TitleDB) Resolve(infoHash [20]byte) (string, bool) {
	h := stats.Hash64(string(infoHash[:]))
	rate := db.ResolveRate
	if rate == 0 {
		rate = 0.774
	}
	// Use the low 32 bits for the success decision.
	if float64(uint32(h))/float64(1<<32) >= rate {
		return "", false
	}
	// ~5% of resolved titles are "special" (tools/IM); weight-select.
	sel := (h >> 32) % 1000
	if sel < 50 {
		total := 0
		for _, s := range specialTitles {
			total += s.Weight
		}
		pick := int((h >> 40) % uint64(total))
		for _, s := range specialTitles {
			pick -= s.Weight
			if pick < 0 {
				return s.Title, true
			}
		}
	}
	return genericTitle(h), true
}

var genericWords = []string{
	"season", "episode", "HDrip", "x264", "album", "live", "arabic",
	"movie", "documentary", "football", "match", "series", "audiobook",
	"collection", "remastered", "comedy",
}

func genericTitle(h uint64) string {
	var b strings.Builder
	for i := 0; i < 3; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(genericWords[(h>>(8*i))%uint64(len(genericWords))])
	}
	return b.String()
}

// ContainsAnyKeyword reports whether a resolved title, lowercased,
// contains any of the given blacklisted keywords, as LowerKeywords
// returns them: the match is case-insensitive, and a caller matching many
// titles lowercases each title and the list once. §7.3 checks the
// censored keyword list against resolved titles and finds matches among
// *allowed* announces — the point being that BitTorrent slips past URL
// filtering.
func ContainsAnyKeyword(lowerTitle string, keywords []string) bool {
	for _, k := range keywords {
		if strings.Contains(lowerTitle, k) {
			return true
		}
	}
	return false
}

// LowerKeywords returns keywords lowercased, without the empty ones.
func LowerKeywords(keywords []string) []string {
	out := make([]string, 0, len(keywords))
	for _, k := range keywords {
		if k != "" {
			out = append(out, strings.ToLower(k))
		}
	}
	return out
}
