package bittorrent

import (
	"strings"
	"testing"
	"testing/quick"

	"syriafilter/internal/stats"
)

func sampleAnnounce(seed uint64) *Announce {
	r := stats.NewRand(seed)
	a := &Announce{
		Port:       51413,
		Uploaded:   1024,
		Downloaded: 4096,
		Left:       700 * 1024 * 1024,
		Event:      "started",
	}
	for i := range a.InfoHash {
		a.InfoHash[i] = byte(r.Uint64())
	}
	a.PeerID = NewPeerID(r)
	return a
}

func TestQueryParseRoundTrip(t *testing.T) {
	a := sampleAnnounce(1)
	got, err := ParseAnnounce("/announce", a.Query())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, a)
	}
}

func TestQueryParseRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(hash [20]byte, port uint16, up, down, left uint64, evIdx uint8) bool {
		a := &Announce{
			InfoHash:   hash,
			PeerID:     NewPeerID(stats.NewRand(uint64(port))),
			Port:       port,
			Uploaded:   up,
			Downloaded: down,
			Left:       left,
			Event:      []string{"", "started", "stopped", "completed"}[evIdx%4],
		}
		got, err := ParseAnnounce("/announce.php", a.Query())
		return err == nil && *got == *a
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIsAnnouncePath(t *testing.T) {
	yes := []string{"/announce", "/announce.php", "/tracker/announce", "/a/b/announce.cgi"}
	no := []string{"/", "/scrape", "/announcement", "announce", "/x/announcer"}
	for _, p := range yes {
		if !IsAnnouncePath(p) {
			t.Errorf("IsAnnouncePath(%q) = false", p)
		}
	}
	for _, p := range no {
		if IsAnnouncePath(p) {
			t.Errorf("IsAnnouncePath(%q) = true", p)
		}
	}
}

func TestParseAnnounceErrors(t *testing.T) {
	a := sampleAnnounce(2)
	if _, err := ParseAnnounce("/scrape", a.Query()); err != ErrNotAnnounce {
		t.Errorf("non-announce path: %v", err)
	}
	if _, err := ParseAnnounce("/announce", "port=1"); err != ErrBadHash {
		t.Errorf("missing hash: %v", err)
	}
	if _, err := ParseAnnounce("/announce", "info_hash=abc&peer_id=def"); err != ErrBadHash {
		t.Errorf("short hash: %v", err)
	}
	if _, err := ParseAnnounce("/announce", "info_hash="+strings.Repeat("%zz", 20)); err != ErrBadHash {
		t.Errorf("bad percent: %v", err)
	}
	long := strings.Repeat("a", 21)
	if _, err := ParseAnnounce("/announce", "info_hash="+long+"&peer_id="+long); err != ErrBadHash {
		t.Errorf("long hash: %v", err)
	}
}

func TestParseAnnounceTruncatedPercent(t *testing.T) {
	if _, err := ParseAnnounce("/announce", "info_hash=aaaaaaaaaaaaaaaaaaa%4&peer_id=bbbbbbbbbbbbbbbbbbbb"); err == nil {
		t.Error("truncated percent escape accepted")
	}
}

func TestNewPeerIDShape(t *testing.T) {
	r := stats.NewRand(5)
	id := NewPeerID(r)
	s := string(id[:])
	if s[0] != '-' || s[7] != '-' {
		t.Errorf("peer id shape: %q", s)
	}
	for _, c := range s {
		if c < 0x20 || c > 0x7e {
			t.Errorf("non-printable peer id byte in %q", s)
		}
	}
}

func TestTitleDBRate(t *testing.T) {
	db := NewTitleDB()
	r := stats.NewRand(9)
	const n = 20000
	resolved := 0
	for i := 0; i < n; i++ {
		var h [20]byte
		for j := range h {
			h[j] = byte(r.Uint64())
		}
		if _, ok := db.Resolve(h); ok {
			resolved++
		}
	}
	rate := float64(resolved) / n
	if rate < 0.75 || rate > 0.80 {
		t.Errorf("resolve rate = %v, want ~0.774", rate)
	}
}

func TestTitleDBDeterministic(t *testing.T) {
	db := NewTitleDB()
	var h [20]byte
	copy(h[:], "stable-hash-value-xx")
	t1, ok1 := db.Resolve(h)
	t2, ok2 := db.Resolve(h)
	if t1 != t2 || ok1 != ok2 {
		t.Error("resolution not deterministic")
	}
}

func TestTitleDBSpecialTitlesAppear(t *testing.T) {
	db := NewTitleDB()
	r := stats.NewRand(11)
	found := map[string]bool{}
	for i := 0; i < 100000; i++ {
		var h [20]byte
		for j := range h {
			h[j] = byte(r.Uint64())
		}
		if title, ok := db.Resolve(h); ok {
			for _, want := range []string{"UltraSurf", "HideMyAss", "Auto Hide IP", "Skype"} {
				if strings.Contains(title, want) {
					found[want] = true
				}
			}
		}
	}
	for _, want := range []string{"UltraSurf", "HideMyAss", "Auto Hide IP", "Skype"} {
		if !found[want] {
			t.Errorf("special title %q never produced", want)
		}
	}
}

func TestContainsAnyKeyword(t *testing.T) {
	kws := LowerKeywords([]string{"proxy", "UltraSurf", "", "israel"})
	if !ContainsAnyKeyword(strings.ToLower("UltraSurf 10.17 censorship bypass"), kws) {
		t.Error("UltraSurf title not matched")
	}
	if ContainsAnyKeyword("holiday photos album", kws) {
		t.Error("benign title matched: an empty keyword was kept")
	}
	if ContainsAnyKeyword("anything", LowerKeywords(nil)) {
		t.Error("empty keyword list matched")
	}
}

func BenchmarkAnnounceQuery(b *testing.B) {
	a := sampleAnnounce(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Query()
	}
}

func BenchmarkParseAnnounce(b *testing.B) {
	a := sampleAnnounce(1)
	q := a.Query()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAnnounce("/announce", q); err != nil {
			b.Fatal(err)
		}
	}
}
