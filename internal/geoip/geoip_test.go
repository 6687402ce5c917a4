package geoip

import (
	"testing"
	"testing/quick"

	"syriafilter/internal/urlx"
)

// LookupLinear is the O(n) reference lookup that Lookup is property-tested
// and benchmarked against.
func (db *DB) LookupLinear(ip uint32) (Range, bool) {
	for _, r := range db.ranges {
		if ip >= r.Start && ip <= r.End {
			return r, true
		}
	}
	return Range{}, false
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	ip, ok := urlx.ParseIPv4(s)
	if !ok {
		t.Fatalf("bad test IP %q", s)
	}
	return ip
}

func TestParseCIDR(t *testing.T) {
	start, end, err := ParseCIDR("212.150.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if start != 0xd4960000 || end != 0xd496ffff {
		t.Errorf("range = %x..%x", start, end)
	}
	start, end, err = ParseCIDR("1.2.3.4/32")
	if err != nil {
		t.Fatal(err)
	}
	if start != end {
		t.Error("/32 should be a single address")
	}
	start, end, err = ParseCIDR("0.0.0.0/0")
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || end != 0xffffffff {
		t.Errorf("/0 = %x..%x", start, end)
	}
	for _, bad := range []string{"1.2.3.4", "300.1.1.1/8", "1.2.3.4/33", "1.2.3.4/x", "1.2.3.4/"} {
		if _, _, err := ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) accepted", bad)
		}
	}
}

func TestBuilderOverlapDetection(t *testing.T) {
	var b Builder
	if err := b.AddCIDR("10.0.0.0/8", "XX"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddCIDR("10.1.0.0/16", "YY"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("overlap not detected")
	}
}

func TestLookup(t *testing.T) {
	db := SyriaEra()
	cases := map[string]string{
		"84.229.10.20":  "IL",
		"46.121.0.1":    "IL", // inside 46.120.0.0/15
		"212.150.7.7":   "IL",
		"212.235.64.1":  "IL",
		"212.235.96.1":  "", // just past /19
		"168.187.5.5":   "KW",
		"8.8.8.8":       "US",
		"82.137.200.42": "SY", // the proxies themselves
		"1.1.1.1":       "",
	}
	for host, want := range cases {
		if got := db.Country(mustIP(t, host)); got != want {
			t.Errorf("Country(%s) = %q, want %q", host, got, want)
		}
	}
}

func TestLookupBoundaries(t *testing.T) {
	var b Builder
	if err := b.AddCIDR("10.0.0.0/24", "AA"); err != nil {
		t.Fatal(err)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Lookup(mustIP(t, "10.0.0.0")); !ok {
		t.Error("range start not matched")
	}
	if _, ok := db.Lookup(mustIP(t, "10.0.0.255")); !ok {
		t.Error("range end not matched")
	}
	if _, ok := db.Lookup(mustIP(t, "10.0.1.0")); ok {
		t.Error("past range end matched")
	}
	if _, ok := db.Lookup(mustIP(t, "9.255.255.255")); ok {
		t.Error("before range start matched")
	}
}

// Property: binary-search lookup agrees with linear scan everywhere.
func TestLookupMatchesLinear(t *testing.T) {
	db := SyriaEra()
	if err := quick.Check(func(ip uint32) bool {
		a, aok := db.Lookup(ip)
		b, bok := db.LookupLinear(ip)
		return aok == bok && a == b
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedCoversPaperTables(t *testing.T) {
	db := SyriaEra()
	// Every Table 12 subnet must resolve to IL.
	for _, cidr := range IsraeliSubnets {
		start, _, err := ParseCIDR(cidr)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := db.Lookup(start)
		if !ok || r.Country != "IL" {
			t.Errorf("subnet %s: country %q ok=%v", cidr, r.Country, ok)
		}
	}
	// Every Table 11 country must have at least one block.
	blocks := CountryBlocks()
	for _, c := range []string{"IL", "KW", "RU", "GB", "NL", "SG", "BG"} {
		if len(blocks[c]) == 0 {
			t.Errorf("no seed block for %s", c)
		}
	}
}

func BenchmarkLookupBinary(b *testing.B) {
	db := SyriaEra()
	ip := mustIP(&testing.T{}, "212.150.99.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Lookup(ip)
	}
}

func BenchmarkLookupLinear(b *testing.B) {
	db := SyriaEra()
	ip := mustIP(&testing.T{}, "212.150.99.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.LookupLinear(ip)
	}
}
