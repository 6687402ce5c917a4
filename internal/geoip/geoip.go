// Package geoip is the IP-geolocation substrate standing in for the
// MaxMind GeoIP database the paper uses in §5.4 to geo-localize IP-literal
// request hosts (Table 11) and for the ip2location Israeli subnet list
// behind Table 12.
//
// The database is an immutable sorted list of non-overlapping [start, end]
// IPv4 ranges with a country code and the CIDR each came from; lookups are a
// binary search. A Builder assembles it from CIDR strings, validating as
// it goes.
package geoip

import (
	"fmt"
	"sort"
	"strings"

	"syriafilter/internal/urlx"
)

// Range is one geolocated IPv4 interval. Start and End are inclusive,
// big-endian uint32s.
type Range struct {
	Start   uint32
	End     uint32
	Country string // ISO-3166-alpha-2 ("IL", "SY", ...)
	Subnet  string // the CIDR this range came from
}

// DB is an immutable geolocation database.
type DB struct {
	ranges []Range
}

// Builder accumulates ranges for a DB.
type Builder struct {
	ranges []Range
}

// AddCIDR adds a CIDR block ("212.150.0.0/16") for a country.
func (b *Builder) AddCIDR(cidr, country string) error {
	start, end, err := ParseCIDR(cidr)
	if err != nil {
		return err
	}
	b.ranges = append(b.ranges, Range{Start: start, End: end, Country: country, Subnet: cidr})
	return nil
}

// Build sorts, checks for overlaps, and returns the immutable DB.
func (b *Builder) Build() (*DB, error) {
	rs := make([]Range, len(b.ranges))
	copy(rs, b.ranges)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	for i := 1; i < len(rs); i++ {
		if rs[i].Start <= rs[i-1].End {
			return nil, fmt.Errorf("geoip: overlapping ranges %s and %s",
				rs[i-1].Subnet, rs[i].Subnet)
		}
	}
	return &DB{ranges: rs}, nil
}

// Lookup returns the range containing ip, if any.
func (db *DB) Lookup(ip uint32) (Range, bool) {
	// Binary search for the last range with Start <= ip.
	lo, hi := 0, len(db.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if db.ranges[mid].Start <= ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Range{}, false
	}
	r := db.ranges[lo-1]
	if ip > r.End {
		return Range{}, false
	}
	return r, true
}

// Country returns the country code for ip ("" if unknown).
func (db *DB) Country(ip uint32) string {
	r, ok := db.Lookup(ip)
	if !ok {
		return ""
	}
	return r.Country
}

// Len returns the number of ranges.
func (db *DB) Len() int { return len(db.ranges) }

// ParseCIDR parses "a.b.c.d/len" into an inclusive range.
func ParseCIDR(cidr string) (start, end uint32, err error) {
	slash := strings.IndexByte(cidr, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("geoip: %q is not CIDR", cidr)
	}
	base, ok := urlx.ParseIPv4(cidr[:slash])
	if !ok {
		return 0, 0, fmt.Errorf("geoip: bad address in %q", cidr)
	}
	bits := 0
	for _, c := range cidr[slash+1:] {
		if c < '0' || c > '9' {
			return 0, 0, fmt.Errorf("geoip: bad prefix length in %q", cidr)
		}
		bits = bits*10 + int(c-'0')
		if bits > 32 {
			return 0, 0, fmt.Errorf("geoip: prefix length out of range in %q", cidr)
		}
	}
	if cidr[slash+1:] == "" {
		return 0, 0, fmt.Errorf("geoip: missing prefix length in %q", cidr)
	}
	var mask uint32
	if bits > 0 {
		mask = ^uint32(0) << (32 - bits)
	}
	start = base & mask
	end = start | ^mask
	return start, end, nil
}
