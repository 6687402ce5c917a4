// Package urlx provides the small URL-handling helpers the log pipeline
// needs: path extensions, registered-domain and TLD extraction, and IPv4
// literal parsing and formatting.
//
// It deliberately does not use net/url: Blue Coat logs store the URL
// pre-split across cs-host / cs-uri-path / cs-uri-query / cs-uri-extension,
// and the hot path must not allocate. All functions here operate on string
// slices of their input.
package urlx

import "strings"

// PathExt returns the extension of the final path segment without the dot,
// or "" if none ("-" in Blue Coat logs is represented as "" internally).
func PathExt(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i] {
		case '.':
			ext := path[i+1:]
			if len(ext) > 0 && len(ext) <= 8 {
				return ext
			}
			return ""
		case '/':
			return ""
		}
	}
	return ""
}

// secondLevelSuffixes are public suffixes under which a registered domain
// has three labels, covering the TLDs appearing in the paper's tables
// (.co.uk, .com.sy, .co.il, .net.sy, ...).
var secondLevelSuffixes = map[string]struct{}{
	"co.uk": {}, "org.uk": {}, "ac.uk": {}, "gov.uk": {},
	"com.sy": {}, "net.sy": {}, "org.sy": {}, "gov.sy": {},
	"co.il": {}, "org.il": {}, "net.il": {}, "ac.il": {}, "gov.il": {},
	"com.au": {}, "com.br": {}, "com.cn": {}, "com.eg": {},
	"com.sa": {}, "com.tr": {}, "com.lb": {}, "com.jo": {},
	"co.jp": {}, "co.kr": {}, "co.in": {},
}

// RegisteredDomain reduces a hostname to its registrable domain:
// "upload.youtube.com" -> "youtube.com", "news.bbc.co.uk" -> "bbc.co.uk".
// IP literals and single-label hosts are returned unchanged.
func RegisteredDomain(host string) string {
	if host == "" || IsIPv4(host) {
		return host
	}
	// Walk the last three labels.
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	second := strings.LastIndexByte(host[:last], '.')
	if second < 0 {
		return host
	}
	if _, ok := secondLevelSuffixes[host[second+1:]]; ok {
		third := strings.LastIndexByte(host[:second], '.')
		if third < 0 {
			return host
		}
		return host[third+1:]
	}
	return host[second+1:]
}

// TLD returns the final label of host ("il" for "panet.co.il"), or "" for
// IP literals and label-less hosts.
func TLD(host string) string {
	if IsIPv4(host) {
		return ""
	}
	i := strings.LastIndexByte(host, '.')
	if i < 0 || i == len(host)-1 {
		return ""
	}
	return host[i+1:]
}

// IsIPv4 reports whether s is a dotted-quad IPv4 literal.
func IsIPv4(s string) bool {
	_, ok := ParseIPv4(s)
	return ok
}

// ParseIPv4 parses a dotted-quad IPv4 literal into a big-endian uint32.
func ParseIPv4(s string) (uint32, bool) {
	var ip uint32
	part := uint32(0)
	digits := 0
	dots := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			part = part*10 + uint32(c-'0')
			digits++
			if digits > 3 || part > 255 {
				return 0, false
			}
		case c == '.':
			if digits == 0 {
				return 0, false
			}
			ip = ip<<8 | part
			part, digits = 0, 0
			dots++
			if dots > 3 {
				return 0, false
			}
		default:
			return 0, false
		}
	}
	if dots != 3 || digits == 0 {
		return 0, false
	}
	return ip<<8 | part, true
}

// FormatIPv4 renders a big-endian uint32 as a dotted quad.
func FormatIPv4(ip uint32) string {
	var b [15]byte
	n := put8(b[:0], byte(ip>>24))
	n = append(n, '.')
	n = put8(n, byte(ip>>16))
	n = append(n, '.')
	n = put8(n, byte(ip>>8))
	n = append(n, '.')
	n = put8(n, byte(ip))
	return string(n)
}

func put8(dst []byte, v byte) []byte {
	if v >= 100 {
		dst = append(dst, '0'+v/100)
	}
	if v >= 10 {
		dst = append(dst, '0'+(v/10)%10)
	}
	return append(dst, '0'+v%10)
}
