package strmatch

import "strings"

// SuffixSet matches hostnames against a set of domain suffixes: a host
// matches entry "example.com" if it equals "example.com" or ends with
// ".example.com". TLD-level entries like "il" implement the paper's
// observation that all .il domains are blocked.
//
// Lookups walk the host's label boundaries right-to-left, so cost is
// O(#labels) map probes regardless of set size.
type SuffixSet struct {
	suffixes map[string]struct{}
}

// NewSuffixSet builds a matcher from domain suffixes. Entries are
// normalized to lowercase without leading dots. Empty entries are ignored.
func NewSuffixSet(domains []string) *SuffixSet {
	s := &SuffixSet{suffixes: make(map[string]struct{}, len(domains))}
	for _, d := range domains {
		d = strings.ToLower(strings.TrimPrefix(strings.TrimSpace(d), "."))
		if d != "" {
			s.suffixes[d] = struct{}{}
		}
	}
	return s
}

// Len returns the number of suffixes.
func (s *SuffixSet) Len() int { return len(s.suffixes) }

// Match reports whether host matches any suffix, returning the matching
// suffix. Host is assumed already lowercased (the log pipeline normalizes
// hosts at parse time).
func (s *SuffixSet) Match(host string) (string, bool) {
	if len(s.suffixes) == 0 || host == "" {
		return "", false
	}
	// Probe host, then each suffix starting after a dot.
	probe := host
	for {
		if _, ok := s.suffixes[probe]; ok {
			return probe, true
		}
		i := strings.IndexByte(probe, '.')
		if i < 0 {
			return "", false
		}
		probe = probe[i+1:]
	}
}
