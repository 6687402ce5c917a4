package strmatch

import (
	"strings"
	"testing"
	"testing/quick"
)

// ContainsNaive is the reference O(patterns × text) scan that the
// automaton is property-tested and benchmarked against.
func ContainsNaive(patterns []string, text string) bool {
	for _, p := range patterns {
		if p != "" && strings.Contains(text, p) {
			return true
		}
	}
	return false
}

func TestAhoCorasickBasics(t *testing.T) {
	ac := NewAhoCorasick([]string{"proxy", "israel", "hotspotshield"})
	cases := []struct {
		text string
		want bool
	}{
		{"facebook.com/ajax/proxy.php", true},
		{"www.israelnews.example", true},
		{"hotspotshield.com", true},
		{"google.com/search?q=weather", false},
		{"", false},
		{"prox", false},
		{"pproxyy", true},
	}
	for _, tc := range cases {
		if got := ac.First(tc.text) >= 0; got != tc.want {
			t.Errorf("First(%q) >= 0 = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestAhoCorasickOverlappingPatterns(t *testing.T) {
	ac := NewAhoCorasick([]string{"he", "she", "his", "hers"})
	// In "ushers", "she" (1) and "he" (0) end on the same byte: the state
	// reached through the failure link must carry both outputs.
	if got := ac.First("ushers"); got != 0 {
		t.Fatalf("First = %d, want 0", got)
	}
}

func TestAhoCorasickFirst(t *testing.T) {
	ac := NewAhoCorasick([]string{"bbb", "aa"})
	if got := ac.First("xxaayy"); got != 1 {
		t.Errorf("First = %d, want 1", got)
	}
	if got := ac.First("zzz"); got != -1 {
		t.Errorf("First on miss = %d", got)
	}
}

func TestAhoCorasickEmptyAndDuplicates(t *testing.T) {
	ac := NewAhoCorasick([]string{"", "x", "x", "y"})
	if got := len(ac.Patterns()); got != 2 {
		t.Errorf("patterns kept = %d, want 2", got)
	}
	if ac.First("") >= 0 {
		t.Error("empty text matched")
	}
	empty := NewAhoCorasick(nil)
	if empty.First("anything") != -1 {
		t.Error("empty automaton matched")
	}
}

// Property: the automaton agrees with the naive scanner on random inputs.
func TestAhoCorasickMatchesNaive(t *testing.T) {
	alphabet := []string{"pro", "xy", "il", "face", "book", ".", "/", "a", "b"}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(patIdx []uint8, textIdx []uint8) bool {
		var pats []string
		for _, i := range patIdx {
			p := alphabet[int(i)%len(alphabet)] + alphabet[int(i/2)%len(alphabet)]
			pats = append(pats, p)
		}
		var sb strings.Builder
		for _, i := range textIdx {
			sb.WriteString(alphabet[int(i)%len(alphabet)])
		}
		text := sb.String()
		ac := NewAhoCorasick(pats)
		return (ac.First(text) >= 0) == ContainsNaive(pats, text)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixSet(t *testing.T) {
	s := NewSuffixSet([]string{"skype.com", ".Metacafe.com", "il", ""})
	cases := []struct {
		host string
		want bool
		via  string
	}{
		{"skype.com", true, "skype.com"},
		{"download.skype.com", true, "skype.com"},
		{"notskype.com", false, ""},
		{"www.metacafe.com", true, "metacafe.com"},
		{"panet.co.il", true, "il"},
		{"il", true, "il"},
		{"ilx", false, ""},
		{"", false, ""},
	}
	for _, tc := range cases {
		via, got := s.Match(tc.host)
		if got != tc.want || via != tc.via {
			t.Errorf("Match(%q) = %q,%v want %q,%v", tc.host, via, got, tc.via, tc.want)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

// Property: Match(host) agrees with a naive suffix check.
func TestSuffixSetMatchesNaive(t *testing.T) {
	suffixes := []string{"a.com", "b.org", "il", "c.co.il"}
	s := NewSuffixSet(suffixes)
	naive := func(host string) bool {
		for _, suf := range suffixes {
			if host == suf || strings.HasSuffix(host, "."+suf) {
				return true
			}
		}
		return false
	}
	labels := []string{"a", "b", "c", "com", "org", "il", "co"}
	if err := quick.Check(func(idx []uint8) bool {
		parts := make([]string, 0, len(idx)%5+1)
		for _, i := range idx {
			parts = append(parts, labels[int(i)%len(labels)])
			if len(parts) >= 5 {
				break
			}
		}
		host := strings.Join(parts, ".")
		_, ok := s.Match(host)
		return ok == naive(host)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAhoCorasickFirst(b *testing.B) {
	ac := NewAhoCorasick([]string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"})
	text := "www.facebook.com/plugins/like.php?href=http%3A%2F%2Fexample.com&layout=standard"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ac.First(text)
	}
}

func BenchmarkNaiveContains(b *testing.B) {
	pats := []string{"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"}
	text := "www.facebook.com/plugins/like.php?href=http%3A%2F%2Fexample.com&layout=standard"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ContainsNaive(pats, text)
	}
}

func BenchmarkSuffixSetMatch(b *testing.B) {
	domains := make([]string, 0, 105)
	for i := 0; i < 105; i++ {
		domains = append(domains, strings.Repeat("d", i%8+1)+".example"+string(rune('a'+i%26))+".com")
	}
	s := NewSuffixSet(domains)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Match("deep.sub.domain.dddd.examplec.com")
	}
}
