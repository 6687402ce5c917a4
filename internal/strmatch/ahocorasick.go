// Package strmatch implements the multi-pattern string matching primitives
// behind both sides of the reproduced system: the Blue Coat policy engine
// uses them to apply keyword and domain blacklists to URLs (§5.4 of the
// paper: "a simple string-matching engine that detects any blacklisted
// substring in the URL"), and the analysis layer uses them to re-discover
// those blacklists from the logs.
//
// Two matchers are provided:
//
//   - AhoCorasick: a byte-level Aho–Corasick automaton for substring sets,
//     O(len(text)) per scan independent of pattern count.
//   - SuffixSet: a domain-suffix matcher ("skype.com" matches itself and
//     any subdomain) with O(#labels) lookups.
package strmatch

// AhoCorasick is a compiled multi-pattern substring matcher. Build once
// with NewAhoCorasick, then scan any number of texts concurrently (the
// automaton is immutable after construction).
type AhoCorasick struct {
	patterns []string
	// Dense automaton: next[state][b] is the goto+fail transition already
	// resolved at build time, so matching is a single table walk.
	next [][256]int32
	// out[state] is a bitset-ish list of pattern indices ending at state.
	out [][]int32
}

// NewAhoCorasick compiles the automaton for the given patterns. Empty
// patterns are ignored. Duplicate patterns are collapsed.
func NewAhoCorasick(patterns []string) *AhoCorasick {
	uniq := make([]string, 0, len(patterns))
	seen := make(map[string]struct{}, len(patterns))
	for _, p := range patterns {
		if p == "" {
			continue
		}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		uniq = append(uniq, p)
	}

	type node struct {
		children map[byte]int32
		fail     int32
		out      []int32
	}
	trie := []node{{children: map[byte]int32{}}}

	for pi, p := range uniq {
		cur := int32(0)
		for i := 0; i < len(p); i++ {
			b := p[i]
			nxt, ok := trie[cur].children[b]
			if !ok {
				trie = append(trie, node{children: map[byte]int32{}})
				nxt = int32(len(trie) - 1)
				trie[cur].children[b] = nxt
			}
			cur = nxt
		}
		trie[cur].out = append(trie[cur].out, int32(pi))
	}

	// BFS to compute failure links and propagate outputs.
	queue := make([]int32, 0, len(trie))
	for _, child := range trie[0].children {
		trie[child].fail = 0
		queue = append(queue, child)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for b, v := range trie[u].children {
			queue = append(queue, v)
			f := trie[u].fail
			for {
				if nxt, ok := trie[f].children[b]; ok && nxt != v {
					trie[v].fail = nxt
					break
				}
				if f == 0 {
					if nxt, ok := trie[0].children[b]; ok && nxt != v {
						trie[v].fail = nxt
					} else {
						trie[v].fail = 0
					}
					break
				}
				f = trie[f].fail
			}
			trie[v].out = append(trie[v].out, trie[trie[v].fail].out...)
		}
	}

	// Flatten to a dense transition table with failures resolved.
	ac := &AhoCorasick{
		patterns: uniq,
		next:     make([][256]int32, len(trie)),
		out:      make([][]int32, len(trie)),
	}
	for s := range trie {
		ac.out[s] = trie[s].out
	}
	// Root transitions.
	for b := 0; b < 256; b++ {
		if nxt, ok := trie[0].children[byte(b)]; ok {
			ac.next[0][b] = nxt
		} else {
			ac.next[0][b] = 0
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for b := 0; b < 256; b++ {
			if nxt, ok := trie[s].children[byte(b)]; ok {
				ac.next[s][b] = nxt
			} else {
				ac.next[s][b] = ac.next[trie[s].fail][b]
			}
		}
	}
	return ac
}

// Patterns returns the compiled pattern set (deduplicated, build order).
func (ac *AhoCorasick) Patterns() []string { return ac.patterns }

// First returns the index (into Patterns) of the first pattern whose match
// ends earliest in text, or -1 if none match. Ties broken by pattern order.
func (ac *AhoCorasick) First(text string) int {
	if len(ac.patterns) == 0 {
		return -1
	}
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = ac.next[s][text[i]]
		if outs := ac.out[s]; len(outs) > 0 {
			best := outs[0]
			for _, o := range outs[1:] {
				if o < best {
					best = o
				}
			}
			return int(best)
		}
	}
	return -1
}
