// Package core implements the paper's analyses: the §3.3 request
// classification and dataset construction, and one result function per
// table and figure of the evaluation (see DESIGN.md for the experiment
// index). The heart of the package is the Engine, a single-pass,
// mergeable composition of independent metric modules (one per analysis
// family); the Analyzer facade is a full engine — feed it every log
// record once (directly or through internal/pipeline), then ask it for
// any result. Subset engines, built via NewEngine or NewAnalyzerFor with
// the module names from ModulesFor, pay only for the tables and figures
// they will be asked for.
//
// The inference analyses — censored-string discovery (§5.4), proxy
// specialization (§5.2), Tor blocking consistency (§7.1) — recover the
// filtering policy from the logs alone; because the synthetic corpus is
// produced by a known ground-truth policy, the tests in this package can
// validate recall and precision, which the original study could not.
package core

import (
	"strings"
	"sync"

	"syriafilter/internal/bittorrent"
	"syriafilter/internal/categorydb"
	"syriafilter/internal/geoip"
	"syriafilter/internal/logfmt"
	"syriafilter/internal/torsim"
)

// Options configures an Engine or Analyzer. Categories and GeoDB are
// required for the category/country analyses; Consensus and TitleDB
// unlock the Tor and BitTorrent analyses.
type Options struct {
	Categories *categorydb.DB
	GeoDB      *geoip.DB
	Consensus  *torsim.Consensus
	TitleDB    *bittorrent.TitleDB
	// maxStoredCensoredURLs caps the URL store used by keyword discovery
	// (default 500_000; censored traffic is ~1% so this is rarely hit).
	// Tests lower it to reach the cap on a small corpus.
	maxStoredCensoredURLs int
	// maxTokens caps the allowed-token vocabulary (default
	// maxTokenEntries). Tests lower it to reach the cap.
	maxTokens int
	// urlIDs, when set, is the §5.4 URL id table every engine built from
	// these Options interns into (see ShareURLIDs).
	urlIDs *urlIDs
}

// Dsample is a deterministic 1-in-25 sample, the paper's 4%; the
// allowed-token vocabulary is capped at 4M entries.
const (
	sampleOneIn     = 25
	maxTokenEntries = 4 << 20
)

// The default databases are built once per process and shared by every
// engine whose caller supplied none: an engine only reads them and never
// hands them out, and the daemon builds an engine per cut, per range
// window and per restored segment.
var (
	defaultCategories = sync.OnceValue(categorydb.PaperSeed)
	defaultGeoDB      = sync.OnceValue(geoip.SyriaEra)
)

func (o *Options) defaults() {
	if o.Categories == nil {
		o.Categories = defaultCategories()
	}
	if o.GeoDB == nil {
		o.GeoDB = defaultGeoDB()
	}
	if o.maxStoredCensoredURLs == 0 {
		o.maxStoredCensoredURLs = 500_000
	}
	if o.maxTokens == 0 {
		o.maxTokens = maxTokenEntries
	}
}

// DatasetID indexes the four datasets of Table 1.
type DatasetID int

// Dataset identifiers, in Table 1 order.
const (
	DFull DatasetID = iota
	DSample
	DUser
	DDenied
	numDatasets
)

// String names the dataset.
func (d DatasetID) String() string {
	switch d {
	case DFull:
		return "Full"
	case DSample:
		return "Sample"
	case DUser:
		return "User"
	case DDenied:
		return "Denied"
	}
	return "?"
}

// ClassCounts is one dataset's row group in Table 3.
type ClassCounts struct {
	Total       uint64
	ByException [logfmt.NumExceptions]uint64
	Proxied     uint64 // records answered from cache (any exception)
}

// Censored returns policy_denied + policy_redirect.
func (c *ClassCounts) Censored() uint64 {
	return c.ByException[logfmt.ExPolicyDenied] + c.ByException[logfmt.ExPolicyRedirect]
}

func (c *ClassCounts) merge(o *ClassCounts) {
	c.Total += o.Total
	c.Proxied += o.Proxied
	for i := range c.ByException {
		c.ByException[i] += o.ByException[i]
	}
}

type triple struct{ Censored, Allowed, Proxied uint64 }

type pageStat struct {
	Censored, Allowed, Proxied uint64
	CustomCategory             bool // ever seen with the "Blocked sites" label
}

type censoredURL struct {
	Domain string
	URL    string
	Host   string
}

// SlotSeconds matches the paper's 5-minute series granularity.
const SlotSeconds = 300

// OSNWatchlist is the §6 population: the top-25 social networks (Alexa,
// Nov 2013, as the paper selected) plus three Arabic-speaking-world ones.
var OSNWatchlist = []string{
	"facebook.com", "twitter.com", "linkedin.com", "pinterest.com",
	"plus.google.com", "tumblr.com", "instagram.com", "vk.com", "flickr.com",
	"myspace.com", "tagged.com", "ask.fm", "meetup.com", "meetme.com",
	"classmates.com", "xing.com", "renren.com", "weibo.com", "orkut.com",
	"badoo.com", "skyrock.com", "ning.com", "hi5.com", "last.fm",
	"livejournal.com", "netlog.com", "salamworld.com", "muslimup.com",
}

// Analyzer is the backward-compatible facade over a full Engine: every
// metric module registered, every result method available. It remains
// the right type for callers that want the whole evaluation; use
// NewAnalyzerFor (or NewEngine) to pay for a subset only.
//
// Like the Engine, an Analyzer is not safe for concurrent use; run one
// per pipeline worker and Merge.
type Analyzer struct {
	*Engine
}

// NewAnalyzer builds an empty analyzer running every metric module.
func NewAnalyzer(opt Options) *Analyzer {
	a, err := NewAnalyzerFor(opt)
	if err != nil {
		panic(err) // unreachable: no subset names to reject
	}
	return a
}

// NewAnalyzerFor builds an analyzer restricted to the named metric
// modules (none = all). Result methods whose module is absent panic;
// derive the names from ModulesFor so the subset matches the experiments
// you will run.
func NewAnalyzerFor(opt Options, metrics ...string) (*Analyzer, error) {
	e, err := NewEngine(opt, metrics...)
	if err != nil {
		return nil, err
	}
	return &Analyzer{Engine: e}, nil
}

// Merge folds b into a. Both must have been built with equivalent
// Options and the same module subset.
func (a *Analyzer) Merge(b *Analyzer) { a.Engine.Merge(b.Engine) }

func bumpTriple(ts *triple, censored, allowed, isProxied bool) {
	switch {
	case isProxied:
		ts.Proxied++
	case censored:
		ts.Censored++
	case allowed:
		ts.Allowed++
	}
}

// isCodeExt reports whether ext names a web-platform resource type.
func isCodeExt(ext string) bool {
	switch ext {
	case "php", "js", "css", "cgi", "aspx", "asp", "dll", "gif", "png", "jpg", "html", "htm", "xml", "json":
		return true
	}
	return false
}

// tokenizeRecord yields the URL's candidate keyword tokens: maximal runs
// of ASCII letters (length 4–24) from host+path+query, lowercased. Digits
// break tokens, which keeps session ids and hashes out of the vocabulary.
func tokenizeRecord(rec *logfmt.Record, yield func(string)) {
	emit := func(s string) {
		start := -1
		for i := 0; i <= len(s); i++ {
			var c byte
			if i < len(s) {
				c = s[i]
			}
			isAlpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
			if isAlpha {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				if n := i - start; n >= 4 && n <= 24 {
					yield(strings.ToLower(s[start:i]))
				}
				start = -1
			}
		}
	}
	emit(rec.Host)
	emit(rec.Path)
	emit(rec.Query)
}
