// Package categorydb is the URL-categorization substrate standing in for
// McAfee's TrustedSource service, which the paper uses to characterize
// censored websites (Fig. 3, Table 9) and to identify "Anonymizer" hosts
// (§7.2, Fig. 10) because the Syrian proxies had no category database of
// their own (cs-categories only ever held "unavailable"/"none" plus the
// custom "Blocked sites" label).
//
// The database maps domain suffixes to categories; unknown hosts resolve
// to NA, mirroring the 42 uncategorizable domains in Table 9.
package categorydb

import "strings"

// Category is a McAfee-style content category. Values are the category
// names the paper reports.
type Category string

// The category vocabulary used across the paper's Fig. 3, Table 9 and §7.2.
const (
	CatNA               Category = "NA"
	CatContentServer    Category = "Content Server"
	CatStreamingMedia   Category = "Streaming Media"
	CatInstantMsg       Category = "Instant Messaging"
	CatPortalSites      Category = "Portal Sites"
	CatGeneralNews      Category = "General News"
	CatSocialNetwork    Category = "Social Networking"
	CatGames            Category = "Games"
	CatEducation        Category = "Education/Reference"
	CatOnlineShopping   Category = "Online Shopping"
	CatInternetSvcs     Category = "Internet Services"
	CatEntertainment    Category = "Entertainment"
	CatForums           Category = "Forum/Bulletin Boards"
	CatAnonymizer       Category = "Anonymizers"
	CatSearchEngines    Category = "Search Engines"
	CatSoftwareDownload Category = "Software/Hardware"
	CatPornography      Category = "Pornography"
	CatAdvertising      Category = "Web Ads"
	CatTrackers         Category = "Web Analytics"
	CatP2P              Category = "Media Sharing"
	CatGovernment       Category = "Government/Military"
	CatTravel           Category = "Travel"
)

// DB maps registrable-domain suffixes to categories.
type DB struct {
	bySuffix map[string]Category
}

// New returns an empty database.
func New() *DB { return &DB{bySuffix: make(map[string]Category)} }

// Add registers a domain suffix under a category, overwriting any previous
// assignment. The suffix matches the domain itself and all subdomains.
func (db *DB) Add(suffix string, cat Category) {
	s := strings.ToLower(strings.TrimPrefix(strings.TrimSpace(suffix), "."))
	if s != "" {
		db.bySuffix[s] = cat
	}
}

// AddAll registers several suffixes under one category.
func (db *DB) AddAll(cat Category, suffixes ...string) {
	for _, s := range suffixes {
		db.Add(s, cat)
	}
}

// Classify returns the category of host, walking suffixes right-to-left
// like the policy engine does; NA when no entry matches.
func (db *DB) Classify(host string) Category {
	probe := host
	for {
		if cat, ok := db.bySuffix[probe]; ok {
			return cat
		}
		i := strings.IndexByte(probe, '.')
		if i < 0 {
			return CatNA
		}
		probe = probe[i+1:]
	}
}

// Len returns the number of registered suffixes.
func (db *DB) Len() int { return len(db.bySuffix) }

// PaperSeed returns a database pre-loaded with every domain↔category pair
// the paper names, plus enough context domains for the generator's world.
// The synthetic traffic generator registers its procedurally generated
// hosts (anonymizers, news sites, forums) on top of this seed.
func PaperSeed() *DB {
	db := New()
	db.AddAll(CatContentServer,
		"cloudfront.net", "googleusercontent.com", "gstatic.com", "fbcdn.net",
		"akamaihd.net", "akamai.net", "edgecastcdn.net", "llnwd.net")
	db.AddAll(CatStreamingMedia,
		"metacafe.com", "youtube.com", "dailymotion.com", "vimeo.com",
		"justin.tv", "ustream.tv")
	db.AddAll(CatInstantMsg,
		"skype.com", "jumblo.com", "ceipmsn.com", "webmessenger.msn.com",
		"live.com", "messenger.yahoo.com", "icq.com")
	db.AddAll(CatPortalSites,
		"msn.com", "yahoo.com", "conduitapps.com", "aol.com")
	db.AddAll(CatGeneralNews,
		"bbc.co.uk", "aljazeera.net", "aawsat.com", "all4syria.info",
		"alquds.co.uk", "islammemo.cc", "new-syria.com", "free-syria.com",
		"panet.co.il", "cnn.com", "reuters.com", "alarabiya.net")
	db.AddAll(CatSocialNetwork,
		"facebook.com", "twitter.com", "badoo.com", "netlog.com",
		"linkedin.com", "hi5.com", "skyrock.com", "ning.com", "meetup.com",
		"flickr.com", "myspace.com", "tumblr.com", "instagram.com",
		"plus.google.com", "vk.com", "odnoklassniki.ru", "orkut.com",
		"renren.com", "weibo.com", "tagged.com", "last.fm", "pinterest.com",
		"salamworld.com", "muslimup.com", "deviantart.com", "livejournal.com",
		"stumbleupon.com", "foursquare.com")
	db.AddAll(CatGames,
		"zynga.com", "miniclip.com", "king.com")
	db.AddAll(CatEducation,
		"wikimedia.org", "wikipedia.org", "britannica.com", "archive.org")
	db.AddAll(CatOnlineShopping,
		"amazon.com", "ebay.com", "jeddahbikers.com")
	db.AddAll(CatInternetSvcs,
		"mtn.com.sy", "syriatel.sy", "dynDNS.org", "no-ip.com",
		"speedtest.net", "whatismyip.com")
	db.AddAll(CatEntertainment,
		"imdb.com", "mbc.net", "rotana.net", "shahid.net")
	db.AddAll(CatForums,
		"vbulletin.com", "phpbb.com", "stooorage.com", "montadayat.org")
	db.AddAll(CatAnonymizer,
		"hotsptshld.com", "hotspotshield.com", "anchorfree.com",
		"ultrasurf.us", "ultrareach.com", "hidemyass.com", "your-freedom.net",
		"freegate.example", "gtunnel.example", "gpass.example",
		"megaproxy.com", "kproxy.com", "proxify.com")
	db.AddAll(CatSearchEngines,
		"google.com", "bing.com", "ask.com", "yandex.ru")
	db.AddAll(CatSoftwareDownload,
		"microsoft.com", "windowsupdate.com", "adobe.com", "mozilla.org",
		"download.com", "softonic.com")
	db.AddAll(CatPornography, "xvideos.com", "pornhub.com")
	db.AddAll(CatAdvertising,
		"doubleclick.net", "adnxs.com", "admob.com", "trafficholder.com",
		"adbrite.com")
	db.AddAll(CatTrackers,
		"google-analytics.com", "scorecardresearch.com", "quantserve.com")
	db.AddAll(CatP2P,
		"thepiratebay.org", "torrentz.eu", "torrentproject.com", "furk.net",
		"mininova.org")
	db.AddAll(CatGovernment, "gov.sy", "idf.il")
	db.AddAll(CatTravel, "booking.com", "tripadvisor.com")
	return db
}
