package categorydb

import "testing"

func TestClassifySuffixWalk(t *testing.T) {
	db := PaperSeed()
	cases := map[string]Category{
		"skype.com":            CatInstantMsg,
		"download.skype.com":   CatInstantMsg,
		"metacafe.com":         CatStreamingMedia,
		"www.metacafe.com":     CatStreamingMedia,
		"upload.youtube.com":   CatStreamingMedia,
		"plus.google.com":      CatSocialNetwork, // more specific than google.com
		"www.google.com":       CatSearchEngines,
		"unknown-host.example": CatNA,
		"static.ak.fbcdn.net":  CatContentServer,
		"hotsptshld.com":       CatAnonymizer,
		"panet.co.il":          CatGeneralNews,
		"tracker-x.furk.net":   CatP2P,
		"webmessenger.msn.com": CatInstantMsg, // more specific than msn.com
		"www.msn.com":          CatPortalSites,
		"apps.facebook.com":    CatSocialNetwork,
	}
	for host, want := range cases {
		if got := db.Classify(host); got != want {
			t.Errorf("Classify(%q) = %q, want %q", host, got, want)
		}
	}
}

func TestAddNormalization(t *testing.T) {
	db := New()
	db.Add(".Example.COM ", CatGames)
	if got := db.Classify("sub.example.com"); got != CatGames {
		t.Errorf("normalized add failed: %q", got)
	}
	db.Add("", CatGames) // ignored
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestOverwrite(t *testing.T) {
	db := New()
	db.Add("x.com", CatGames)
	db.Add("x.com", CatGeneralNews)
	if got := db.Classify("x.com"); got != CatGeneralNews {
		t.Errorf("overwrite failed: %q", got)
	}
}

// The paper's key category claims must hold in the seed: the top censored
// domains map to the categories Fig. 3 and Table 9 report.
func TestSeedMatchesPaperCategories(t *testing.T) {
	db := PaperSeed()
	checks := map[string]Category{
		"metacafe.com":     CatStreamingMedia, // Table 9: Streaming Media
		"skype.com":        CatInstantMsg,     // Table 9: Instant Messaging
		"jumblo.com":       CatInstantMsg,
		"wikimedia.org":    CatEducation, // Table 9: Education/Reference
		"aawsat.com":       CatGeneralNews,
		"jeddahbikers.com": CatOnlineShopping,
		"badoo.com":        CatSocialNetwork,
		"islamway.com":     CatNA, // paper's NA bucket: uncategorized
	}
	for host, want := range checks {
		if got := db.Classify(host); got != want {
			t.Errorf("seed: %q -> %q, want %q", host, got, want)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	db := PaperSeed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Classify("deep.sub.domain.facebook.com")
	}
}
