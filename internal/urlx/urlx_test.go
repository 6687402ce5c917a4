package urlx

import (
	"testing"
	"testing/quick"
)

func TestPathExt(t *testing.T) {
	cases := map[string]string{
		"/a/b.php":        "php",
		"/a/b.tar.gz":     "gz",
		"/a/b":            "",
		"":                "",
		"/dir.d/file":     "",
		"/x.verylongextn": "",
		"/trailing.":      "",
	}
	for in, want := range cases {
		if got := PathExt(in); got != want {
			t.Errorf("PathExt(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := map[string]string{
		"upload.youtube.com":  "youtube.com",
		"www.facebook.com":    "facebook.com",
		"facebook.com":        "facebook.com",
		"news.bbc.co.uk":      "bbc.co.uk",
		"www.mtn.com.sy":      "mtn.com.sy",
		"a.b.panet.co.il":     "panet.co.il",
		"localhost":           "localhost",
		"192.168.1.1":         "192.168.1.1",
		"static.ak.fbcdn.net": "fbcdn.net",
	}
	for in, want := range cases {
		if got := RegisteredDomain(in); got != want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTLD(t *testing.T) {
	cases := map[string]string{
		"panet.co.il": "il",
		"google.com":  "com",
		"10.0.0.1":    "",
		"host":        "",
		"trailing.":   "",
	}
	for in, want := range cases {
		if got := TLD(in); got != want {
			t.Errorf("TLD(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseIPv4(t *testing.T) {
	good := map[string]uint32{
		"0.0.0.0":         0,
		"127.0.0.1":       0x7f000001,
		"255.255.255.255": 0xffffffff,
		"82.137.200.42":   0x5289c82a,
	}
	for in, want := range good {
		got, ok := ParseIPv4(in)
		if !ok || got != want {
			t.Errorf("ParseIPv4(%q) = %x ok=%v, want %x", in, got, ok, want)
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.", "01.2.3.4567"} {
		if _, ok := ParseIPv4(bad); ok {
			t.Errorf("ParseIPv4(%q) accepted", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	if err := quick.Check(func(ip uint32) bool {
		got, ok := ParseIPv4(FormatIPv4(ip))
		return ok && got == ip
	}, nil); err != nil {
		t.Fatal(err)
	}
}
