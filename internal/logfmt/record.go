// Package logfmt models the Blue Coat SG-9000 access log format studied in
// the paper: a CSV line of 26 ELFF fields per processed request, including
// the sc-filter-result / x-exception-id pair that drives the paper's whole
// request classification (§3.2–3.3).
//
// The package provides a typed Record, the FilterResult / ExceptionID /
// Class enums with the paper's exact semantics, a fast line parser that
// decodes into a caller-owned Record (gopacket's DecodingLayerParser
// pattern: no allocation per line beyond field substrings), and a writer
// that produces byte-identical lines for round-tripping.
package logfmt

// FilterResult is the sc-filter-result field: the action class the proxy
// assigned to the request (§3.2). Note the paper's caveat that this
// reflects the action the proxy performs, not the censorship outcome.
type FilterResult uint8

const (
	// Observed means content is fetched from the Origin Content Server
	// and served to the client.
	Observed FilterResult = iota
	// Proxied means the request was answered from the proxy cache; the
	// outcome depends on the cached value.
	Proxied
	// Denied means the request raised an exception and is not served.
	Denied
)

// String returns the log-file spelling of the filter result.
func (f FilterResult) String() string {
	switch f {
	case Observed:
		return "OBSERVED"
	case Proxied:
		return "PROXIED"
	case Denied:
		return "DENIED"
	}
	return "UNKNOWN"
}

// ExceptionID is the x-exception-id field. ExNone renders as "-" in the
// logs. The value set is exactly the one reported in Table 3.
type ExceptionID uint8

const (
	ExNone ExceptionID = iota
	ExPolicyDenied
	ExPolicyRedirect
	ExTCPError
	ExInternalError
	ExInvalidRequest
	ExUnsupportedProtocol
	ExDNSUnresolvedHostname
	ExDNSServerFailure
	ExUnsupportedEncoding
	ExInvalidResponse
	exceptionCount // sentinel; keep last
)

// NumExceptions is the number of distinct exception values incl. ExNone.
const NumExceptions = int(exceptionCount)

var exceptionNames = [...]string{
	ExNone:                  "-",
	ExPolicyDenied:          "policy_denied",
	ExPolicyRedirect:        "policy_redirect",
	ExTCPError:              "tcp_error",
	ExInternalError:         "internal_error",
	ExInvalidRequest:        "invalid_request",
	ExUnsupportedProtocol:   "unsupported_protocol",
	ExDNSUnresolvedHostname: "dns_unresolved_hostname",
	ExDNSServerFailure:      "dns_server_failure",
	ExUnsupportedEncoding:   "unsupported_encoding",
	ExInvalidResponse:       "invalid_response",
}

// String returns the log-file spelling of the exception.
func (e ExceptionID) String() string {
	if int(e) < len(exceptionNames) {
		return exceptionNames[e]
	}
	return "unknown_exception"
}

var exceptionByName = func() map[string]ExceptionID {
	m := make(map[string]ExceptionID, len(exceptionNames))
	for i, n := range exceptionNames {
		m[n] = ExceptionID(i)
	}
	return m
}()

// Class is the paper's §3.3 request classification derived from
// x-exception-id: Allowed, Censored (policy_denied / policy_redirect) or
// Error (every other exception).
type Class uint8

const (
	ClassAllowed Class = iota
	ClassCensored
	ClassError
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassAllowed:
		return "allowed"
	case ClassCensored:
		return "censored"
	case ClassError:
		return "error"
	}
	return "unknown"
}

// Class returns the paper's classification for an exception value.
func (e ExceptionID) Class() Class {
	switch e {
	case ExNone:
		return ClassAllowed
	case ExPolicyDenied, ExPolicyRedirect:
		return ClassCensored
	default:
		return ClassError
	}
}

// ProxyBase is the common prefix of the seven proxies' IP addresses: the
// paper reports s-ip in 82.137.200.42 – 82.137.200.48 and names proxies by
// suffix (SG-42 … SG-48).
const ProxyBase = "82.137.200."

const (
	// FirstProxy and LastProxy bound the SG- suffix range.
	FirstProxy = 42
	LastProxy  = 48
	// NumProxies is the size of the cluster in the leaked data.
	NumProxies = LastProxy - FirstProxy + 1
)

// Record is one parsed log line. Field names follow the ELFF headers in
// Table 2 of the paper. String fields hold "" where the log holds "-".
type Record struct {
	Time        int64  // seconds since Unix epoch (date + time fields, UTC)
	TimeTaken   uint32 // time-taken, milliseconds
	ClientIP    string // c-ip: "0.0.0.0" (suppressed) or a hash (Duser period)
	Username    string // cs-username
	AuthGroup   string // cs-auth-group
	Status      uint16 // sc-status
	SAction     string // s-action, e.g. TCP_NC_MISS, TCP_DENIED, tcp_policy_redirect
	ScBytes     uint32 // sc-bytes
	CsBytes     uint32 // cs-bytes
	Method      string // cs-method: GET/POST/CONNECT/...
	Scheme      string // cs-uri-scheme: http/https/tcp/...
	Host        string // cs-host, lowercase
	Port        uint16 // cs-uri-port
	Path        string // cs-uri-path
	Query       string // cs-uri-query (without '?')
	Ext         string // cs-uri-extension (without dot)
	UserAgent   string // cs(User-Agent)
	ProxyIP     string // s-ip (82.137.200.42 .. .48)
	Filter      FilterResult
	Categories  string // cs-categories as logged ("unavailable", "none", "Blocked sites; unavailable", ...)
	Exception   ExceptionID
	Hierarchy   string // s-hierarchy
	Supplier    string // s-supplier-name
	ContentType string // rs(Content-Type)
	Referer     string // cs(Referer)
}

// NumFields is the column count of the log format.
const NumFields = 26

// Proxy returns the SG suffix (42..48) parsed from s-ip, or 0 if the field
// does not name one of the cluster's proxies.
func (r *Record) Proxy() int {
	ip := r.ProxyIP
	if len(ip) != len(ProxyBase)+2 || ip[:len(ProxyBase)] != ProxyBase {
		return 0
	}
	d1, d2 := ip[len(ProxyBase)], ip[len(ProxyBase)+1]
	if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
		return 0
	}
	n := int(d1-'0')*10 + int(d2-'0')
	if n < FirstProxy || n > LastProxy {
		return 0
	}
	return n
}

// SetProxy sets s-ip from an SG suffix.
func (r *Record) SetProxy(sg int) {
	r.ProxyIP = ProxyBase + string([]byte{byte('0' + sg/10), byte('0' + sg%10)})
}

// Class returns the paper's request classification.
func (r *Record) Class() Class { return r.Exception.Class() }

// IsDeniedAny reports whether the request was not served (any exception).
func (r *Record) IsDeniedAny() bool { return r.Exception != ExNone }

// IsProxied reports whether the answer came from the cache.
func (r *Record) IsProxied() bool { return r.Filter == Proxied }

// URL reassembles the request URL the way the filtering engine sees it:
// host + path + "?" + query. Scheme and port are omitted, matching the
// string-matching surface described in §5.4 (cs-host, cs-uri-path,
// cs-uri-query "fully characterize the request").
func (r *Record) URL() string {
	n := len(r.Host) + len(r.Path)
	if r.Query != "" {
		n += 1 + len(r.Query)
	}
	b := make([]byte, 0, n)
	b = append(b, r.Host...)
	b = append(b, r.Path...)
	if r.Query != "" {
		b = append(b, '?')
		b = append(b, r.Query...)
	}
	return string(b)
}

// UserKey approximates a unique user the way §4 does: the pair
// (c-ip, cs-user-agent). Returns "" when the client IP was suppressed
// (zeroed), in which case no user analysis is possible.
func (r *Record) UserKey() string {
	if r.ClientIP == "" || r.ClientIP == "0.0.0.0" {
		return ""
	}
	return r.ClientIP + "|" + r.UserAgent
}
