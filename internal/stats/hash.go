package stats

// Hash64 is FNV-1a over the string bytes, the stdlib-compatible hash used
// for Dsample membership, ingest shard routing and the Telecomix-style
// client-IP pseudonymization.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
