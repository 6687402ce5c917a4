#!/usr/bin/env bash
# CI's benchmark gates over internal/serve's store and handler
# benchmarks (store_bench_test.go). Each gate reads work that the
# runner's speed cannot move — allocations or bytes per op — as the
# median of 5 runs of `go test`, one arm after the other inside each
# run, so the arms interleave. The matching time ratio is printed beside
# it for the log, never gated: on a shared 2-vCPU runner it swings by
# ±10 % from one run to the next.
#
#   scripts/bench_gate.sh trace      # traced allocs/op <= 1.01 x obs
#   scripts/bench_gate.sh doccache   # doc-cache hit B/op <= cold B/op / 5
#
# Exits 1 when the gate fails or a benchmark printed nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
trace)
	# Tracing is always on in production, so what it adds to block
	# ingest is gated: one extra span per record would add ~180 k
	# allocs/op to the traced arm.
	pattern='BenchmarkIngestOverhead/(obs|traced)$' benchtime=10x arm=traced base=obs unit=allocs/op max=1.01
	;;
doccache)
	# A cache hit must do a fraction of the cold render's work; a hit
	# arm that rendered anyway would allocate what cold does.
	pattern='BenchmarkHandler/(cold|hit)$' benchtime=20x arm=hit base=cold unit=B/op max=0.2
	;;
*)
	echo "usage: $0 trace|doccache" >&2
	exit 2
	;;
esac

out=""
for _ in 1 2 3 4 5; do
	out+="$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" ./internal/serve)"$'\n'
done
echo "$out"
echo "$out" | awk -v arm="$arm" -v base="$base" -v unit="$unit" -v max="$max" '
	function median(v, n,   i, j, t) {
		for (i = 2; i <= n; i++) {
			t = v[i]
			for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
			v[j + 1] = t
		}
		return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/.*\//, "", name)
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == unit) w = $i
			if ($(i + 1) == "ns/op") t = $i
		}
		if (name == arm) { na++; aw[na] = w; at[na] = t }
		if (name == base) { nb++; bw[nb] = w; bt[nb] = t }
	}
	END {
		if (na == 0 || nb == 0) { print "missing benchmark output"; exit 1 }
		a = median(aw, na); b = median(bw, nb)
		printf "%s %.0f %s vs %s %.0f %s (ratio %.4f, max %.2f; time ratio %.3f, not gated)\n",
			arm, a, unit, base, b, unit, a / b, max, median(at, na) / median(bt, nb)
		if (a > max * b) { printf "%s %s exceeds %.2f x %s\n", arm, unit, max, base; exit 1 }
	}'
