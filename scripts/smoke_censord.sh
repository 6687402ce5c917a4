#!/usr/bin/env bash
# Smoke test for cmd/censord: synthesize a corpus with cmd/syngen (one
# file gzipped to exercise transparent decompression; the generator
# spreads record timestamps across the paper's capture window, so
# temporal queries are non-degenerate), boot the daemon on it, poll
# /readyz until the boot ingest completes, and diff the JSON of one
# table and one figure endpoint — plus /v1/range over the full window,
# a bucket-aligned sub-window (for a one-module, a two-module and a
# discovery experiment: the range merge folds only the modules its doc
# reads) and every window of a daily series — against `censorlyzer
# -json` over the same corpus — the two front ends must be
# byte-identical.
#
# Then the warm-restart path: SIGTERM the daemon (cutting a final
# checkpoint after flushing acked ingest), restart it from -checkpoint
# alone (no -input), and diff every /v1/tables/{id} against the
# pre-kill snapshot. /metrics is scraped on both sides of the restart:
# the ingest/HTTP/checkpoint series must be present, and the
# store-record total and checkpoint generation must carry across the
# restart monotonically.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=7
REQUESTS=20000
ADDR=127.0.0.1:8077

# wait_ready polls /readyz until the daemon reports ok. The listener is
# up (and /healthz answers) while the boot goroutine is still restoring
# or ingesting, so query assertions must gate on readiness, not liveness.
wait_ready() { # $1 = pid, $2 = what
  for i in $(seq 1 150); do
    if curl -sf "http://$ADDR/readyz" > /dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$1" 2>/dev/null; then
      echo "smoke: $2 exited early" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "smoke: $2 never became ready" >&2
  exit 1
}

# mval extracts one sample value from a Prometheus exposition dump.
mval() { # $1 = file, $2 = series name
  awk -v s="$2" '$1 == s { print $2; exit }' "$1"
}

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/syngen" ./cmd/syngen
go build -o "$tmp/censord" ./cmd/censord
go build -o "$tmp/censorlyzer" ./cmd/censorlyzer

"$tmp/syngen" -requests "$REQUESTS" -seed "$SEED" -out "$tmp/logs" -quiet
gzip "$tmp/logs/sg-42.csv"   # the daemon must ingest gz transparently
inputs=$(ls "$tmp"/logs/* | paste -sd, -)

"$tmp/censorlyzer" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
  -exp table4 -json > "$tmp/batch-table4.json"
"$tmp/censorlyzer" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
  -exp fig7 -json > "$tmp/batch-fig7.json"
# Bucket-aligned sub-window: the -from/-to record predicate must agree
# with the daemon's bucket merge over the same bounds.
SUBFROM=2011-08-03 SUBTO=2011-08-05
for id in table1 table4 table8; do
  "$tmp/censorlyzer" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
    -exp "$id" -json -from "$SUBFROM" -to "$SUBTO" > "$tmp/batch-$id-sub.json"
done

CKPT="$tmp/ckpt"
"$tmp/censord" -addr "$ADDR" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
  -bucket 1h -snapshot-every 0 -checkpoint "$CKPT" &
pid=$!

wait_ready "$pid" "censord"
curl -sf "http://$ADDR/healthz" > "$tmp/health.json"
grep -q '"status":"ok"' "$tmp/health.json" || { echo "smoke: bad /healthz: $(cat "$tmp/health.json")" >&2; exit 1; }
curl -sf "http://$ADDR/readyz" | grep -q '"status":"ok"' || { echo "smoke: /readyz not ok after wait" >&2; exit 1; }

curl -sf -X POST "http://$ADDR/v1/snapshot" > /dev/null
curl -sf "http://$ADDR/v1/tables/table4" > "$tmp/live-table4.json"
curl -sf "http://$ADDR/v1/figures/7"     > "$tmp/live-fig7.json"

diff "$tmp/batch-table4.json" "$tmp/live-table4.json"
diff "$tmp/batch-fig7.json" "$tmp/live-fig7.json"

# The read path refuses what it cannot answer 200: a validator does not
# vouch for a doc that does not exist, and an unknown format is not
# served as JSON.
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'If-None-Match: *' "http://$ADDR/v1/experiments/nope")
[ "$code" = 404 ] || { echo "smoke: If-None-Match: * on an unknown id answered $code, want 404" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/tables/table4?format=xml")
[ "$code" = 400 ] || { echo "smoke: ?format=xml answered $code, want 400" >&2; exit 1; }

# Range queries: the full (open) window is byte-identical to the batch
# run; a bucket-aligned sub-window matches the -from/-to batch run; a
# step query returns one doc per day window.
curl -sf "http://$ADDR/v1/range/table4" > "$tmp/range-table4.json"
diff "$tmp/batch-table4.json" "$tmp/range-table4.json"
for id in table1 table4 table8; do
  curl -sf "http://$ADDR/v1/range/$id?from=$SUBFROM&to=$SUBTO" > "$tmp/range-$id-sub.json"
  diff "$tmp/batch-$id-sub.json" "$tmp/range-$id-sub.json" \
    || { echo "smoke: /v1/range/$id over the sub-window differs from the -from/-to batch run" >&2; exit 1; }
done
curl -sf "http://$ADDR/v1/range/table1?step=24h" > "$tmp/series.json"
grep -q '"step_seconds":86400' "$tmp/series.json" || { echo "smoke: bad series: $(head -c 200 "$tmp/series.json")" >&2; exit 1; }
# Every window's doc, cut out of the series byte for byte, must equal
# the batch run over that window's bounds.
mkdir -p "$tmp/series"
python3 - "$tmp/series.json" "$tmp/series" <<'PY'
import json, sys
raw = open(sys.argv[1], encoding="utf-8").read()
dec, pos, n = json.JSONDecoder(), 0, 0
for w in json.loads(raw)["windows"]:
    at = raw.index('"doc":', pos) + len('"doc":')
    _, pos = dec.raw_decode(raw, at)
    with open("%s/%d-%d-%d.json" % (sys.argv[2], n, w["from_unix"], w["to_unix"]), "w", encoding="utf-8") as f:
        f.write(raw[at:pos] + "\n")
    n += 1
PY
windows=0
for f in "$tmp"/series/*.json; do
  bounds=$(basename "$f" .json)
  to=${bounds##*-}; from=${bounds%-*}; from=${from#*-}
  "$tmp/censorlyzer" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
    -exp table1 -json -from "$from" -to "$to" | diff - "$f" \
    || { echo "smoke: series window [$from, $to) differs from the -from/-to batch run" >&2; exit 1; }
  windows=$((windows + 1))
done
[ "$windows" -ge 2 ] || { echo "smoke: series has $windows windows, want >= 2" >&2; exit 1; }
curl -sf "http://$ADDR/v1/stats" | grep -q '"ingested_bytes":[1-9]' || { echo "smoke: /v1/stats missing ingested_bytes" >&2; exit 1; }

# The ingest endpoint accepts a live batch and the snapshot moves.
before=$(curl -sf "http://$ADDR/v1/stats" | sed 's/.*"ingested"://;s/,.*//')
"$tmp/syngen" -requests 10000 -seed 9 -combined "$tmp/extra.csv" -quiet
curl -sf -X POST --data-binary @"$tmp/extra.csv" "http://$ADDR/v1/ingest?refresh=1" > "$tmp/ingest.json"
after=$(curl -sf "http://$ADDR/v1/stats" | sed 's/.*"ingested"://;s/,.*//')
[ "$after" -gt "$before" ] || { echo "smoke: ingest did not grow the store ($before -> $after)" >&2; exit 1; }

echo "smoke: censord serves batch-identical JSON and accepts live ingest ($before -> $after records)"

# --- observability: /metrics covers ingest, HTTP and checkpoint ---

curl -sf "http://$ADDR/metrics" > "$tmp/metrics-prekill.txt"
for series in censord_ingest_blocks_total censord_ingest_records_total \
              censord_ingest_bytes_total censord_store_records_total \
              censord_snapshot_cuts_total censord_timewin_live_buckets \
              censord_checkpoint_generation go_goroutines; do
  [ -n "$(mval "$tmp/metrics-prekill.txt" "$series")" ] \
    || { echo "smoke: /metrics missing $series" >&2; exit 1; }
done
grep -q '^http_requests_total{' "$tmp/metrics-prekill.txt" \
  || { echo "smoke: /metrics missing http_requests_total" >&2; exit 1; }
grep -q '^censord_shard_queue_depth{' "$tmp/metrics-prekill.txt" \
  || { echo "smoke: /metrics missing censord_shard_queue_depth" >&2; exit 1; }
pre_records=$(mval "$tmp/metrics-prekill.txt" censord_store_records_total)
pre_gen=$(mval "$tmp/metrics-prekill.txt" censord_checkpoint_generation)
awk -v n="$pre_records" -v want="$after" 'BEGIN { exit !(n == want) }' \
  || { echo "smoke: censord_store_records_total $pre_records != /v1/stats ingested $after" >&2; exit 1; }

echo "smoke: /metrics exposes ingest, HTTP and checkpoint series ($pre_records records)"

# --- warm restart: kill mid-run, restart from the checkpoint alone ---

TABLES="1 3 4 5 6 7 8 9 10 11 12 13 14 15"
mkdir -p "$tmp/prekill"
for id in $TABLES; do
  curl -sf "http://$ADDR/v1/tables/$id" > "$tmp/prekill/table$id.json"
done
prestats=$(curl -sf "http://$ADDR/v1/stats")
echo "$prestats" | grep -q '"uptime_s"' || { echo "smoke: /v1/stats missing uptime_s" >&2; exit 1; }
echo "$prestats" | grep -q '"snapshot_age_s"' || { echo "smoke: /v1/stats missing snapshot_age_s" >&2; exit 1; }
echo "$prestats" | grep -q '"checkpoint_age_s"' || { echo "smoke: /v1/stats missing checkpoint_age_s" >&2; exit 1; }

# Graceful shutdown cuts the final checkpoint (covering the live-ingested
# batch above, which was acked over POST /v1/ingest).
kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then
  echo "smoke: censord did not exit after SIGTERM" >&2
  exit 1
fi
pid=""
[ -f "$CKPT/MANIFEST.json" ] || { echo "smoke: no checkpoint manifest after shutdown" >&2; exit 1; }

# Restart from state alone: no -input, the checkpoint carries everything.
"$tmp/censord" -addr "$ADDR" -seed "$SEED" -requests "$REQUESTS" \
  -bucket 1h -snapshot-every 0 -checkpoint "$CKPT" &
pid=$!
wait_ready "$pid" "restarted censord"
curl -sf -X POST "http://$ADDR/v1/snapshot" > /dev/null
for id in $TABLES; do
  curl -sf "http://$ADDR/v1/tables/$id" > "$tmp/postkill-table$id.json"
  diff "$tmp/prekill/table$id.json" "$tmp/postkill-table$id.json" \
    || { echo "smoke: table$id differs after warm restart" >&2; exit 1; }
done
restored=$(curl -sf "http://$ADDR/v1/stats" | sed 's/.*"ingested"://;s/,.*//')
[ "$restored" -eq "$after" ] || { echo "smoke: restored $restored records, expected $after" >&2; exit 1; }

# Metrics survive the warm restart monotonically: the record total picks
# up where the checkpoint left it (CounterFunc over restored state, not
# a process-lifetime counter) and the SIGTERM checkpoint advanced the
# generation the restarted daemon now reports.
curl -sf "http://$ADDR/metrics" > "$tmp/metrics-postkill.txt"
post_records=$(mval "$tmp/metrics-postkill.txt" censord_store_records_total)
post_gen=$(mval "$tmp/metrics-postkill.txt" censord_checkpoint_generation)
restores=$(mval "$tmp/metrics-postkill.txt" censord_checkpoint_restores_total)
awk -v a="$post_records" -v b="$pre_records" 'BEGIN { exit !(a >= b && a == b) }' \
  || { echo "smoke: store_records_total regressed across restart ($pre_records -> $post_records)" >&2; exit 1; }
awk -v a="$post_gen" -v b="$pre_gen" 'BEGIN { exit !(a > b) }' \
  || { echo "smoke: checkpoint_generation not advanced across restart ($pre_gen -> $post_gen)" >&2; exit 1; }
awk -v n="$restores" 'BEGIN { exit !(n == 1) }' \
  || { echo "smoke: checkpoint_restores_total = $restores, want 1" >&2; exit 1; }

echo "smoke: warm restart serves byte-identical tables from the checkpoint ($restored records, metrics monotone gen $pre_gen -> $post_gen)"

# The restore seeded the frame memo with the bytes it read: a checkpoint
# of the restarted, unchanged daemon encodes nothing and reuses every
# frame (same shard count on both sides, so nothing merged).
curl -sf -X POST "http://$ADDR/v1/checkpoint" > /dev/null
curl -sf "http://$ADDR/metrics" > "$tmp/metrics-reckpt.txt"
enc=$(mval "$tmp/metrics-reckpt.txt" censord_checkpoint_frames_encoded_total)
reused=$(mval "$tmp/metrics-reckpt.txt" censord_checkpoint_frames_reused_total)
awk -v e="$enc" -v r="$reused" 'BEGIN { exit !(e == 0 && r > 0) }' \
  || { echo "smoke: checkpoint after warm restart encoded $enc frames and reused $reused, want 0 and > 0" >&2; exit 1; }
echo "smoke: checkpoint after warm restart re-encoded nothing ($reused frames reused)"

# --- sketch mode: checkpoint -> SIGTERM -> warm restart, estimates survive ---
#
# Same drill with -sketch: boot a sketch-mode daemon on the corpus,
# capture every table (including the approx-marked sketched ones), cut
# a checkpoint via SIGTERM, restart from the checkpoint alone, and
# require every table byte-identical — HLL registers and top-k entries
# must round-trip exactly, not just approximately.
kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
pid=""

SKCKPT="$tmp/ckpt-sketch"
"$tmp/censord" -addr "$ADDR" -input "$inputs" -seed "$SEED" -requests "$REQUESTS" \
  -bucket 1h -snapshot-every 0 -checkpoint "$SKCKPT" -sketch &
pid=$!
wait_ready "$pid" "sketch censord"
curl -sf -X POST "http://$ADDR/v1/snapshot" > /dev/null
mkdir -p "$tmp/sketch-prekill"
for id in $TABLES; do
  curl -sf "http://$ADDR/v1/tables/$id" > "$tmp/sketch-prekill/table$id.json"
done
# Sketched experiments carry the approx marker; exact ones must not.
grep -q '"approx":true' "$tmp/sketch-prekill/table4.json" \
  || { echo "smoke: sketch-mode table4 not marked approx" >&2; exit 1; }
if grep -q '"approx"' "$tmp/sketch-prekill/table1.json"; then
  echo "smoke: exact-module table1 marked approx in sketch mode" >&2; exit 1
fi
# Exact-module results are byte-identical to the exact daemon's.
diff "$tmp/batch-fig7.json" <(curl -sf "http://$ADDR/v1/figures/7") \
  || { echo "smoke: sketch mode perturbed the exact fig7" >&2; exit 1; }
# A sketched engine reports nonzero sketch footprint on /metrics.
curl -sf "http://$ADDR/metrics" > "$tmp/metrics-sketch.txt"
hlls=$(mval "$tmp/metrics-sketch.txt" 'censord_sketch_hlls{module="users"}')
awk -v n="$hlls" 'BEGIN { exit !(n > 0) }' \
  || { echo "smoke: sketch mode censord_sketch_hlls{module=\"users\"} = $hlls, want > 0" >&2; exit 1; }

kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
pid=""
[ -f "$SKCKPT/MANIFEST.json" ] || { echo "smoke: no sketch checkpoint manifest" >&2; exit 1; }

"$tmp/censord" -addr "$ADDR" -seed "$SEED" -requests "$REQUESTS" \
  -bucket 1h -snapshot-every 0 -checkpoint "$SKCKPT" -sketch &
pid=$!
wait_ready "$pid" "restarted sketch censord"
curl -sf -X POST "http://$ADDR/v1/snapshot" > /dev/null
for id in $TABLES; do
  curl -sf "http://$ADDR/v1/tables/$id" > "$tmp/sketch-postkill-table$id.json"
  diff "$tmp/sketch-prekill/table$id.json" "$tmp/sketch-postkill-table$id.json" \
    || { echo "smoke: sketch table$id differs after warm restart" >&2; exit 1; }
done

echo "smoke: sketch-mode warm restart serves byte-identical estimates from the checkpoint"
