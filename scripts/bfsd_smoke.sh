#!/usr/bin/env bash
# bfsd_smoke.sh — end-to-end smoke of the hardened serving daemon:
# start bfsd, load a small RMAT graph over the API, run a
# self-validating query, check the serving counters on /metrics, swap
# in an mmap-loaded v2 file via /load?path= and query it, then SIGTERM
# the daemon and require a clean (exit 0) graceful drain.
#
# Usage: scripts/bfsd_smoke.sh [port]
set -euo pipefail

PORT="${1:-9481}"
BASE="http://127.0.0.1:${PORT}"

go build -o bfsd ./cmd/bfsd
go build -o graphgen ./cmd/graphgen

./bfsd -addr "127.0.0.1:${PORT}" -drain-timeout 10s &
BFSD_PID=$!
trap 'kill -9 "$BFSD_PID" 2>/dev/null || true' EXIT

# Wait for liveness.
for i in $(seq 1 50); do
  curl -fsS "${BASE}/healthz" -o /dev/null 2>/dev/null && break
  sleep 0.2
done
curl -fsS "${BASE}/healthz" >/dev/null

# Before a load the daemon is alive but not ready.
READY_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "${BASE}/readyz")
[ "$READY_STATUS" = "503" ] || { echo "readyz before load: $READY_STATUS, want 503"; exit 1; }

# Load a small RMAT graph.
curl -fsS -X POST "${BASE}/load?gen=rmat&n=4096&m=32768&seed=1" -o load.json
grep -q '"vertices":4096' load.json || { echo "bad /load response:"; cat load.json; exit 1; }
curl -fsS "${BASE}/readyz" >/dev/null

# Self-validating query: the daemon checks distances against the
# serial oracle and the parents against the BFS-tree rules.
curl -fsS "${BASE}/query?src=0&dst=1&validate=1" -o query.json
grep -q '"valid":true' query.json || { echo "query did not validate:"; cat query.json; exit 1; }
grep -q '"outcome":"ok"' query.json || { echo "query outcome not ok:"; cat query.json; exit 1; }

# Serving counters are on /metrics.
curl -fsS "${BASE}/metrics" -o metrics.txt
grep -q '^optibfs_serve_requests_total{outcome="ok"} 1$' metrics.txt || {
  echo "serve counters missing from /metrics:"; grep optibfs_serve metrics.txt || true; exit 1; }

# Goal-directed and analysis queries: an s-t search with path
# reconstruction, a depth-bounded k-hop sweep (must come back
# truncated), components, and eccentricity. The validate=1 legs
# self-check server-side against the serial oracle's closed levels.
curl -fsS "${BASE}/query?src=0&dst=100&path=1&validate=1" -o st.json
grep -q '"valid":true' st.json || { echo "s-t query did not validate:"; cat st.json; exit 1; }
grep -q '"dst":100' st.json || { echo "s-t response missing dst:"; cat st.json; exit 1; }
curl -fsS "${BASE}/query?src=0&k=2&validate=1" -o khop.json
grep -q '"valid":true' khop.json || { echo "k-hop query did not validate:"; cat khop.json; exit 1; }
grep -q '"truncated":true' khop.json || { echo "k-hop answer not truncated:"; cat khop.json; exit 1; }
curl -fsS "${BASE}/query?kind=components" -o comp.json
grep -q '"components":' comp.json || { echo "bad components response:"; cat comp.json; exit 1; }
curl -fsS "${BASE}/query?kind=ecc&src=0" -o ecc.json
grep -q '"ecc":' ecc.json || { echo "bad ecc response:"; cat ecc.json; exit 1; }
# dst and full=1 are contractually exclusive — a 400, not a 500.
FULL_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "${BASE}/query?src=0&dst=5&full=1")
[ "$FULL_STATUS" = "400" ] || { echo "dst+full=1: $FULL_STATUS, want 400"; exit 1; }
rm -f st.json khop.json comp.json ecc.json

# Fire 64 concurrent self-validating queries at the default (batched)
# path. Admission is work-conserving: a query that finds a solo engine
# free runs on it at once, and only the overflow that finds the whole
# fleet busy queues to fuse. Every one must come back valid; the burst
# overflows the two-engine fleet, so it must light up the
# batch-occupancy metrics.
BURST_PIDS=()
for i in $(seq 0 63); do
  curl -fsS "${BASE}/query?src=$(( (i * 17) % 4096 ))&validate=1" -o "burst_${i}.json" &
  BURST_PIDS+=("$!")
done
# Wait only on the curls — a bare `wait` would also wait on the
# long-running daemon job and hang forever.
wait "${BURST_PIDS[@]}"
for i in $(seq 0 63); do
  grep -q '"valid":true' "burst_${i}.json" || {
    echo "burst query $i did not validate:"; cat "burst_${i}.json"; exit 1; }
done
FUSED=$(grep -l '"fused":true' burst_*.json | wc -l)
[ "$FUSED" -ge 1 ] || { echo "no burst query was fused"; exit 1; }
rm -f burst_*.json

curl -fsS "${BASE}/metrics" -o metrics.txt
grep -q '^optibfs_serve_batch_lanes_count [1-9]' metrics.txt || {
  echo "batch occupancy histogram missing from /metrics:"
  grep optibfs_serve_batch metrics.txt || true; exit 1; }
grep -q '^optibfs_serve_fused_lanes_total [1-9]' metrics.txt || {
  echo "fused lane counter missing from /metrics:"
  grep optibfs_serve_fused metrics.txt || true; exit 1; }

# mmap path load: write a v2 file, swap it in with /load?path=, and
# run a self-validating query against the mapped graph. The response
# must report "mapped":true — the zero-copy path, not the heap
# fallback.
./graphgen -kind rmat -n 2048 -m 16384 -seed 7 -format bin2 -o smoke.bin2
curl -fsS -X POST "${BASE}/load?path=$(pwd)/smoke.bin2" -o load2.json
grep -q '"vertices":2048' load2.json || { echo "bad /load?path response:"; cat load2.json; exit 1; }
grep -q '"mapped":true' load2.json || { echo "path load not mmapped:"; cat load2.json; exit 1; }
curl -fsS "${BASE}/query?src=0&validate=1" -o query2.json
grep -q '"valid":true' query2.json || { echo "mapped query did not validate:"; cat query2.json; exit 1; }
rm -f smoke.bin2 load2.json query2.json

# Multi-graph registry: load three named graphs, list them, query each
# by name, then evict one and require 404s on all its routes while the
# survivors keep answering.
for name in alpha beta gamma; do
  curl -fsS -X POST "${BASE}/graphs/${name}?gen=er&n=1024&m=8192&seed=3" -o "g_${name}.json"
  grep -q "\"graph\":\"${name}\"" "g_${name}.json" || {
    echo "bad /graphs/${name} load response:"; cat "g_${name}.json"; exit 1; }
done
curl -fsS "${BASE}/graphs" -o graphs.json
for name in alpha beta gamma; do
  grep -q "\"graph\":\"${name}\"" graphs.json || {
    echo "graph ${name} missing from /graphs:"; cat graphs.json; exit 1; }
  curl -fsS "${BASE}/query?src=0&graph=${name}&validate=1" -o "q_${name}.json"
  grep -q '"valid":true' "q_${name}.json" || {
    echo "named query on ${name} did not validate:"; cat "q_${name}.json"; exit 1; }
  curl -fsS "${BASE}/readyz?graph=${name}" >/dev/null
done
curl -fsS -X DELETE "${BASE}/graphs/beta" -o evict.json
grep -q '"evicted":"beta"' evict.json || { echo "bad evict response:"; cat evict.json; exit 1; }
for probe in "graphs/beta" "query?src=0&graph=beta" "readyz?graph=beta"; do
  STATUS=$(curl -s -o /dev/null -w '%{http_code}' "${BASE}/${probe}")
  [ "$STATUS" = "404" ] || { echo "${probe} after evict: $STATUS, want 404"; exit 1; }
done
curl -fsS "${BASE}/query?src=0&graph=alpha&validate=1" -o q_alpha2.json
grep -q '"valid":true' q_alpha2.json || {
  echo "survivor query after evict did not validate:"; cat q_alpha2.json; exit 1; }
rm -f g_*.json q_*.json graphs.json evict.json

# Overload: a daemon pinned to one global admission slot and no queue
# must shed a concurrent burst with 429s carrying a derived Retry-After
# (integer seconds), never the old hardcoded 503.
OPORT=$((PORT + 1))
OBASE="http://127.0.0.1:${OPORT}"
./bfsd -addr "127.0.0.1:${OPORT}" -admit-inflight 1 -admit-queue -1 -workers 1 &
OBFSD_PID=$!
trap 'kill -9 "$BFSD_PID" "$OBFSD_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
  curl -fsS "${OBASE}/healthz" -o /dev/null 2>/dev/null && break
  sleep 0.2
done
curl -fsS -X POST "${OBASE}/load?gen=er&n=100000&m=800000&seed=5" -o /dev/null
OVER_PIDS=()
for i in $(seq 0 23); do
  curl -s -D "over_h_${i}.txt" -o /dev/null \
    -w '%{http_code}' "${OBASE}/query?src=$(( i * 97 ))&full=1" > "over_s_${i}.txt" &
  OVER_PIDS+=("$!")
done
wait "${OVER_PIDS[@]}"
SHED=0
for i in $(seq 0 23); do
  STATUS=$(cat "over_s_${i}.txt")
  case "$STATUS" in
    200) ;;
    429)
      SHED=$((SHED + 1))
      RA=$(tr -d '\r' < "over_h_${i}.txt" | awk 'tolower($1) == "retry-after:" {print $2}')
      case "$RA" in
        ''|*[!0-9]*) echo "429 without integer Retry-After (got '$RA'):"; cat "over_h_${i}.txt"; exit 1 ;;
      esac
      [ "$RA" -ge 1 ] && [ "$RA" -le 30 ] || { echo "Retry-After $RA out of [1,30]"; exit 1; }
      ;;
    *) echo "burst query $i: status $STATUS, want 200 or 429"; exit 1 ;;
  esac
done
[ "$SHED" -ge 1 ] || { echo "no burst query was shed with 429"; exit 1; }
rm -f over_h_*.txt over_s_*.txt
kill -TERM "$OBFSD_PID"
wait "$OBFSD_PID" || { echo "overload daemon did not drain cleanly"; exit 1; }
trap 'kill -9 "$BFSD_PID" 2>/dev/null || true' EXIT

# Graceful drain: SIGTERM must exit 0.
kill -TERM "$BFSD_PID"
WAIT_CODE=0
wait "$BFSD_PID" || WAIT_CODE=$?
trap - EXIT
[ "$WAIT_CODE" = "0" ] || { echo "bfsd exited $WAIT_CODE on SIGTERM, want 0"; exit 1; }

echo "bfsd smoke OK"
