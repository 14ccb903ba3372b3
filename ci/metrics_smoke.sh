#!/usr/bin/env bash
# Metrics smoke: start the socket server with --metrics-dump, run a
# timing-opted v2 session, and assert the three telemetry surfaces:
#   1. every response carries a "timing" object whose stages are
#      internally consistent (queue+canon+cache+race <= total);
#   2. a v2 "stats" frame reports the latency section with percentiles;
#   3. the --metrics-dump file appears with a nonzero jobs_completed
#      counter and histogram percentiles.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK=$WORK/metrics.sock
DUMP=$WORK/metrics.json
JOBS=$WORK/metrics-jobs.jsonl
OUT=$WORK/metrics-out.jsonl
STATS=$WORK/metrics-stats.jsonl

start_server "$SOCK" --metrics-dump "$DUMP"

# Session 1: a timing-opted v2 connection pumping 20 jobs (10 distinct
# permuted pairs, so the stream exercises both cache misses and hits).
{ echo '{"hello": 2, "timing": true}'
  for i in $(seq 20); do
    if [ $((i % 2)) -eq 0 ]; then
      echo "{\"id\": \"t$i\", \"matrix\": \"10;01\"}"
    else
      echo "{\"id\": \"t$i\", \"matrix\": \"01;10\"}"
    fi
  done } > "$JOBS"
timeout 120 "$BIN" client "$SOCK" < "$JOBS" > "$OUT"

assert_json_field "$OUT" timing true "hello ack lacks the timing capability"
test "$(grep -c '"ok": true' "$OUT")" -eq 20

# Every solved response carries a stage trace whose stages sum to at
# most the end-to-end total (the total also covers dispatch overhead).
grep '"ok": true' "$OUT" | while IFS= read -r line; do
  nums=$(printf '%s\n' "$line" | sed -n 's/.*"timing": {"queue_us": \([0-9]*\), "canon_us": \([0-9]*\), "cache_us": \([0-9]*\), "race_us": \([0-9]*\), "total_us": \([0-9]*\)}.*/\1 \2 \3 \4 \5/p')
  [ -n "$nums" ] || fail "solved response without timing: $line"
  set -- $nums
  sum=$(( $1 + $2 + $3 + $4 ))
  [ "$sum" -le "$5" ] || fail "stages sum to $sum > total $5: $line"
done

# Session 2 (after session 1 fully drained): the stats frame must now
# report the latency section with populated percentiles.
printf '{"hello": 2}\n{"stats": true}\n' | timeout 120 "$BIN" client "$SOCK" > "$STATS"
grep -q '"latency": {' "$STATS" || fail "stats frame lacks the latency section"
grep -q '"job_us"' "$STATS" || fail "stats latency lacks the job_us histogram"
grep -q '"p99"' "$STATS" || fail "stats latency lacks percentiles"
assert_json_field "$STATS" snapshot_load_failures 0 \
  "stats frame lacks snapshot_load_failures"

# The periodic metrics dump (1s cadence) must materialize with the
# completed jobs counted and percentiles present.
FOUND=0
for _ in $(seq 40); do
  if [ -f "$DUMP" ] && grep -q '"jobs_completed"' "$DUMP"; then
    DONE=$(json_field_value "$DUMP" jobs_completed)
    if [ -n "$DONE" ] && [ "$DONE" -ge 20 ]; then
      FOUND=1
      break
    fi
  fi
  sleep 0.25
done
[ "$FOUND" -eq 1 ] || fail "metrics dump never reported the completed jobs"
grep -q '"p99"' "$DUMP" || fail "metrics dump lacks percentiles"
grep -q '"histograms"' "$DUMP" || fail "metrics dump lacks the histograms section"

stop_server

echo "metrics smoke OK"
