#!/usr/bin/env bash
# Restart warm-start smoke: run the socket server with --state-dir, pump a
# SAT-hard job stream, kill the process, restart it against the same
# directory, and assert (1) the restarted server's v2 stats frame reports
# restored sessions and (2) the second run's responses sum to fewer SAT
# conflicts than the first: run 1 proves the class, and the snapshot's
# proved session (stored without a learnt core) answers run 2 with no SAT
# search.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK=/tmp/rect-addr-restart.sock
STATE=/tmp/rect-addr-restart-state
JOBS=/tmp/rect-addr-restart-jobs.jsonl
OUT1=/tmp/rect-addr-restart-1.jsonl
OUT2=/tmp/rect-addr-restart-2.jsonl
CLEANUP_FILES+=("$JOBS" "$OUT1" "$OUT2")
CLEANUP_DIRS+=("$STATE")

rm -rf "$STATE"

# A rank-gap instance whose SAP descent costs about two thousand
# conflicts, inside the 2500-conflict per-job budget.
MATRIX=$("$BIN" gen gap 14 14 3 3 | tr '\n' ';' | sed 's/;*$//')
{
  echo '{"hello": 2}'
  echo '{"stats": true}'
  for i in $(seq 12); do
    echo "{\"id\": \"g$i\", \"matrix\": \"$MATRIX\", \"conflicts\": 2500}"
  done
} > "$JOBS"

# Run 1: day-zero cold state dir.
start_server "$SOCK" --workers 1 --state-dir "$STATE" --snapshot-every 1
timeout 180 "$BIN" client "$SOCK" < "$JOBS" > "$OUT1"
stop_server
assert_json_field "$OUT1" persisted_sessions 0 \
  "first boot must report zero persisted sessions"
test -f "$STATE/engine.snapshot" \
  || fail "periodic flush left no snapshot behind"

# Run 2: a genuinely restarted process against the same state dir.
start_server "$SOCK" --workers 1 --state-dir "$STATE" --snapshot-every 1
timeout 180 "$BIN" client "$SOCK" < "$JOBS" > "$OUT2"
stop_server

assert_json_field "$OUT2" persisted_sessions '[1-9]' \
  "restarted server must report restored sessions"

sum_conflicts() {
  grep -o '"conflicts": [0-9]*' "$1" | awk '{s+=$2} END {print s+0}'
}
C1=$(sum_conflicts "$OUT1")
C2=$(sum_conflicts "$OUT2")
echo "run 1 total conflicts: $C1; run 2 (restarted): $C2"
test "$C1" -gt 0 || fail "first run must spend SAT conflicts"
test "$C2" -lt "$C1" \
  || fail "restarted run must spend fewer conflicts than the first"
echo "restart warm-start smoke OK"
