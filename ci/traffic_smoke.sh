#!/usr/bin/env bash
# Traffic smoke: the circuit-level workload path end to end against a
# live socket server. (1) A 3-layer v2 `schedule` frame must stream
# three per-layer responses plus a summary whose cross-layer cache hits
# are nonzero — layer 2 repeats layer 0, so the sequential schedule
# runner must harvest the reuse. (2) The stats frame must count the
# schedule and its layers. (3) A seeded `rect-addr traffic` stream must
# replay byte-identically and solve through the same server. Hardening
# (trap-reaped server, no temp leaks, `timeout` instead of hangs) comes
# from ci/lib.sh.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK=$WORK/traffic.sock
IN=$WORK/traffic-in.jsonl
OUT=$WORK/traffic-out.jsonl
GEN_A=$WORK/traffic-gen-a.jsonl
GEN_B=$WORK/traffic-gen-b.jsonl

start_server "$SOCK"

# One v2 session: a 3-layer schedule (layer 2 == layer 0). The client
# half-closes after stdin, so the summary drains too.
{
  echo '{"hello": 2}'
  echo '{"schedule": "smoke", "layers": [["1100", "0011", "1100", "0011"], ["0110", "1001", "0110", "1001"], ["1100", "0011", "1100", "0011"]]}'
} > "$IN"
timeout 120 "$BIN" client "$SOCK" < "$IN" > "$OUT"

cat "$OUT"
# Every layer answered under its schedule-scoped id, in order.
grep -q '"id": "smoke/L0", "ok": true' "$OUT" || fail "layer 0 unanswered"
grep -q '"id": "smoke/L1", "ok": true' "$OUT" || fail "layer 1 unanswered"
grep -q '"id": "smoke/L2", "ok": true' "$OUT" || fail "layer 2 unanswered"
# The schedule summary reports the cross-layer reuse: >= 1 cache hit
# (layer 2 repeats layer 0 byte-for-byte).
grep '"schedule": "smoke", "done": true' "$OUT" | grep -q '"solved": 3' \
  || fail "schedule summary must report 3 solved layers"
grep '"schedule": "smoke", "done": true' "$OUT" | grep -Eq '"cache_hits": [1-9]' \
  || fail "schedule summary must harvest the cross-layer cache hit"
# The session summary tallies the schedule alongside the layer totals.
grep '"summary": true' "$OUT" | grep -q '"schedule_jobs": 1' \
  || fail "session summary lacks schedule_jobs"
grep '"summary": true' "$OUT" | grep -q '"schedule_layers": 3' \
  || fail "session summary lacks schedule_layers"

# A second session probes the service-wide stats counters after the
# first fully drained (probing inside the schedule's own session would
# race its still-running layers).
{
  echo '{"hello": 2}'
  echo '{"stats": true}'
} > "$IN"
timeout 120 "$BIN" client "$SOCK" < "$IN" > "$OUT"
grep '"stats": true' "$OUT" | grep -q '"schedule_jobs": 1' \
  || fail "stats frame lacks schedule_jobs"
grep '"stats": true' "$OUT" | grep -q '"schedule_layers": 3' \
  || fail "stats frame lacks schedule_layers"

# Seeded generator: byte-identical replay, and the stream solves through
# the same live server.
"$BIN" traffic bursty --seed 11 --count 16 > "$GEN_A"
"$BIN" traffic bursty --seed 11 --count 16 > "$GEN_B"
cmp "$GEN_A" "$GEN_B" || fail "traffic stream is not reproducible"
test "$(wc -l < "$GEN_A")" -eq 16
timeout 120 "$BIN" client "$SOCK" < "$GEN_A" > "$OUT"
grep '"summary": true' "$OUT" | grep -q '"solved": 16' \
  || fail "replayed traffic stream must fully solve"

stop_server

echo "traffic smoke OK"
