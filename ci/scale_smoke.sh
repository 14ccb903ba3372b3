#!/usr/bin/env bash
# Scaling smoke: the horizontally scaled serving tier end to end.
#   1. A `serve --listen` server must hold 2048 idle connections (via
#      `rect-addr idle` ballast) while 4 active clients each solve a
#      25-job stream, and its v2 stats frame must report
#      open_connections >= 2048.
#   2. A second process started against the same --state-dir must come
#      up as a snapshot *reader*, adopt the first process's snapshot
#      (persisted_sessions >= 1, snapshot_generation >= 1), and serve
#      jobs concurrently with the writer.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK1=$WORK/scale-1.sock
SOCK2=$WORK/scale-2.sock
STATE=$WORK/scale-state
HOLD=$WORK/scale.hold
IDLE_OUT=$WORK/scale-idle.out
WARM=$WORK/scale-warm.jsonl

IDLE_PID=""
release_ballast() {
  # EOF on the ballast's stdin: kill the `tail` that holds the pipe's
  # write end. (A fifo kept on a shell fd doesn't work here — every
  # later-started background process would inherit the write end and
  # keep the ballast alive; the pipeline's pipe belongs to tail alone.)
  pkill -f "tail -f $HOLD" 2>/dev/null || true
}
scale_cleanup() {
  release_ballast
  if [ -n "$IDLE_PID" ] && kill -0 "$IDLE_PID" 2>/dev/null; then
    kill "$IDLE_PID" 2>/dev/null || true
    wait "$IDLE_PID" 2>/dev/null || true
  fi
  lib_cleanup
}
trap scale_cleanup EXIT

# Writer instance: the first process on the state dir takes its writer lock.
start_server "$SOCK1" --state-dir "$STATE" --snapshot-every 1
SERVER1_PID=$LAST_SERVER_PID

# 2048 idle connections held by the ballast client. Its stdin is a pipe
# whose write end is owned by a `tail -f` on an empty hold file (never
# writes, never exits) — release_ballast kills the tail, the ballast
# sees EOF, drops its connections, and exits.
: > "$HOLD"
tail -f "$HOLD" | "$BIN" idle "$SOCK1" 2048 > "$IDLE_OUT" &
IDLE_PID=$!
for _ in $(seq 120); do
  grep -q '^held 2048$' "$IDLE_OUT" 2>/dev/null && break
  kill -0 "$IDLE_PID" 2>/dev/null || fail "idle ballast client died: $(cat "$IDLE_OUT")"
  sleep 0.5
done
grep -q '^held 2048$' "$IDLE_OUT" || fail "ballast never reached 2048 connections"

# 4 active clients, 25 jobs each, all concurrent with the ballast.
for i in 1 2 3 4; do
  { for j in $(seq 25); do
      if [ $(((i + j) % 2)) -eq 0 ]; then
        echo "{\"id\": \"c$i-$j\", \"matrix\": \"10;01\"}"
      else
        echo "{\"id\": \"c$i-$j\", \"matrix\": \"01;10\"}"
      fi
    done } > "$WORK/scale-jobs$i.jsonl"
  timeout 120 "$BIN" client "$SOCK1" \
    < "$WORK/scale-jobs$i.jsonl" \
    > "$WORK/scale-out$i.jsonl" &
  eval "CLIENT$i=\$!"
done
for i in 1 2 3 4; do
  eval "wait \$CLIENT$i" || fail "active client $i failed under ballast"
  assert_json_field "$WORK/scale-out$i.jsonl" solved 25 \
    "active client $i must solve all 25 jobs"
done

# Warm the shared state with SAT-hard rank-gap sessions so the snapshot
# has something worth adopting (same instance family as the restart
# smoke; the 2500-conflict budget leaves resumable warm sessions).
MATRIX=$("$BIN" gen gap 12 12 4 0 | tr '\n' ';' | sed 's/;*$//')
{ echo '{"hello": 2}'
  for j in $(seq 8); do
    echo "{\"id\": \"warm$j\", \"matrix\": \"$MATRIX\", \"conflicts\": 2500}"
  done } > "$WARM"
timeout 180 "$BIN" client "$SOCK1" < "$WARM" > "$WORK/scale-warm-out.jsonl"
for _ in $(seq 40); do
  [ -f "$STATE/engine.snapshot" ] && break
  sleep 0.25
done
[ -f "$STATE/engine.snapshot" ] || fail "writer never flushed a snapshot"

# The writer's stats frame counts the ballast.
printf '{"hello": 2}\n{"stats": true}\n' \
  | timeout 120 "$BIN" client "$SOCK1" > "$WORK/scale-stats1.jsonl"
OPEN=$(json_field_value "$WORK/scale-stats1.jsonl" open_connections)
[ -n "$OPEN" ] || fail "stats frame lacks open_connections"
[ "$OPEN" -ge 2048 ] || fail "open_connections $OPEN < 2048 under ballast"

# Second process, same state dir: it must come up as a reader and adopt
# the writer's snapshot while the writer keeps running.
start_server "$SOCK2" --state-dir "$STATE" --snapshot-every 1
printf '{"hello": 2}\n{"stats": true}\n' \
  | timeout 120 "$BIN" client "$SOCK2" > "$WORK/scale-stats2.jsonl"
SESS=$(json_field_value "$WORK/scale-stats2.jsonl" persisted_sessions)
[ -n "$SESS" ] && [ "$SESS" -ge 1 ] \
  || fail "second process adopted no persisted sessions (got '$SESS')"
GEN=$(json_field_value "$WORK/scale-stats2.jsonl" snapshot_generation)
[ -n "$GEN" ] && [ "$GEN" -ge 1 ] \
  || fail "second process reports no snapshot generation (got '$GEN')"

# Both processes serve concurrently against the same state dir.
timeout 120 "$BIN" client "$SOCK1" < "$WORK/scale-jobs1.jsonl" \
  > "$WORK/scale-dual-a.jsonl" &
DUAL_A=$!
timeout 120 "$BIN" client "$SOCK2" < "$WORK/scale-jobs2.jsonl" \
  > "$WORK/scale-dual-b.jsonl" &
DUAL_B=$!
wait "$DUAL_A" || fail "writer-side client failed during dual serving"
wait "$DUAL_B" || fail "reader-side client failed during dual serving"
assert_json_field "$WORK/scale-dual-a.jsonl" solved 25 \
  "writer instance must keep solving during dual serving"
assert_json_field "$WORK/scale-dual-b.jsonl" solved 25 \
  "reader instance must solve during dual serving"

# Release the ballast and shut down cleanly.
release_ballast
wait "$IDLE_PID" 2>/dev/null || true
IDLE_PID=""
stop_server
stop_server "$SERVER1_PID"

echo "scale smoke OK"
