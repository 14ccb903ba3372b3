#!/usr/bin/env bash
# Serve-socket smoke: start the socket server, pump 50 v1 job lines
# through `rect-addr client`, assert the drained summary. 49 jobs are
# permuted duplicates of one 2x2 class — the shared cache must answer 49
# hits. Hardening (trap-reaped server, no temp leaks, `timeout` instead
# of hangs) comes from ci/lib.sh.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK=$WORK/serve.sock
JOBS=$WORK/serve-jobs.jsonl
OUT=$WORK/serve-out.jsonl

start_server "$SOCK"

{ for i in $(seq 50); do
    if [ $((i % 2)) -eq 0 ]; then
      echo "{\"id\": \"j$i\", \"matrix\": \"10;01\"}"
    else
      echo "{\"id\": \"j$i\", \"matrix\": \"01;10\"}"
    fi
  done } > "$JOBS"

timeout 120 "$BIN" client "$SOCK" < "$JOBS" > "$OUT"

stop_server

tail -n 1 "$OUT"
assert_json_field "$OUT" summary true
assert_json_field "$OUT" solved 50
assert_json_field "$OUT" cache_hits 49
test "$(wc -l < "$OUT")" -eq 51

# Hang-up: kill a client while its first job runs and two more wait in
# the queue. A peer gone both ways can read no answer, so the server must
# cancel the two queued jobs at once (a stats frame taken over a second
# connection shows an empty queue), and the event loop must not wake on
# that socket's hang-up over and over: over the next wall second the
# server may spend its one worker's core, not a second core on the loop.
start_server "$SOCK" --workers 1
: > "$JOBS"
for seed in 3 4 5; do
  HARD=$("$BIN" gen rand 13 13 60 "$seed" | tr '\n' ';' | sed 's/;*$//')
  echo "{\"id\": \"hard$seed\", \"matrix\": \"$HARD\", \"budget_ms\": 3000}" >> "$JOBS"
done
STATUS=0
timeout 0.3 "$BIN" client "$SOCK" < "$JOBS" > /dev/null || STATUS=$?
[ "$STATUS" -eq 124 ] || fail "client exited with status $STATUS before it was killed"
sleep 0.2
printf '{"hello": 2}\n{"stats": true}\n' | timeout 10 "$BIN" client "$SOCK" > "$OUT"
QUEUED=$(sed -n 's/.*"queue": {"depth": [0-9]*, "len": \([0-9]*\)}.*/\1/p' "$OUT")
echo "jobs still queued 0.2 s after the hang-up: $QUEUED"
[ "$QUEUED" = 0 ] || fail "the hung-up client's jobs are still queued ($QUEUED)"
# utime + stime: fields 14 and 15, the 12th and 13th after "(comm) ".
cpu_ticks() { sed 's/.*) //' "/proc/$LAST_SERVER_PID/stat" | awk '{print $12 + $13}'; }
BEFORE=$(cpu_ticks)
sleep 1
AFTER=$(cpu_ticks)
SPENT_MS=$(( (AFTER - BEFORE) * 1000 / $(getconf CLK_TCK) ))
echo "server CPU in the wall second after the hang-up: $SPENT_MS ms"
[ "$SPENT_MS" -lt 1500 ] \
  || fail "server spent $SPENT_MS ms of CPU in 1 s after its client hung up"
stop_server

echo "serve-socket smoke OK"
