#!/usr/bin/env bash
# Certificate smoke: the verified-answers pipeline end-to-end through the
# shipped binary.
#   1. `solve --certify` on the paper's Fig. 1b matrix writes a
#      self-contained (DIMACS, DRAT) pair and `certcheck` verifies it;
#   2. corrupting the trace flips the verdict (exit 1, "s NOT VERIFIED")
#      — the mutation half of the acceptance criterion;
#   3. a v2 socket session that opts into `certificate` at handshake gets
#      the proof object on its certified response, the stats frame counts
#      it in `certified_jobs`, and a session *without* the opt-in never
#      sees the field;
#   4. a certify job that resumes a warm session learnt without proof
#      logging still gets its certificate, and the server keeps answering.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

SOCK=$WORK/certify.sock
PREFIX=$WORK/certify
JOBS=$WORK/certify-jobs.jsonl
OUT=$WORK/certify-out.jsonl

# Fig. 1b: depth 5 over a rank floor of 4 — optimality rests on an UNSAT
# answer, so the certified solve must export its refutation.
FIG1B='101100
010011
101010
010101
111000
000111'

printf '%s\n' "$FIG1B" | timeout 120 "$BIN" solve - --certify "$PREFIX" \
  | grep -q 'because depth 4 is UNSAT' \
  || fail "certified solve did not report the refuted bound"
[ -s "$PREFIX.cnf" ] && [ -s "$PREFIX.drat" ] \
  || fail "certificate files missing or empty"

# The embedded checker accepts the genuine pair...
timeout 120 "$BIN" certcheck "$PREFIX.cnf" "$PREFIX.drat" | grep -q '^s VERIFIED' \
  || fail "certcheck rejected a genuine certificate"

# ...and rejects a truncated trace with exit 1 and the NOT VERIFIED verdict.
sed '$d' "$PREFIX.drat" > "$PREFIX.drat.bad"
if OUTPUT=$(timeout 120 "$BIN" certcheck "$PREFIX.cnf" "$PREFIX.drat.bad"); then
  fail "certcheck accepted a truncated proof"
else
  CODE=$?
  [ "$CODE" -eq 1 ] || fail "truncated proof exited $CODE, want 1"
fi
printf '%s\n' "$OUTPUT" | grep -q '^s NOT VERIFIED' \
  || fail "truncated proof lacked the NOT VERIFIED verdict: $OUTPUT"

# Socket server: the certificate must ride v2 responses when (and only
# when) the handshake opted in, and the stats frame must count it.
start_server "$SOCK"

MATRIX='101100;010011;101010;010101;111000;000111'
{ echo '{"hello": 2, "certificate": true}'
  echo "{\"id\": \"c0\", \"matrix\": \"$MATRIX\", \"certify\": true}"
} > "$JOBS"
timeout 120 "$BIN" client "$SOCK" < "$JOBS" > "$OUT"

assert_json_field "$OUT" certificate true \
  "hello ack lacks the certificate capability"
grep '"id": "c0"' "$OUT" | grep -q '"certificate": {"bound": 4' \
  || fail "opted-in certified response lacks the certificate object"
grep '"id": "c0"' "$OUT" | grep -q '"drat"' \
  || fail "wire certificate lacks the DRAT trace"

# A second session (after the first fully drained): the stats frame must
# now count the certified job.
printf '{"hello": 2}\n{"stats": true}\n' | timeout 120 "$BIN" client "$SOCK" > "$OUT"
assert_json_field "$OUT" certified_jobs '[1-9]' \
  "stats frame did not count the certified job"

# Without the handshake flag the proof stays off the wire entirely.
{ echo '{"hello": 2}'
  echo "{\"id\": \"plain\", \"matrix\": \"$MATRIX\", \"certify\": true}"
} > "$JOBS"
timeout 120 "$BIN" client "$SOCK" < "$JOBS" > "$OUT"
grep '"id": "plain"' "$OUT" | grep -q '"certificate"' \
  && fail "certificate leaked onto a non-opted connection"
grep '"id": "plain"' "$OUT" | grep -q '"ok": true' \
  || fail "non-opted certify job must still solve"

# Two starved jobs park a warm session learnt without proof logging; the
# certify job that resumes it must still carry its certificate, and the
# server must go on answering (the client's timeout catches a wedge).
GAP=$("$BIN" gen gap 14 14 3 5 | tr '\n' ';' | sed 's/;*$//')
{ echo '{"hello": 2, "certificate": true}'
  echo "{\"id\": \"w1\", \"matrix\": \"$GAP\", \"conflicts\": 1}"
  echo "{\"id\": \"w2\", \"matrix\": \"$GAP\", \"conflicts\": 1}"
  echo "{\"id\": \"wc\", \"matrix\": \"$GAP\", \"certify\": true}"
  echo '{"id": "after", "matrix": "10;01"}'
} > "$JOBS"
timeout 120 "$BIN" client "$SOCK" < "$JOBS" > "$OUT" \
  || fail "the server stopped answering after a warm certify job"
grep '"id": "wc"' "$OUT" | grep -q '"certificate": {"bound"' \
  || fail "a certify job that resumed a warm session lacks its certificate"
grep -q '"id": "after"' "$OUT" \
  || fail "the job after the warm certify job was not answered"

stop_server

echo "certify smoke OK"
