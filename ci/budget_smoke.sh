#!/usr/bin/env bash
# Budget smoke: a job at the paper's 100×100 scale answers inside a 5 ms
# `budget_ms`. For three random 100×100 matrices (5%, 10% and 20% ones),
# `batch` with budget_ms 5 must answer ok and proved, with the depth it
# finds at budget_ms 500, and report `millis` of at most 7: the budget
# plus max(2 ms, 10%) of slack. The real-rank floor runs before every
# phase and cannot be cancelled, so this bounds its cost at that size.
#
# Then `gen gap 40 40 15 1` (464 ones, floor 26), whose SAT encoder takes
# longer to build than either budget: at budget_ms 50 and 500 the job
# must answer ok, with depth at most 28, in at most 55 and 550 ms (the
# same slack). That bounds what follows the deadline: the rest of the
# cancelled build and the drop of the partial solver. That tail scales
# with the host's speed: on a 2-vCPU x86-64 host the 50 ms row read at
# most 53.02 ms over 40 runs, so a host about 2x slower in that step would
# miss 55 ms with no regression in the code.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

BUDGET_MS=5
LIMIT_MS=7

# answer MATRIX BUDGET_MS OUT — one job through `batch`; it must be
# answered, and proved.
answer() {
  printf '{"id": "b", "matrix": "%s", "budget_ms": %s}\n' "$1" "$2" \
    | timeout 60 "$BIN" batch - > "$3"
  assert_json_field "$3" ok true "budget $2 ms: job failed: $(head -n 1 "$3" | cut -c1-200)"
  assert_json_field "$3" proved_optimal true "budget $2 ms: answer not proved"
}

for args in "100 100 5 77001" "100 100 10 77002" "100 100 20 77003"; do
  # shellcheck disable=SC2086 # the gen arguments are meant to split
  MATRIX=$("$BIN" gen rand $args | tr '\n' ';' | sed 's/;*$//')
  answer "$MATRIX" 500 "$WORK/slow.jsonl"
  answer "$MATRIX" "$BUDGET_MS" "$WORK/fast.jsonl"
  slow=$(json_field_value "$WORK/slow.jsonl" depth)
  fast=$(json_field_value "$WORK/fast.jsonl" depth)
  [ "$fast" = "$slow" ] \
    || fail "gen rand $args: depth $fast at $BUDGET_MS ms but $slow at 500 ms"
  millis=$(sed -n 's/.*"millis": \([0-9.]*\).*/\1/p' "$WORK/fast.jsonl" | head -n 1)
  [ -n "$millis" ] || fail "gen rand $args: response lacks millis"
  awk -v m="$millis" -v l="$LIMIT_MS" 'BEGIN { exit !(m <= l) }' \
    || fail "gen rand $args: answered in $millis ms at budget $BUDGET_MS ms (limit $LIMIT_MS ms)"
  echo "gen rand $args: depth $fast, $millis ms at budget $BUDGET_MS ms"
done

GAP=$("$BIN" gen gap 40 40 15 1 | tr '\n' ';' | sed 's/;*$//')
for row in "50 55" "500 550"; do
  read -r budget limit <<< "$row"
  printf '{"id": "g", "matrix": "%s", "budget_ms": %s}\n' "$GAP" "$budget" \
    | timeout 60 "$BIN" batch - > "$WORK/gap.jsonl"
  assert_json_field "$WORK/gap.jsonl" ok true \
    "gen gap 40 40 15 1 at budget $budget ms: job failed: $(head -n 1 "$WORK/gap.jsonl" | cut -c1-200)"
  depth=$(json_field_value "$WORK/gap.jsonl" depth)
  [ "$depth" -le 28 ] \
    || fail "gen gap 40 40 15 1: depth $depth at budget $budget ms (at most 28)"
  millis=$(sed -n 's/.*"millis": \([0-9.]*\).*/\1/p' "$WORK/gap.jsonl" | head -n 1)
  [ -n "$millis" ] || fail "gen gap 40 40 15 1: response lacks millis"
  awk -v m="$millis" -v l="$limit" 'BEGIN { exit !(m <= l) }' \
    || fail "gen gap 40 40 15 1: answered in $millis ms at budget $budget ms (limit $limit ms)"
  echo "gen gap 40 40 15 1: depth $depth, $millis ms at budget $budget ms"
done

echo "budget smoke OK"
