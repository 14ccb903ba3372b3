# Shared helpers for the CI smoke scripts. Source this after `set
# -euo pipefail`:
#
#   source "$(dirname "$0")/lib.sh"
#
# Provides:
#   $BIN                 — the binary under test (override with BIN=...)
#   $WORK                — a fresh directory for the script's sockets,
#                          state dirs and scratch files, removed on exit
#   fail MSG             — print "FAIL: MSG" and exit 1
#   start_server SOCK .. — start `$BIN serve --listen SOCK ..` in the
#                          background, wait for the socket, track the pid
#   stop_server [PID]    — kill + reap one tracked server (default: the
#                          most recent) and remove its socket file
#   wait_for_socket SOCK — wait until SOCK exists (or fail)
#   assert_json_field FILE FIELD VALUE_RE [MSG]
#                        — grep a JSON-lines file for "FIELD": VALUE_RE
#   json_field_value FILE FIELD
#                        — print the first numeric value of FIELD
#   CLEANUP_DIRS+=(..)   — extra directories to remove on exit
#
# Every tracked server is killed *and reaped* by the EXIT trap, so a
# failing assertion can never leak a background process or hang the
# runner.

BIN=${BIN:-./target/release/rect-addr}
SERVER_PIDS=()
SERVER_SOCKS=()
# Short, so socket paths under it stay inside the 108-byte limit.
WORK=$(mktemp -d "${TMPDIR:-/tmp}/rect-addr-ci.XXXXXX")
CLEANUP_DIRS=("$WORK")

fail() {
  echo "FAIL: $*"
  exit 1
}

wait_for_socket() {
  local sock=$1
  for _ in $(seq 40); do
    [ -S "$sock" ] && return 0
    sleep 0.25
  done
  fail "server socket $sock never appeared"
}

# start_server SOCK [serve args...] — the socket path comes first, any
# extra `serve` options follow. Sets LAST_SERVER_PID.
start_server() {
  local sock=$1
  shift
  rm -f "$sock"
  "$BIN" serve --listen "$sock" "$@" &
  LAST_SERVER_PID=$!
  SERVER_PIDS+=("$LAST_SERVER_PID")
  SERVER_SOCKS+=("$sock")
  wait_for_socket "$sock"
}

# stop_server [PID] — kill + reap one tracked server; with no argument,
# the most recently started one.
stop_server() {
  local pid=${1:-${SERVER_PIDS[${#SERVER_PIDS[@]}-1]}}
  local pids=("${SERVER_PIDS[@]}") socks=("${SERVER_SOCKS[@]}")
  SERVER_PIDS=()
  SERVER_SOCKS=()
  local i
  for i in "${!pids[@]}"; do
    if [ "${pids[$i]}" = "$pid" ]; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
      rm -f "${socks[$i]}"
    else
      SERVER_PIDS+=("${pids[$i]}")
      SERVER_SOCKS+=("${socks[$i]}")
    fi
  done
}

# assert_json_field FILE FIELD VALUE_RE [MSG] — the file must contain a
# line with `"FIELD": VALUE_RE` (extended regex on the value side).
assert_json_field() {
  local file=$1 field=$2 value=$3
  grep -Eq "\"$field\": $value" "$file" \
    || fail "${4:-$file lacks \"$field\": $value}"
}

# json_field_value FILE FIELD — first numeric value of FIELD, or empty.
json_field_value() {
  sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

lib_cleanup() {
  local pid
  for pid in ${SERVER_PIDS[@]+"${SERVER_PIDS[@]}"}; do
    if kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  local sock
  for sock in ${SERVER_SOCKS[@]+"${SERVER_SOCKS[@]}"}; do
    rm -f "$sock"
  done
  local d
  for d in ${CLEANUP_DIRS[@]+"${CLEANUP_DIRS[@]}"}; do
    rm -rf "$d"
  done
}
trap lib_cleanup EXIT
