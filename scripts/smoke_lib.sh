# Shared helpers for the smoke scripts (store_smoke, scale_smoke,
# quick_gate).  POSIX sh; source it after setting
# SMOKE_NAME:
#
#   SMOKE_NAME=store_smoke
#   . "$(dirname "$0")/smoke_lib.sh"
#
# Provides:
#   $RN_CLI     how to invoke the CLI (overridable; CI uses
#               "opam exec -- dune exec bin/rn_cli.exe --")
#   $tmp        a scratch directory, removed on exit
#   rn ...      run the CLI under the per-step timeout
#   step ...    run any command under the per-step timeout
#   assert_same REF GOT WHAT   byte-compare two files, diff on failure
#   fail MSG / note MSG        uniform failure and progress lines
#   cleanup()   override for extra teardown (e.g. killing a child);
#               runs before the scratch dir is removed
#
# Every CLI invocation goes through `timeout` (SMOKE_STEP_TIMEOUT
# seconds, default 300) so a hung run fails CI in minutes,
# not at the job time limit.

set -eu

SMOKE_NAME=${SMOKE_NAME:-smoke}
RN_CLI=${RN_CLI:-"dune exec bin/rn_cli.exe --"}
SMOKE_STEP_TIMEOUT=${SMOKE_STEP_TIMEOUT:-300}

tmp=$(mktemp -d)
cleanup() { :; }
trap 'cleanup; rm -rf "$tmp"' EXIT

fail() {
  echo "$SMOKE_NAME: FAIL: $*" >&2
  exit 1
}

note() { echo "== $*"; }

step() {
  timeout "$SMOKE_STEP_TIMEOUT" "$@" || {
    rc=$?
    if [ "$rc" -eq 124 ]; then
      fail "step timed out after ${SMOKE_STEP_TIMEOUT}s: $*"
    fi
    fail "step failed (rc=$rc): $*"
  }
}

# shellcheck disable=SC2086  # RN_CLI is intentionally word-split
rn() { step $RN_CLI "$@"; }

assert_same() {
  cmp "$1" "$2" || {
    echo "$SMOKE_NAME: FAIL: $3" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  }
}
