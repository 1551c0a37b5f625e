#!/bin/sh
# Quick gate: every quick experiment's table against a pinned MD5, and
# its wall-clock against a committed baseline.
#
#   sh scripts/quick_gate.sh
#
# scripts/quick_gate.txt holds one line `ID baseline_seconds md5` per
# quick experiment.  Each ID runs once as `experiment ID --no-cache
# --jobs 1`, and fails the gate when the run exits non-zero, when its
# table's MD5 differs from the pinned one, or when it takes more than
# both 4x its baseline and baseline + 1 s (a band for a shared runner's
# noise; perfbench measures speed).  The ids must be those of
# `rn_cli list`, so no experiment goes ungated.  The tables are left in
# quick-gate/ID.txt.
#
# Exits 1 when any check fails, 2 when the gate file is missing,
# unreadable, empty or malformed.  Needs awk, md5sum and GNU date.
# RN_CLI and SMOKE_STEP_TIMEOUT work as in smoke_lib.sh.

SMOKE_NAME=quick_gate
. "$(dirname "$0")/smoke_lib.sh"

gate="$(dirname "$0")/quick_gate.txt"
ids=$(awk 'NF { print $1 }' "$gate" 2> /dev/null | sort)
if [ -z "$ids" ] || awk 'NF && NF != 3 { bad = 1 } END { exit !bad }' "$gate"; then
  echo "quick_gate: missing, unreadable, empty or malformed gate file: $gate" >&2
  exit 2
fi

rc=0
# shellcheck disable=SC2086  # RN_CLI is intentionally word-split
if [ "$ids" != "$($RN_CLI list | sort)" ]; then
  echo "quick_gate: FAIL: the ids in $gate differ from rn_cli list" >&2
  rc=1
fi
mkdir -p quick-gate
while read -r id base md5; do
  [ -n "$id" ] || continue
  t0=$(date +%s.%N)
  code=0
  # shellcheck disable=SC2086
  timeout "$SMOKE_STEP_TIMEOUT" $RN_CLI experiment "$id" --no-cache --jobs 1 \
    < /dev/null > "quick-gate/$id.txt" || code=$?
  t1=$(date +%s.%N)
  got=$(md5sum < "quick-gate/$id.txt" | cut -d ' ' -f 1)
  awk -v id="$id" -v b="$base" -v want="$md5" -v got="$got" -v code="$code" \
    -v t0="$t0" -v t1="$t1" 'BEGIN {
      s = t1 - t0
      if (code != 0) v = "FAIL: exit " code
      else if (got != want) v = "FAIL: md5 " got ", pinned " want
      else if (s > 4 * b && s > b + 1) v = "FAIL: over 4x and +1 s"
      else v = "ok"
      printf "quick_gate: %-4s %8.3f s (baseline %.3f s) %s\n", id, s, b, v
      exit (v != "ok") }' || rc=1
done < "$gate"
exit $rc
