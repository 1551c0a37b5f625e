#!/bin/sh
# Scale smoke: the S1 beacon table against a pinned MD5 per adversary
# policy.
#
#   sh scripts/scale_smoke.sh
#
# For each policy below, runs `scale --check --sizes 512,1024,2048
# --adversary P` (deterministic columns only: world shape and
# send/delivery/collision counts, no timings) once.  Every table must
# hash to the policy's pin.  The engine picks each declared-reach
# round's delivery path by cost, and skips the adversary phase on a
# round whose reach the policy declares (silent, all, and spiteful).
# The pins cover every built-in policy, so every declaration is checked
# against the tables that the adversary phase gives.
#
# One more pin runs `scale --check --sizes 65536 --adversary
# bernoulli:0.5`: world construction and the resume at the size of
# perfbench's sparse world, which the 512-2048 tables do not reach.
#
# Exits 1 on the first mismatch.  RN_CLI and SMOKE_STEP_TIMEOUT work
# as in smoke_lib.sh.

SMOKE_NAME=scale_smoke
. "$(dirname "$0")/smoke_lib.sh"

# check SIZES ADVERSARY PINNED_MD5
check() {
  rn scale --check --sizes "$1" --adversary "$2" < /dev/null > "$tmp/table" 2> "$tmp/err"
  got=$(md5sum < "$tmp/table" | cut -d ' ' -f 1)
  [ "$got" = "$3" ] || fail "--sizes $1 $2: md5 $got, pinned $3"
  note "--sizes $1 $2: $got"
}

while read -r adv want; do
  check 512,1024,2048 "$adv" "$want"
done << 'PINS'
bernoulli:0.5 27c6cc7c2079229c8a5e3fb6a708b61e
harassing:0.5 5d31d6c56bedecdccb8a12c2823a62c8
silent 7470b07f3dbf153ee38786035d01fa1e
spiteful 4aeee9c9b08314da562512972923fb5b
jamming c885c9e823b118b24ea6814323adcb1e
all 4aeee9c9b08314da562512972923fb5b
PINS

check 65536 bernoulli:0.5 15eb50d0722b9fa5f6a73cac20caaeb2

echo "scale_smoke: OK (6 policies and n=65536 match their pins)"
