#!/bin/sh
# Scale smoke: the S1 beacon table at every resume shard count against
# a pinned MD5 per adversary policy.
#
#   sh scripts/scale_smoke.sh
#
# For each policy below, runs `scale --check --sizes 512,1024,2048
# --adversary P` (deterministic columns only: world shape and
# send/delivery/collision counts, no timings) at --resume-shards 1, 2
# and 4.  Every table must hash to the policy's pin.  Every beacon
# round has all n fibers to step, so at n >= 1024 shard counts 2 and 4
# cut the resume in that many slices; the engine picks each round's delivery and
# adversary path by cost, and skips the adversary phase on a round whose
# reach the policy declares (silent, all, and spiteful).  The pins cover
# every built-in policy, so every declaration is checked against the
# tables that the adversary phase gives.  Equal digests across shard
# counts and against the pins show that those paths evaluate one
# semantics.
#
# One more pin runs `scale --check --sizes 65536 --adversary
# bernoulli:0.5` at --resume-shards 1 and 2: world construction at the
# size of perfbench's sparse world, which the 512-2048 tables do not
# reach, and the resume in one slice and in two at that size.
#
# Exits 1 on the first mismatch.  RN_CLI and SMOKE_STEP_TIMEOUT work
# as in smoke_lib.sh.

SMOKE_NAME=scale_smoke
. "$(dirname "$0")/smoke_lib.sh"

# check SIZES ADVERSARY RESUME_SHARDS PINNED_MD5
check() {
  rn scale --check --sizes "$1" --adversary "$2" --resume-shards "$3" \
    < /dev/null > "$tmp/table" 2> "$tmp/err"
  got=$(md5sum < "$tmp/table" | cut -d ' ' -f 1)
  [ "$got" = "$4" ] || fail "--sizes $1 $2 --resume-shards $3: md5 $got, pinned $4"
  note "--sizes $1 $2 --resume-shards $3: $got"
}

while read -r adv want; do
  for rs in 1 2 4; do
    check 512,1024,2048 "$adv" "$rs" "$want"
  done
done << 'PINS'
bernoulli:0.5 27c6cc7c2079229c8a5e3fb6a708b61e
harassing:0.5 5d31d6c56bedecdccb8a12c2823a62c8
silent 7470b07f3dbf153ee38786035d01fa1e
spiteful 4aeee9c9b08314da562512972923fb5b
jamming c885c9e823b118b24ea6814323adcb1e
all 4aeee9c9b08314da562512972923fb5b
PINS

for rs in 1 2; do
  check 65536 bernoulli:0.5 "$rs" 15eb50d0722b9fa5f6a73cac20caaeb2
done

echo "scale_smoke: OK (6 policies x --resume-shards 1/2/4 and n=65536 x 1/2 match their pins)"
