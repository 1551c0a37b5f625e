#!/bin/sh
# Resume-shard equivalence smoke: the CI-facing proof that the delivery
# kernel and resume-loop sharding are pure evaluation strategy.
#
#   scripts/shard_smoke.sh [SIZES]
#
# Runs the S1 beacon scenario in --check mode (deterministic columns
# only: world shape and send/delivery/collision counts, no timings) with
# the default execution, once with the kernel forced off (the scalar
# per-edge path), once with it forced on, and then across
# --resume-shards 1/2/4 x --kernel on/off (resume kernel forced on, so
# sharding engages below the auto threshold).  All tables must be
# byte-identical: the dense kernel, the scalar walk, and the sharded
# resume loop are evaluation strategies for one semantics.
#
# SIZES is a comma-separated n grid (default small enough for CI).
#
# RN_CLI overrides how the CLI is invoked (CI uses
# "opam exec -- dune exec bin/rn_cli.exe --").

SMOKE_NAME=shard_smoke
. "$(dirname "$0")/smoke_lib.sh"

sizes=${1:-512,1024,2048}

run() { # run OUTFILE EXTRA_ARGS...
  out=$1; shift
  rn scale --check --sizes "$sizes" "$@" > "$out" 2> "$out.err"
}

note "reference: default execution (auto kernel)"
run "$tmp/ref.out"

note "--kernel off (scalar per-edge path)"
run "$tmp/off.out" --kernel off
assert_same "$tmp/ref.out" "$tmp/off.out" "scalar-path table differs from reference"

note "--kernel on (forced kernel)"
run "$tmp/on.out" --kernel on
assert_same "$tmp/ref.out" "$tmp/on.out" "--kernel on table differs from reference"

for rs in 1 2 4; do
  for k in on off; do
    note "--resume-shards $rs --resume-kernel on --kernel $k"
    run "$tmp/rs$rs-$k.out" --resume-shards "$rs" --resume-kernel on --kernel "$k"
    assert_same "$tmp/ref.out" "$tmp/rs$rs-$k.out" \
      "--resume-shards $rs --kernel $k table differs from reference"
  done
done

echo "shard_smoke: OK (sizes=$sizes: default = scalar = forced kernel = resume-shards 1/2/4 x kernel on/off, byte-identical)"
