#!/bin/sh
# Adversary-kernel equivalence smoke: the CI-facing proof that the
# word-parallel adversary kernel is pure evaluation strategy, sibling of
# shard_smoke.sh.
#
#   scripts/adv_smoke.sh [SIZES]
#
# For each deterministic policy (spiteful, jamming, all) runs the S1
# beacon scenario in --check mode (deterministic columns only) across
# --adv-kernel on/auto and byte-compares every table against the
# policy's --adv-kernel off reference: the mask-algebra kernel and the
# scalar per-edge walk are evaluation strategies for one semantics.
#
# bernoulli keeps its scalar path by design (the per-edge draw sequence
# IS the semantics) — one pair checks that --adv-kernel on is a no-op
# for it rather than an error.
#
# SIZES is a comma-separated n grid (default small enough for CI).
#
# RN_CLI overrides how the CLI is invoked (CI uses
# "opam exec -- dune exec bin/rn_cli.exe --").

SMOKE_NAME=adv_smoke
. "$(dirname "$0")/smoke_lib.sh"

sizes=${1:-512,1024}

run() { # run OUTFILE EXTRA_ARGS...
  out=$1; shift
  rn scale --check --sizes "$sizes" "$@" > "$out" 2> "$out.err"
}

for adv in spiteful jamming all; do
  note "$adv: reference (--adv-kernel off)"
  run "$tmp/$adv.ref" --adversary "$adv" --adv-kernel off
  for mode in on auto; do
    run "$tmp/$adv.$mode" --adversary "$adv" --adv-kernel "$mode"
    assert_same "$tmp/$adv.ref" "$tmp/$adv.$mode" "$adv --adv-kernel $mode differs from scalar"
    note "$adv: --adv-kernel $mode byte-identical"
  done
done

note "bernoulli:0.5: --adv-kernel on is a no-op (no kernel, scalar draws)"
run "$tmp/bern.ref" --adversary bernoulli:0.5 --adv-kernel off
run "$tmp/bern.on" --adversary bernoulli:0.5 --adv-kernel on
assert_same "$tmp/bern.ref" "$tmp/bern.on" "bernoulli tables differ across --adv-kernel"

echo "adv_smoke: OK (sizes=$sizes: spiteful/jamming/all x on/auto = scalar)"
