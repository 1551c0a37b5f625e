#!/bin/sh
# Alternating benchmark pairs: a base revision against the working tree.
#
#   sh scripts/perf_pairs.sh REV WORKLOAD SEED_FROM SEED_TO SECONDS
#
# Exports REV with `git archive` into a temporary directory outside the
# checkout, then for each seed from SEED_FROM to SEED_TO runs
# `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds
# SECONDS` once in that tree ("base") and once in this checkout
# ("change"), flipping which side goes first on every pair so that
# drift in the machine's speed falls on both sides alike.  run.py
# builds the benchmark before each run; after a side's first run that
# build has nothing left to do.
#
# Prints one row per pair with every end-to-end metric that
# BENCHMARK.json names (base -> change), then per metric the median and
# quartiles of each side, the change in the median, and in how many
# pairs the change read better.  Exits 1 if a run fails or reports
# `correct: false`.  The temporary tree is removed on exit, and each
# benchmark run is bounded and reaped by perfbench/run.py itself, so no
# process outlives the script.  Reads, and never writes, perfbench/ and
# BENCHMARK.json.
#
# Example: ten sparse pairs of HEAD~1 against the working tree:
#
#   sh scripts/perf_pairs.sh HEAD~1 beacon-sparse-n64k 1 10 10

set -eu

if [ $# -ne 5 ]; then
  echo "usage: sh scripts/perf_pairs.sh REV WORKLOAD SEED_FROM SEED_TO SECONDS" >&2
  exit 2
fi
rev=$1 workload=$2 from=$3 to=$4 seconds=$5

here=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$here" rev-parse --short=12 "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git -C "$here" archive "$base_sha" | tar -x -C "$tmp/base"

# run SIDE DIR SEED: one benchmark run, its JSON line appended to
# $tmp/SIDE.jsonl as {"seed": S, ...}.
run() {
  out=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
    --seconds "$seconds" 2> "$tmp/err") || {
    cat "$tmp/err" >&2
    echo "perf_pairs: $1 run failed at seed $3" >&2
    exit 1
  }
  line=$(printf '%s\n' "$out" | tail -n 1)
  printf '{"seed": %s, "report": %s}\n' "$3" "$line" >> "$tmp/$1.jsonl"
}

echo "== base $base_sha vs working tree, $workload, seeds $from..$to, ${seconds}s" >&2
s=$from
k=0
while [ "$s" -le "$to" ]; do
  if [ $((k % 2)) -eq 0 ]; then
    run base "$tmp/base" "$s"
    run change "$here" "$s"
  else
    run change "$here" "$s"
    run base "$tmp/base" "$s"
  fi
  s=$((s + 1))
  k=$((k + 1))
done

python3 - "$tmp/base.jsonl" "$tmp/change.jsonl" "$here/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

base = [json.loads(l) for l in open(sys.argv[1])]
change = [json.loads(l) for l in open(sys.argv[2])]
spec = json.load(open(sys.argv[3]))
names = [m["name"] for m in spec["end_to_end"]]
better = {m["name"]: m["better"] for m in spec["end_to_end"]}

bad = [r["seed"] for r in base + change if not r["report"].get("correct", False)]

def val(r, name):
    return r["report"]["metrics"][name]["value"]

print("seed  first   " + "  ".join(f"{n:>22}" for n in names))
for i, (b, c) in enumerate(zip(base, change)):
    first = "base" if i % 2 == 0 else "change"
    cells = [f"{val(b, n):>9.4g} -> {val(c, n):>9.4g}" for n in names]
    print(f"{b['seed']:>4}  {first:<6}  " + "  ".join(cells))

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print()
print(f"{'metric':<12} {'base median [q1, q3]':>28} {'change median [q1, q3]':>28} "
      f"{'delta':>8}  better")
for n in names:
    bs = [val(r, n) for r in base]
    cs = [val(r, n) for r in change]
    bq, cq = quart(bs), quart(cs)
    sign = 1 if better[n] == "lower" else -1
    wins = sum(1 for x, y in zip(bs, cs) if sign * (y - x) < 0)
    delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
    print(f"{n:<12} {bq[1]:>9.4g} [{bq[0]:.4g}, {bq[2]:.4g}] "
          f"{cq[1]:>9.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {delta:>+7.1f}%  "
          f"{better[n]} in {wins}/{len(bs)}")
if bad:
    print(f"perf_pairs: correct: false at seeds {bad}", file=sys.stderr)
    sys.exit(1)
EOF
