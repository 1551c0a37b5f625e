#!/bin/sh
# Alternating experiment pairs: a base revision against the working tree.
#
#   sh scripts/exp_pairs.sh REV ID SEED_FROM SEED_TO
#
# Exports REV with `git archive` into a temporary directory outside the
# checkout and builds `rn_cli` there and here once each.  Then for each
# seed from SEED_FROM to SEED_TO it runs `rn_cli experiment ID
# --no-cache --jobs 1` once in that tree ("base") and once in this
# checkout ("change"), flipping which side goes first on every pair so
# that drift in the machine's speed falls on both sides alike.
# Experiments are deterministic, so the seeds only number the pairs;
# the range sets how many there are.  perfbench does not run E2, E3 or
# A1, which is what this script is for.
#
# Prints one wall-clock row per pair (base -> change, seconds), then each
# side's median and quartiles, the change in the median and in how many
# pairs the change was lower, and whether the two sides printed the same
# tables.  Exits 1 if a run fails.  Each run is bounded by `timeout`
# (30 minutes), and the temporary tree is removed on exit.
#
# Example: five E3 pairs of HEAD~1 against the working tree:
#
#   sh scripts/exp_pairs.sh HEAD~1 E3 1 5

set -eu

if [ $# -ne 4 ]; then
  echo "usage: sh scripts/exp_pairs.sh REV ID SEED_FROM SEED_TO" >&2
  exit 2
fi
rev=$1 id=$2 from=$3 to=$4

here=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$here" rev-parse --short=12 "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git -C "$here" archive "$base_sha" | tar -x -C "$tmp/base"

for dir in "$tmp/base" "$here"; do
  (cd "$dir" && dune build --root . ./bin/rn_cli.exe 2> "$tmp/err") || {
    cat "$tmp/err" >&2
    echo "exp_pairs: build failed in $dir" >&2
    exit 1
  }
done

# run SIDE DIR SEED: one experiment run, its wall-clock seconds appended
# to $tmp/SIDE.txt and its tables left in $tmp/SIDE.out.
run() {
  t0=$(date +%s%N)
  (cd "$2" && timeout 1800 ./_build/default/bin/rn_cli.exe experiment "$id" --no-cache \
    --jobs 1 > "$tmp/$1.out" 2> "$tmp/err") || {
    cat "$tmp/err" >&2
    echo "exp_pairs: $1 run failed at seed $3" >&2
    exit 1
  }
  t1=$(date +%s%N)
  echo "$3 $(( (t1 - t0) / 1000000 ))" >> "$tmp/$1.txt"
}

echo "== base $base_sha vs working tree, $id, seeds $from..$to" >&2
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

if cmp -s "$tmp/base.out" "$tmp/change.out"; then same=yes; else same=no; fi

python3 - "$tmp/base.txt" "$tmp/change.txt" "$id" "$same" <<'EOF'
import statistics
import sys

def load(path):
    return [(int(s), int(ms) / 1e3) for s, ms in (l.split() for l in open(path))]

base, change, exp, same = load(sys.argv[1]), load(sys.argv[2]), sys.argv[3], sys.argv[4]

print(f"seed  first   {exp} wall-clock (s)")
for i, ((seed, b), (_, c)) in enumerate(zip(base, change)):
    first = "base" if i % 2 == 0 else "change"
    print(f"{seed:>4}  {first:<6}  {b:>8.3f} -> {c:>8.3f}")

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

bs = [b for _, b in base]
cs = [c for _, c in change]
bq, cq = quart(bs), quart(cs)
wins = sum(1 for x, y in zip(bs, cs) if y < x)
delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
print()
print(f"base   median {bq[1]:.3f} [{bq[0]:.3f}, {bq[2]:.3f}] s")
print(f"change median {cq[1]:.3f} [{cq[0]:.3f}, {cq[2]:.3f}] s")
print(f"delta {delta:+.1f}%, lower in {wins}/{len(bs)}; tables identical: {same}")
EOF
