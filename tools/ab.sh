#!/bin/sh
# tools/ab.sh PARENT_BENCH CHANGE_BENCH WORKLOAD [PAIRS] [SECONDS]
#
# Alternating parent/change timing of one benchmark workload: PAIRS
# (default 10) pairs of `amo-benchmark --workload WORKLOAD --seconds
# SECONDS` (default 10) runs, the parent first in odd pairs and the
# change first in even ones. Prints each pair's five end-to-end metrics,
# then per metric the parent's and the change's medians, the parent's
# q1–q3 and how many pairs the change won (the direction of "better" is
# read from BENCHMARK.json). Exits 1 if any run is not `"correct":true`
# with `"failed":0`.
#
#   tools/ab.sh ../parent/target/release/amo-benchmark \
#       ./target/release/amo-benchmark paper_cold 10 10
#
# Each binary runs from the checkout it was built in (the nearest
# directory above it holding BENCHMARK.json and specs/), so it reads its
# own specs and pins; a binary outside any checkout runs from this one.
set -u

[ $# -ge 3 ] && [ $# -le 5 ] || {
    echo "usage: $0 PARENT_BENCH CHANGE_BENCH WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
}
here=$(cd "$(dirname "$0")/.." && pwd)
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
# root_of BIN: the checkout BIN was built in, else this one.
root_of() {
    d=$(dirname "$1")
    while [ "$d" != / ]; do
        [ -f "$d/BENCHMARK.json" ] && [ -d "$d/specs" ] && { echo "$d"; return; }
        d=$(dirname "$d")
    done
    echo "$here"
}
parent=$(abs "$1")
change=$(abs "$2")
workload=$3
pairs=${4:-10}
seconds=${5:-10}
for b in "$parent" "$change"; do
    [ -x "$b" ] || { echo "$0: $b is not an executable" >&2; exit 2; }
done

out=$(mktemp) || exit 2
trap 'rm -f "$out"' EXIT
i=1
while [ "$i" -le "$pairs" ]; do
    # Odd pairs run the parent first, even pairs the change.
    sides="parent change"
    [ $((i % 2)) -eq 0 ] && sides="change parent"
    for side in $sides; do
        eval "bin=\$$side"
        line=$(cd "$(root_of "$bin")" &&
            "$bin" --workload "$workload" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
        echo "$i $side $line" >> "$out"
    done
    i=$((i + 1))
done

python3 - "$out" "$here/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs, bench = sys.argv[1], json.load(open(sys.argv[2]))
metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
table, bad = {}, 0
for line in open(runs):
    pair, side, doc = line.rstrip("\n").split(" ", 2)
    try:
        doc = json.loads(doc)
    except ValueError:
        doc = {}
    if doc.get("correct") is not True or doc.get("failed") != 0:
        print(f"pair {pair} {side}: not correct:true with failed:0: {line.strip()}")
        bad += 1
    vals = {n: doc.get("metrics", {}).get(n, {}).get("value") for n, _ in metrics}
    table.setdefault(int(pair), {})[side] = vals

print("pair side   " + " ".join(f"{n:>12}" for n, _ in metrics))
for pair in sorted(table):
    for side in ("parent", "change"):
        vals = [table[pair].get(side, {}).get(n) for n, _ in metrics]
        cells = (f"{'-':>12}" if v is None else f"{v:12.6g}" for v in vals)
        print(f"{pair:>4} {side:6} " + " ".join(cells))

print()
print(f"{'metric':12} {'parent med':>12} {'change med':>12} {'change/par':>10} {'parent q1-q3':>25} {'wins':>6}")
for name, better in metrics:
    par, chg, wins = [], [], 0
    for sides in table.values():
        p, c = sides.get("parent", {}).get(name), sides.get("change", {}).get(name)
        if p is None or c is None:
            continue
        par.append(p)
        chg.append(c)
        wins += (c < p) if better == "lower" else (c > p)
    if not par:
        print(f"{name:12} no complete pairs")
        continue
    q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive") if len(par) > 1 else (par[0],) * 3
    pm, cm = statistics.median(par), statistics.median(chg)
    ratio = f"{cm / pm:10.3f}" if pm else f"{'-':>10}"
    print(f"{name:12} {pm:12.6g} {cm:12.6g} {ratio} {f'{q1:.6g}-{q3:.6g}':>25} {f'{wins}/{len(par)}':>6}")
sys.exit(1 if bad else 0)
EOF
