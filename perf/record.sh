#!/bin/sh
# Records one set of runs: N untraced runs per workload (seeds 1..N)
# and one traced run per workload (seed 1), as run records under
# <out-dir> and span files under <out-dir>/traces.
#
#   perf/record.sh <out-dir> [N=10]
#
# Two sets from two commits go to `rover-perf compare`; one set goes to
# `rover-perf history` to become a trajectory point under perf/history/.
set -eu
out=${1:?usage: perf/record.sh <out-dir> [runs-per-workload]}
runs=${2:-10}
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$out/traces"
out=$(cd "$out" && pwd)

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/rover-perf

for w in rt-commit rt-sync1 sim-scale sim-hoard rdo-local; do
    seed=1
    while [ "$seed" -le "$runs" ]; do
        "$bin" run --workload "$w" --seed "$seed" --out "$out/$w-$seed.json" | tail -n 1
        seed=$((seed + 1))
    done
    "$bin" run --workload "$w" --seed 1 --trace 1 \
        --out "$out/$w-1-traced.json" --trace-out "$out/traces/$w.jsonl" | tail -n 1
done
