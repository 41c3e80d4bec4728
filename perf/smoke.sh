#!/bin/sh
# Builds the benchmark, checks it against BENCHMARK.json, and runs every
# workload at 1/50 size with all output checks on. A few seconds; ready
# for CI to call.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/rover-perf
"$bin" check
for w in rt-commit rt-sync1 sim-scale sim-hoard rdo-local; do
    "$bin" run --workload "$w" --seed 1 --seconds 1 --smoke | tail -n 1
done
"$bin" run --workload rt-commit --seed 1 --seconds 1 --smoke --trace 1 | tail -n 1
