#!/usr/bin/env bash
# Virtual-time golden check.
#
# The standing invariant (ROADMAP.md): every virtual-time BENCH metric
# stays byte-identical unless a PR says why it moved. This runs the
# whole suite at the default `--jobs` and diffs the JSON it writes
# against the checked-in results/BENCH_rover.json. The document holds
# no wall-clock field and one metric per line, so a difference names
# the metric.
#
#   scripts/bench_golden.sh            # builds rover-bench, then checks
#   BENCH_BIN=path scripts/bench_golden.sh   # check with a built binary
#
# When a PR moves a metric on purpose, regenerate the golden with
# `rover-bench all` from the repository root and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=results/BENCH_rover.json
bin=${BENCH_BIN:-}
if [ -z "$bin" ]; then
    cargo build --release --offline --quiet -p rover-bench
    bin=${CARGO_TARGET_DIR:-target}/release/rover-bench
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$bin" all --json "$tmp" > /dev/null

if diff "$GOLDEN" "$tmp/BENCH_rover.json"; then
    echo "bench_golden: ok ($(grep -c '"id":' "$GOLDEN") experiments match $GOLDEN)"
else
    echo "bench_golden: FAIL — metrics differ from $GOLDEN (< golden, > this build)" >&2
    exit 1
fi
