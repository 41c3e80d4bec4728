#!/usr/bin/env bash
# Virtual-time golden check.
#
# The standing invariant (ROADMAP.md): every virtual-time BENCH metric
# stays byte-identical unless a PR says why it moved. This runs the
# whole suite serially and compares every metric of every experiment
# against the checked-in results/BENCH_rover.json, ignoring only what
# is measured in wall time: `jobs`, the `wall_ms` fields, and the
# `s4.*` metrics (s4-realclock is the one real-clock experiment).
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

"$bin" all --jobs 1 --json "$tmp" > /dev/null

# One metric per line, so a difference names the metric.
virtual_time_only() {
    sed -E -e '/^ *"(jobs|total_wall_ms|wall_ms)":/d' \
        -e 's/"s4\.[^"]*": [^,}]*(, )?//g' \
        -e 's/, "/,\n"/g' "$1"
}

if diff <(virtual_time_only "$GOLDEN") <(virtual_time_only "$tmp/BENCH_rover.json"); then
    echo "bench_golden: ok ($(grep -c '"id":' "$GOLDEN") experiments match $GOLDEN)"
else
    echo "bench_golden: FAIL — virtual-time metrics differ from $GOLDEN (< golden, > this build)" >&2
    exit 1
fi
