#!/usr/bin/env bash
# Virtual-time golden check.
#
# The standing invariant (ROADMAP.md): every virtual-time BENCH metric,
# soak digest and example narrative stays byte-identical unless a PR
# says why it moved. This runs the whole suite at the default `--jobs`
# and diffs the JSON it writes against the checked-in
# results/BENCH_rover.json (no wall-clock field, one metric per line,
# so a difference names the metric). It then diffs the stdout of the
# eight soak smokes and of the six examples against the files recorded
# under results/golden/. A soak whose invariants fail exits non-zero,
# and so does this script.
#
#   scripts/bench_golden.sh            # builds rover-bench and the examples, then checks
#   BENCH_BIN=path scripts/bench_golden.sh   # check with a built binary; the examples
#                                            # are read from its directory's examples/
#   scripts/bench_golden.sh --update   # rewrite results/golden/ from this build
#
# When a PR moves a metric on purpose, regenerate the golden with
# `rover-bench all` from the repository root (and `--update` for
# results/golden/), and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=results/BENCH_rover.json
DIR=results/golden
update=0
[ "${1:-}" = "--update" ] && update=1

bin=${BENCH_BIN:-}
if [ -z "$bin" ]; then
    cargo build --release --offline --quiet -p rover-bench -p rover --bins --examples
    bin=${CARGO_TARGET_DIR:-target}/release/rover-bench
fi
examples=$(dirname "$bin")/examples

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
# Diffs `$tmp/$1` against `$DIR/$1` (or records it under --update).
check() {
    if [ "$update" -eq 1 ]; then
        mkdir -p "$DIR"
        cp "$tmp/$1" "$DIR/$1"
    elif ! diff "$DIR/$1" "$tmp/$1"; then
        echo "bench_golden: FAIL — $1 differs from $DIR/$1 (< golden, > this build)" >&2
        fail=1
    fi
}

if [ "$update" -eq 0 ]; then
    "$bin" all --json "$tmp" > /dev/null
    if diff "$GOLDEN" "$tmp/BENCH_rover.json"; then
        echo "bench_golden: ok ($(grep -c '"id":' "$GOLDEN") experiments match $GOLDEN)"
    else
        echo "bench_golden: FAIL — metrics differ from $GOLDEN (< golden, > this build)" >&2
        fail=1
    fi
fi

# name, then the soak's arguments.
soaks=(
    "chaos --seed 1..4 --smoke"
    "crashes --seed 1..4 --smoke --server-crashes 2"
    "group-commit --seed 1..4 --smoke --server-crashes 2 --group-commit"
    "scale --clients 1000 --smoke"
    "shards --clients 1000 --shards 4 --smoke"
    "shard-kill --clients 1000 --shards 4 --smoke --server-crashes 2"
    "hot-set --clients 1000 --shards 4 --smoke --replicate-hot 8 --rebalance-every 50"
    "replica-chaos --clients 1000 --shards 4 --smoke --replicate-hot 8 --server-crashes 2"
)
for s in "${soaks[@]}"; do
    read -r name args <<< "$s"
    # shellcheck disable=SC2086
    "$bin" soak $args > "$tmp/soak-$name.txt"
    check "soak-$name.txt"
done

for ex in quickstart mail_disconnected calendar_conflicts web_clickahead crash_recovery \
    function_shipping; do
    "$examples/$ex" > "$tmp/example-$ex.txt"
    check "example-$ex.txt"
done

if [ "$update" -eq 1 ]; then
    echo "bench_golden: recorded ${#soaks[@]} soaks and 6 examples under $DIR"
elif [ "$fail" -eq 0 ]; then
    echo "bench_golden: ok (${#soaks[@]} soaks and 6 examples match $DIR)"
else
    exit 1
fi
