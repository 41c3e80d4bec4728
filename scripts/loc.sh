#!/usr/bin/env bash
# Non-test source lines per crate.
#
# Counts the non-blank lines that are not `//` comments in the non-test
# part of each file in `crates/*/src` (scripts/nontest.awk: everything
# above `#![cfg(test)]` or an inline `#[cfg(test)] mod`; an item-level
# `#[cfg(test)]` is counted) — the part scripts/panic_audit.sh audits —
# and sums them per crate. A last `tests` row counts the test tree by
# the same line filter: the part of `crates/*/src` files that
# nontest.awk drops, plus every file under `crates/*/tests`, `tests/`
# and `examples/`. Given a git revision, counts that revision's tree by
# the same rule and prints the delta, so every change reports its size
# the same way.
#
#   scripts/loc.sh          # this working tree
#   scripts/loc.sh HEAD~1   # ... against HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

# Prints "crate lines" per crate for the `crates/` directory under `$1`.
tally() {
    (cd "$1" && find crates -path 'crates/*/src/*' -name '*.rs' | sort) | while read -r f; do
        n=$(awk -f scripts/nontest.awk "$1/$f" \
            | { grep -vE '^[[:space:]]*(//|$)' || :; } \
            | wc -l)
        crate=${f#crates/}
        echo "${crate%%/*} $n"
    done | awk '{s[$1] += $2} END {for (c in s) print c, s[c]}' | sort
}

# Counts the non-blank, non-`//` lines of stdin.
code() {
    { grep -vE '^[[:space:]]*(//|$)' || :; } | wc -l
}

# Prints the test-tree line count for the tree under `$1`.
tests_total() {
    (cd "$1" && find crates tests examples -name '*.rs' 2> /dev/null | sort) | while read -r f; do
        case $f in
        crates/*/src/*) echo $(($(code < "$1/$f") - $(awk -f scripts/nontest.awk "$1/$f" | code))) ;;
        *) code < "$1/$f" ;;
        esac
    done | awk '{t += $1} END {print t + 0}'
}

if [ $# -eq 0 ]; then
    tally . | awk '
        BEGIN {printf "%-8s %7s\n", "crate", "lines"}
        {printf "%-8s %7d\n", $1, $2; t += $2}
        END {printf "%-8s %7d\n", "total", t}'
    printf "%-8s %7d\n" tests "$(tests_total .)"
    exit 0
fi

rev=$1
if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
    echo "loc: unknown revision '$rev'" >&2
    exit 2
fi
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
# shellcheck disable=SC2046
git archive "$rev" $(git ls-tree --name-only "$rev" crates tests examples) | tar -x -C "$old"
join -a1 -a2 -e0 -o 0,1.2,2.2 <(tally .) <(tally "$old") | awk -v rev="$rev" '
    BEGIN {printf "%-8s %7s %7s %7s\n", "crate", "lines", substr(rev, 1, 7), "delta"}
    {printf "%-8s %7d %7d %+7d\n", $1, $2, $3, $2 - $3; a += $2; b += $3}
    END {printf "%-8s %7d %7d %+7d\n", "total", a, b, a - b}'
tests_total . | paste - <(tests_total "$old") | awk '{printf "%-8s %7d %7d %+7d\n", "tests", $1, $2, $1 - $2}'
