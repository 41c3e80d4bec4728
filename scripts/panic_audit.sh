#!/usr/bin/env bash
# Panic-audit ratchet.
#
# Counts panic-capable calls (`.unwrap()`, `.expect(`, `panic!(`,
# `unreachable!(`) in non-test source code — the part of each file
# scripts/nontest.awk prints: everything above `#![cfg(test)]` or an
# inline `#[cfg(test)] mod` (an item-level `#[cfg(test)]` is audited
# with its surroundings) — and compares against the
# checked-in baseline. CI fails if any file's count grows or a new file
# introduces one: decode/parse paths must return typed errors, not
# panic. Counts may only go down; when they do, refresh the baseline so
# the ratchet tightens:
#
#   scripts/panic_audit.sh            # check against baseline
#   scripts/panic_audit.sh --update   # rewrite the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=scripts/panic_baseline.txt

current_counts() {
    find crates -name '*.rs' -path '*/src/*' | sort | while read -r f; do
        n=$(awk -f scripts/nontest.awk "$f" \
            | grep -vE '^[[:space:]]*//' \
            | grep -cE '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' || :)
        if [ "$n" -gt 0 ]; then
            echo "$n $f"
        fi
    done
}

if [ "${1:-}" = "--update" ]; then
    current_counts > "$BASELINE"
    echo "panic_audit: baseline updated ($(wc -l < "$BASELINE") files)"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "panic_audit: missing $BASELINE — run with --update to create it" >&2
    exit 1
fi

cur=$(current_counts)

fail=0
improved=0
while read -r n f; do
    [ -n "$f" ] || continue
    base=$(awk -v f="$f" '$2 == f { print $1 }' "$BASELINE")
    base=${base:-0}
    if [ "$n" -gt "$base" ]; then
        echo "panic_audit: $f has $n panic-capable call(s), baseline is $base" >&2
        fail=1
    elif [ "$n" -lt "$base" ]; then
        improved=1
    fi
done <<< "$cur"

# Files that dropped out of the current counts entirely also tighten.
while read -r base f; do
    if ! grep -qF " $f" <<< "$cur"; then
        improved=1
    fi
done < "$BASELINE"

if [ "$fail" -ne 0 ]; then
    echo "panic_audit: FAIL — convert new unwrap/expect/panic sites to typed errors," >&2
    echo "panic_audit: or (for invariants unreachable from input) justify and --update." >&2
    exit 1
fi
if [ "$improved" -ne 0 ]; then
    echo "panic_audit: counts dropped below baseline — run 'scripts/panic_audit.sh --update' to ratchet down"
fi
echo "panic_audit: ok (no file exceeds its baseline)"
