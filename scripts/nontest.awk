# Prints the non-test part of a Rust source file: the lines above a
# `#![cfg(test)]` (a file that is a test module throughout) or above a
# `#[cfg(test)]` that gates an inline `mod name {`. A `#[cfg(test)]` on
# any other item (a fn, a static, a `mod name;` declaration whose file
# carries its own marker) gates that item alone, so the item is printed:
# it is counted and panic-audited like the code around it.
#
# scripts/loc.sh and scripts/panic_audit.sh both read a file through
# this rule:  awk -f scripts/nontest.awk FILE

/^[[:space:]]*#!\[cfg\(test\)\]/ { exit }

held != "" {
    if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_0-9]+[[:space:]]*\{/) exit
    if ($0 ~ /^[[:space:]]*#\[/) { held = held "\n" $0; next }
    print held
    held = ""
}

/^[[:space:]]*#\[cfg\(test\)\]/ { held = $0; next }

{ print }
