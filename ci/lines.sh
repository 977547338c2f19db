#!/usr/bin/env bash
# Prints the non-test lines of each crate, and their total: for every
# `.rs` file under `crates/*/src`, the lines before its first
# `#[cfg(test)]` (the whole file when it has none).
#
#   ./ci/lines.sh
#
# Run it before and after a change to see what the change costs or
# gives back.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
