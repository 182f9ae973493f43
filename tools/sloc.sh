#!/bin/sh
# Non-test source lines per crate: for every `src/**/*.rs` under
# `crates/<name>/`, the lines above the file's first top-level
# `#[cfg(test)]` that are neither blank nor `//` comments (doc comments
# included). Prints one `<count> <crate>` line per crate and a total.
#
#   sh tools/sloc.sh            # every crate
#   sh tools/sloc.sh kautz fissione
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
total=0
for crate in "$@"; do
    n=$(find "crates/$crate/src" -name '*.rs' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{n++} END{print n+0}' "$f"
    done | awk '{s+=$1} END{print s+0}')
    printf '%6d %s\n' "$n" "$crate"
    total=$((total + n))
done
printf '%6d total\n' "$total"
