#!/bin/sh
# Non-test, non-blank, non-comment Rust lines per crate: the figure a
# simplicity PR quotes for the parent and for the change.
#
#   scripts/loc.sh [checkout]        (default: the checkout this script is in)
#
# Counts `crates/<name>/src/**/*.rs`. A `#[cfg(test)]` at the start of a
# line takes the item under it out of the count: one line when that line
# ends in `;` (`mod tests;`), otherwise the rest of the file (by this
# repository's convention an inline test module comes last), and
# `src/**/tests.rs` is skipped whole. Lines that are blank or begin with
# `//` (comments, rustdoc) are not code. `tests/`, `benches/`, `examples/`
# and `benchmark/` are not counted at all.
set -eu

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
cd "$root/crates"
total=0
for crate in */; do
    crate=${crate%/}
    n=$(find "$crate/src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { counting = 1; gated = 0 }
        gated { gated = 0; if (/;$/) next; counting = 0 }
        /^#\[cfg\(test\)\]/ { gated = 1; next }
        counting && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' crates/ "$total"
