#!/bin/sh
# Non-test, non-blank, non-comment Rust lines per crate: the figure a
# simplicity PR quotes for the parent and for the change.
#
#   scripts/loc.sh [checkout]           (default: the checkout this script is in)
#   scripts/loc.sh <checkout> <parent>  parent -> change (delta), per crate
#
# Counts `crates/<name>/src/**/*.rs`. A `#[cfg(test)]` at the start of a
# line takes the item under it out of the count: one line when that line
# ends in `;` (`mod tests;`), otherwise the rest of the file (by this
# repository's convention an inline test module comes last), and
# `src/**/*tests.rs` (a test module in a file of its own) is skipped whole.
# Lines that are blank or begin with `//` (comments, rustdoc) are not code.
# `tests/`, `benches/`, `examples/` and `benchmark/` are not counted at all.
set -eu

# "<crate> <lines>" for every crate of the checkout at $1, then the total.
count() {
    cd "$1/crates"
    total=0
    for crate in */; do
        crate=${crate%/}
        n=$(find "$crate/src" -name '*.rs' ! -name '*tests.rs' -exec awk '
            FNR == 1 { counting = 1; gated = 0 }
            gated { gated = 0; if (/;$/) next; counting = 0 }
            /^#\[cfg\(test\)\]/ { gated = 1; next }
            counting && !/^[[:space:]]*(\/\/|$)/ { n++ }
            END { print n + 0 }' {} +)
        echo "$crate $n"
        total=$((total + n))
    done
    echo "crates/ $total"
}

change=$(cd "${1:-$(dirname "$0")/..}" && pwd)
if [ $# -lt 2 ]; then
    (count "$change") | awk '{ printf "%-10s %6d\n", $1, $2 }'
    exit
fi
parent=$(cd "$2" && pwd)
# A crate only one side has counts as 0 on the other.
{ (count "$parent") | sed 's/^/parent /'; (count "$change") | sed 's/^/change /'; } | awk '
    !($2 in seen) { seen[$2] = 1; order[++crates] = $2 }
    { lines[$1, $2] = $3 }
    END {
        for (i = 1; i <= crates; i++) {
            c = order[i]
            if (c == "crates/") continue
            row(c)
        }
        row("crates/")
    }
    function row(c,    p, n) {
        p = lines["parent", c] + 0; n = lines["change", c] + 0
        printf "%-10s %6d -> %6d  (%+d)\n", c, p, n, n - p
    }'
