#!/bin/sh
# Panic sites in non-test code, per crate: `.unwrap(`, `.expect(`, `panic!`
# and `unreachable!` under `crates/<name>/src/**/*.rs`. A crate's count may
# fall but never rise; a new site has to replace an old one or be argued
# for by raising the committed figure in the same change.
#
#   scripts/panic-budget.sh                 print "<crate> <count>" per crate
#   scripts/panic-budget.sh --check <file>  compare with committed counts,
#                                           exit 1 if any crate's rose
#
# Test code is skipped as scripts/loc.sh skips it: `src/**/*tests.rs`
# whole, and from a `#[cfg(test)]` at the start of a line the rest of the
# file (or one line when that line ends in `;`). Lines that begin with
# `//` (comments, rustdoc) and the text after a ` // ` are not code.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)

count() {
    cd "$root/crates"
    for crate in */; do
        crate=${crate%/}
        n=$(find "$crate/src" -name '*.rs' ! -name '*tests.rs' -exec awk '
            FNR == 1 { counting = 1; gated = 0 }
            gated { gated = 0; if (/;$/) next; counting = 0 }
            /^#\[cfg\(test\)\]/ { gated = 1; next }
            !counting || /^[[:space:]]*\/\// { next }
            {
                line = $0
                sub(/[[:space:]]\/\/ .*/, "", line)
                n += gsub(/\.unwrap\(|\.expect\(|(^|[^_[:alnum:]])(panic|unreachable)!/, "", line)
            }
            END { print n + 0 }' {} +)
        echo "$crate $n"
    done
}

case "${1:-}" in
"")
    count
    ;;
--check)
    [ $# -eq 2 ] || { sed -n '2,13p' "$0" >&2; exit 2; }
    budget=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
    # Committed lines are "<crate> <count>"; `#` starts a comment. A crate
    # the file does not name has a budget of 0.
    count | awk -v budget="$budget" '
        BEGIN {
            while ((getline line < budget) > 0) {
                sub(/#.*/, "", line)
                if (split(line, f, " ") == 2) allowed[f[1]] = f[2]
            }
        }
        {
            a = ($1 in allowed) ? allowed[$1] : 0
            verdict = $2 > a ? "ROSE" : ($2 < a ? "fell (lower the budget)" : "ok")
            printf "%-10s %4d of %4d  %s\n", $1, $2, a, verdict
            if ($2 > a) bad = 1
        }
        END { exit bad }'
    ;;
*)
    sed -n '2,13p' "$0" >&2
    exit 2
    ;;
esac
