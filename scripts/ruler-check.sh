#!/bin/sh
# The counters' own check: scripts/loc.sh and scripts/panic-budget.sh run
# on scripts/ruler-fixture/lib.rs, a file whose test items sit between
# pieces of code that count, and must read the figures written here. A rule
# that stops counting at the first test item reads 3 lines and 0 sites.
#
#   scripts/ruler-check.sh    exit 1 when either count differs
set -eu

here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/scripts" "$tmp/crates/fixture/src"
cp "$here/loc.sh" "$here/panic-budget.sh" "$here/non-test.awk" "$tmp/scripts/"
cp "$here/ruler-fixture/lib.rs" "$tmp/crates/fixture/src/lib.rs"

lines=$("$tmp/scripts/loc.sh" "$tmp" | awk '$1 == "fixture" { print $2 }')
sites=$("$tmp/scripts/panic-budget.sh" | awk '$1 == "fixture" { print $2 }')
echo "fixture: $lines lines (want 15), $sites panic sites (want 2)"
[ "$lines" = 15 ] && [ "$sites" = 2 ]
