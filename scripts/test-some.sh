#!/bin/sh
# `cargo test` with a test-name filter that must select something. Cargo
# reports success when a filter matches no test at all, so a step whose
# tests were renamed or moved goes on passing while it runs nothing; this
# lists what the filter selects first and fails when that is nothing.
#
#   scripts/test-some.sh [cargo test options...] FILTER
#   scripts/test-some.sh --release -p ftmp-core node::tests::tree_mode
#
# The filter is the last argument; everything is handed to `cargo test` as
# given, once with `-- --list` to count and once to run.
set -eu
if [ $# -eq 0 ]; then
    echo "usage: $0 [cargo test options...] FILTER" >&2
    exit 2
fi
list=$(cargo test "$@" -- --list)
selected=$(printf '%s\n' "$list" | grep -c ': test$' || true)
if [ "$selected" -eq 0 ]; then
    echo "$0: the filter selects no test: cargo test $*" >&2
    exit 1
fi
echo "$0: $selected tests selected" >&2
exec cargo test "$@"
