#!/bin/sh
# Random state may not creep back into the engine, the simulator, the ORB or
# the runtime: every random decision there is a keyed draw
# (`ftmp_net::draw`, DESIGN.md §2). Fails, naming each file and line, when
# the non-test code of crates/{core,net,orb,runtime}/src names `SmallRng`,
# `SeedableRng`, `thread_rng` or `rand::`.
#
#   scripts/no-rng.sh    exit 1 on any such line
#
# Test code is skipped by the rule scripts/loc.sh and scripts/panic-budget.sh
# share: `src/**/*tests.rs` whole, and the item under a `#[cfg(test)]` at
# the start of a line (scripts/non-test.awk). Comment lines do not count.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
found=$(
    for crate in core net orb runtime; do
        find "crates/$crate/src" -name '*.rs' ! -name '*tests.rs' | sort | while read -r f; do
            awk -f scripts/non-test.awk "$f" |
                grep -E 'SmallRng|SeedableRng|thread_rng|rand::' |
                grep -vE '^[[:space:]]*//' |
                sed "s|^[[:space:]]*|$f: |" || true
        done
    done
)
if [ -n "$found" ]; then
    echo "random state in non-test code (use ftmp_net::draw):"
    echo "$found"
    exit 1
fi
echo "no random state in the non-test code of core, net, orb, runtime"
