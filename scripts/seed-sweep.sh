#!/bin/sh
# A reduced-scale seed sweep of the benchmark: each workload at
# `--seconds 0.3` (about half a second a run) for seeds 1..LAST. One
# seed's schedule can land on a fault the pinned seed never reaches (a
# re-add asked before the old incarnation's conviction was dropped at seed
# 32); the sweep is where such a seed shows. Builds the benchmark once, runs
# every pair and fails, naming each workload and seed, on any run that exits
# non-zero or whose result line is not `"correct": true` with `"failed": 0`.
#
#   scripts/seed-sweep.sh [LAST [WORKLOAD...]]
#   scripts/seed-sweep.sh            # seeds 1-64 of the three below
#   scripts/seed-sweep.sh 8 sim-loss-1k
#
# The default workloads are the ones whose runs take a NACK, a conviction or
# a rejoin: sim-durable-restart-1k, sim-loss-1k and sim-orb-invoke.
set -eu
last=${1:-64}
[ $# -gt 0 ] && shift
[ $# -eq 0 ] && set -- sim-durable-restart-1k sim-loss-1k sim-orb-invoke
case $last in
'' | *[!0-9]*)
    echo "usage: $0 [LAST [WORKLOAD...]]" >&2
    exit 2
    ;;
esac
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=./benchmark/target/release/ftmp-benchmark
bad=0
runs=0
for w in "$@"; do
    seed=1
    while [ "$seed" -le "$last" ]; do
        runs=$((runs + 1))
        if out=$("$bin" --workload "$w" --seed "$seed" --seconds 0.3 --trace 0 2>&1); then
            result=$(printf '%s\n' "$out" | tail -n 1)
            case $result in
            *'"correct": true'*'"failed": 0,'*) ;;
            *)
                echo "FAIL $w seed $seed: $result" >&2
                bad=$((bad + 1))
                ;;
            esac
        else
            echo "FAIL $w seed $seed: exit $?: $(printf '%s\n' "$out" | tail -n 2)" >&2
            bad=$((bad + 1))
        fi
        seed=$((seed + 1))
    done
done
if [ "$bad" -gt 0 ]; then
    echo "$0: $bad of $runs runs failed" >&2
    exit 1
fi
echo "$0: $runs runs clean ($* at seeds 1-$last, 0.3 s)"
