#!/bin/sh
# The benchmark rows that repeat exactly at a seed, this checkout against a
# parent checkout or against the committed pins: ROADMAP item 2(a)'s gate.
#
#   scripts/bench-rows.sh <parent-checkout> [--expect-moved row[,row...]] [workload...]
#   scripts/bench-rows.sh --pins <file> [--expect-moved row[,row...]] [workload...]
#
# Builds `benchmark/` (in both checkouts, or with --pins in this one only),
# then for each workload (default: the five `sim-*`) runs one untraced and
# one traced pass per side at seed ${BENCH_ROWS_SEED:-1999} and compares, as
# printed, the rows that are counts or virtual time -- `order_p50_us`/
# `order_p99_us`, `attempted` and `failed` of the untraced pass; the ledger
# rows listed below and `traced.attempted`/`traced.failed` of the traced one.
# Prints `equal` or `parent -> change` (`pinned -> change`) per row, with
# `better`/`worse` by the row's direction in BENCHMARK.json, and exits
# non-zero if any row moved that no --expect-moved names. Wall-clock rows are
# bench-pairs.sh's business, not this script's. Result lines are kept under
# $BENCH_ROWS_OUT (default: a fresh directory under ${TMPDIR:-/tmp}).
#
# A pin file (results/ledger-pins.txt) holds `<workload> <row> <value>`
# lines taken at seed 1999 and BENCHMARK.json's run_seconds; `#` starts a
# comment. A row that moves on purpose is re-pinned like a golden hash: its
# value edited, with a comment above it saying why.
set -eu

rows="order_p50_us order_p99_us attempted failed
wire.bytes_per_delivery wire.datagrams_per_delivery
pack.msgs_per_datagram pack.heartbeats_suppressed
rmp.nacks_sent rmp.retransmissions_sent rmp.duplicate_ratio
rmp.retention_peak_msgs rmp.retention_peak_bytes romp.queue_peak
pgmp.view_changes pgmp.convictions
processor.packets_per_delivery processor.allocs_per_delivery processor.alloc_bytes_per_delivery
orb.requests_suppressed orb.replies_suppressed
traced.attempted traced.failed"

usage() { sed -n '2,23p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
change=$(cd "$(dirname "$0")/.." && pwd)
parent=
pins=
if [ "$1" = --pins ]; then
    [ $# -ge 2 ] || usage
    pins=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
    [ -r "$pins" ] || { echo "no pin file $2" >&2; exit 2; }
    shift 2
else
    parent=$(cd "$1" && pwd)
    shift
fi
expected=
workloads=
while [ $# -gt 0 ]; do
    case $1 in
    --expect-moved) expected="$expected,$2"; shift 2 ;;
    --expect-moved=*) expected="$expected,${1#*=}"; shift ;;
    *) workloads="$workloads $1"; shift ;;
    esac
done
[ -n "$workloads" ] ||
    workloads="sim-fanin-64 sim-loss-1k sim-paced-64 sim-orb-invoke sim-durable-restart-1k"
seed=${BENCH_ROWS_SEED:-1999}
out=${BENCH_ROWS_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-rows.XXXXXX")}
mkdir -p "$out"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$change/BENCHMARK.json")
sides="parent change"
[ -z "$pins" ] || sides=change

for side in $sides; do
    eval "dir=\$$side"
    echo "# building $dir" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One pass; its result object (the last stdout line) lands in $4.
pass() {
    (cd "$1" && ./benchmark/target/release/ftmp-benchmark \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3") |
        tail -n 1 >"$4"
}

for w in $workloads; do
    for side in $sides; do
        eval "dir=\$$side"
        echo "# $w, $side" >&2
        pass "$dir" "$w" 0 "$out/$side-$w-untraced.json"
        pass "$dir" "$w" 1 "$out/$side-$w-traced.json"
    done
done

echo "# seed $seed, $seconds s, one untraced and one traced pass a side: ${pins:+pins }${pins:-parent $parent}, change $change"
awk -v rows="$rows" -v workloads="$workloads" -v expected="$expected" -v out="$out" -v pins="$pins" '
# The value of `name` in a result line, as the benchmark printed it.
function value(line, name,    at, rest) {
    if (name == "attempted" || name == "failed") {
        at = index(line, "\"" name "\": ")
        if (!at) return "absent"
        rest = substr(line, at + length(name) + 4)
    } else {
        at = index(line, "\"" name "\": {\"value\": ")
        if (!at) return "absent"
        rest = substr(line, at + length(name) + 14)
    }
    sub(/[,}].*/, "", rest)
    return rest
}
/"name"/ && /"better"/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": "/, "", better); sub(/".*/, "", better)
    dir[name] = better
}
END {
    dir["failed"] = dir["traced.failed"] = "lower"
    if (pins != "")
        while ((getline pin < pins) > 0)
            if (pin !~ /^[ \t]*(#|$)/) { split(pin, f, " "); pinned[f[1], f[2]] = f[3] }
    n = split(rows, row, /[ \n]+/)
    split(expected, e, ","); for (i in e) if (e[i] != "") may[e[i]] = 1
    nw = split(workloads, w, " ")
    for (k = 1; k <= nw; k++) {
        for (s = 1; s <= 2; s++) for (t = 1; t <= 2; t++) {
            file = out "/" (s == 1 ? "parent" : "change") "-" w[k] "-" (t == 1 ? "untraced" : "traced") ".json"
            if ((getline line[s, t] < file) <= 0) line[s, t] = ""
            close(file)
        }
        for (i = 1; i <= n; i++) {
            name = row[i]; t = 1
            if (name ~ /^traced\./) { t = 2; sub(/^traced\./, "", name) }
            else if (name ~ /\./) t = 2
            if (pins == "") p = value(line[1, t], name)
            else p = ((w[k], row[i]) in pinned) ? pinned[w[k], row[i]] : "unpinned"
            c = value(line[2, t], name)
            if (p == c) verdict = "equal  " p
            else {
                verdict = p " -> " c
                if (p != "absent" && p != "unpinned" && c != "absent" && row[i] in dir)
                    verdict = verdict ((dir[row[i]] == "higher") == (c + 0 > p + 0) ? "  (better)" : "  (worse)")
                if (row[i] in may) verdict = verdict "  expected to move"
                else { verdict = verdict "  MOVED"; moved++ }
            }
            printf "%-24s %-36s %s\n", w[k], row[i], verdict
        }
    }
    printf "rows that moved without an --expect-moved: %d\n", moved
    exit moved > 0
}' "$change/BENCHMARK.json" && status=0 || status=$?
echo "# result lines: $out"
exit "$status"
