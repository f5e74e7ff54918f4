#!/bin/sh
# Alternated pairs of one benchmark workload, parent against this checkout:
# the protocol ROADMAP.md prescribes for every performance claim.
#
#   scripts/bench-pairs.sh <parent-checkout> <workload> [pairs] [first-seed] [pr]
#
# Builds `benchmark/` in both checkouts, then runs <pairs> (default 10)
# untraced passes of <workload> on each side, seeds <first-seed>.. (default
# 1001; pick ones not used while the change was written), the parent first
# in odd pairs and the change first in even ones. Prints every run, then per
# end-to-end metric of BENCHMARK.json each side's median and quartiles, the
# pairs the change won and lost, the parent's own quartile spread as a share
# of its median, and whether the change's median stays inside the metric's
# bound -- "unresolved" where the parent's spread alone exceeds that bound
# (unless every run of the change beats every run of the parent). The last
# line is one JSON object for results/trajectory.jsonl: the change's "pr"
# (the [pr] argument, else $BENCH_PAIRS_PR, else null), the "parent"
# (`git -C <parent-checkout> describe --always`, so make that checkout with
# `git clone`), the workload, the seeds, the median box_speed over every
# run, and per end-to-end metric the median and quartiles of both sides,
# "parent_side" and "change": medians drift between sessions, so only the
# two sides of one line compare. Result lines are kept under
# $BENCH_PAIRS_OUT (default: a fresh directory under ${TMPDIR:-/tmp}).
set -eu

[ $# -ge 2 ] || { sed -n '2,26p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed0=${4:-1001}
pr=${5:-${BENCH_PAIRS_PR:-}}
out=${BENCH_PAIRS_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}
mkdir -p "$out"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$change/BENCHMARK.json")

for dir in "$parent" "$change"; do
    echo "# building $dir" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One untraced pass; its result object (the last stdout line) lands in $3,
# its box_speed note in $3.speed.
pass() {
    (cd "$1" && ./benchmark/target/release/ftmp-benchmark \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >"$3.out"
    tail -n 1 "$3.out" >"$3"
    sed -n "s/^$workload box_speed \([^ ]*\) .*/\1/p" "$3.out" >"$3.speed"
}

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        eval "dir=\$$side"
        pass "$dir" "$seed" "$out/$side-$i.json"
        printf '%-6s pair %2d seed %d  %s\n' "$side" "$i" "$seed" \
            "$(sed 's/"unit": "[^"]*"//g; s/[{}"]//g; s/value: //g; s/, *,/,/g; s/metrics: //' "$out/$side-$i.json")"
    done
    i=$((i + 1))
done

echo
echo "# $workload, $pairs alternated pairs, seeds $seed0..$((seed0 + pairs - 1)), $seconds s: parent $parent, change $change"
echo "# result lines: $out"
base=$(git -C "$parent" describe --always 2>/dev/null || echo unknown)
awk -v pairs="$pairs" -v out="$out" -v workload="$workload" -v seed0="$seed0" -v pr="$pr" -v base="$base" '
function value(line, name,    at, rest) {
    at = index(line, "\"" name "\": {\"value\": ")
    if (!at) return "nan"
    rest = substr(line, at + length(name) + 14)
    sub(/[,}].*/, "", rest)
    return rest + 0
}
function failed(line,    rest) {
    rest = line
    sub(/.*"failed": /, "", rest)
    sub(/,.*/, "", rest)
    return rest + 0
}
# Linear-interpolated quantile of v[1..n], sorted ascending in place.
function quantile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    pos = 1 + (n - 1) * q
    lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
/"end_to_end"/ { table = 1; next }
table && /\]/ { table = 0 }
table && /"name"/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": "/, "", better); sub(/".*/, "", better)
    bound = $0; sub(/.*"bound": /, "", bound); sub(/[ }].*/, "", bound)
    names[++metrics] = name; dir[name] = better; lim[name] = bound + 0
}
END {
    for (i = 1; i <= pairs; i++) {
        getline p < (out "/parent-" i ".json")
        getline c < (out "/change-" i ".json")
        pl[i] = p; cl[i] = c
        if (p !~ /"correct": true/ || failed(p) > 0) pbad++
        if (c !~ /"correct": true/ || failed(c) > 0) cbad++
        getline speed[i] < (out "/parent-" i ".json.speed")
        getline speed[pairs + i] < (out "/change-" i ".json.speed")
    }
    printf "%-20s %-38s %-38s %-9s %-11s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won/lost", "parent IQR", "verdict"
    for (m = 1; m <= metrics; m++) {
        name = names[m]; won = lost = 0
        for (i = 1; i <= pairs; i++) {
            a[i] = value(pl[i], name); b[i] = value(cl[i], name)
            if (dir[name] == "higher" ? b[i] > a[i] : b[i] < a[i]) won++
            else if (b[i] != a[i]) lost++
        }
        pm = quantile(a, pairs, 0.5); p1 = quantile(a, pairs, 0.25); p3 = quantile(a, pairs, 0.75)
        cm = quantile(b, pairs, 0.5); c1 = quantile(b, pairs, 0.25); c3 = quantile(b, pairs, 0.75)
        gain = dir[name] == "higher" ? cm - pm : pm - cm
        spread = pm ? (p3 - p1) / pm : 0
        # After quantile() both arrays are sorted ascending.
        clear = dir[name] == "higher" ? b[1] > a[pairs] : b[pairs] < a[1]
        if (pairs >= 10 && won * 10 >= (won + lost) * 9 && won > 0 && gain > p3 - p1) verdict = "gain"
        else if (spread > lim[name] && !clear) verdict = "unresolved: the parent alone spreads past the bound"
        else if (-gain > lim[name] * pm) verdict = "WORSE than the bound"
        else verdict = "inside the bound"
        printf "%-20s %-38s %-38s %-9s %-11s %s\n", name, \
            sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3), \
            won "/" lost, sprintf("%.0f%%", 100 * spread), verdict
        sep = m > 1 ? ", " : ""
        ptraj = ptraj sprintf("%s\"%s\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", \
            sep, name, pm, p1, p3)
        traj = traj sprintf("%s\"%s\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", \
            sep, name, cm, c1, c3)
    }
    printf "runs failing the correctness gate or with failed operations: parent %d, change %d\n", pbad, cbad
    printf "{\"pr\": %s, \"parent\": \"%s\", \"workload\": \"%s\", \"seeds\": [%d, %d], \"box_speed\": %.4g, \"parent_side\": {%s}, \"change\": {%s}}\n", \
        pr == "" ? "null" : "\"" pr "\"", base, workload, seed0, seed0 + pairs - 1, \
        quantile(speed, 2 * pairs, 0.5), ptraj, traj
}' "$change/BENCHMARK.json"
