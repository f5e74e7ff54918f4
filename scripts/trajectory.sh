#!/bin/sh
# The benchmark trajectory as text: one table per workload x metric, PR by
# PR, from the lines scripts/bench-pairs.sh appends.
#
#   scripts/trajectory.sh [file] [workload...]
#
# <file> defaults to results/trajectory.jsonl; naming workloads prints only
# theirs. Each row is one line of the file, in file order: the change's
# name ("pr", or "commit" on lines in the older shape), the parent it was
# measured against, the parent side's median [q1, q3], the change side's,
# and the change against the parent side as a percentage. Older lines have
# the change side only and print "-" for the rest. Medians drift from one
# measuring run to the next, so only the two sides of one row compare.
# Nothing is gated: a missing or malformed field prints "-".
set -eu

dir=$(cd "$(dirname "$0")/.." && pwd)
file=${1:-$dir/results/trajectory.jsonl}
[ $# -gt 0 ] && shift
[ -r "$file" ] || { sed -n '2,14p' "$0" >&2; exit 2; }

awk -v only="$*" '
# The value of "key" (a string or a number) in line, or "".
function field(line, key,    at, rest) {
    at = index(line, "\"" key "\": ")
    if (!at) return ""
    rest = substr(line, at + length(key) + 4)
    if (substr(rest, 1, 1) == "\"") {
        rest = substr(rest, 2)
        return substr(rest, 1, index(rest, "\"") - 1)
    }
    sub(/[,}].*/, "", rest)
    return rest
}
# The object that follows "key": in line, braces balanced, or "".
function object(line, key,    at, i, depth, c) {
    at = index(line, "\"" key "\": {")
    if (!at) return ""
    at += length(key) + 4
    depth = 0
    for (i = at; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") depth++
        else if (c == "}" && --depth == 0) return substr(line, at, i - at + 1)
    }
    return ""
}
function cell(side, metric,    o) {
    o = object(side, metric)
    if (o == "" || field(o, "median") == "") return "-"
    return sprintf("%.6g [%.6g, %.6g]", field(o, "median"), field(o, "q1"), field(o, "q3"))
}
function delta(parent, change, metric,    p, c) {
    p = field(object(parent, metric), "median")
    c = field(object(change, metric), "median")
    if (p == "" || c == "" || p + 0 == 0) return "-"
    return sprintf("%+.1f%%", (c - p) / p * 100)
}
BEGIN {
    n = split(only, names, " ")
    for (i = 1; i <= n; i++) wanted[names[i]] = 1
}
/"workload": / {
    w = field($0, "workload")
    if (n && !(w in wanted)) next
    if (!(w in rows)) { workloads[++nw] = w; rows[w] = 0 }
    r = ++rows[w]
    name[w, r] = field($0, "pr") != "" ? field($0, "pr") : field($0, "commit")
    base[w, r] = field($0, "parent") != "" ? field($0, "parent") : "-"
    parent[w, r] = object($0, "parent_side")
    change[w, r] = object($0, "change")
    # Metrics in the order the file first names them.
    rest = change[w, r]
    while (match(rest, /"[a-z0-9_]+": \{"median"/)) {
        m = substr(rest, RSTART + 1, RLENGTH - 13)
        if (!(m in known)) { known[m] = 1; metrics[++nm] = m }
        rest = substr(rest, RSTART + RLENGTH)
    }
}
END {
    for (i = 1; i <= nw; i++) {
        w = workloads[i]
        for (j = 1; j <= nm; j++) {
            m = metrics[j]
            printf "%s%s %s\n", (i + j > 2 ? "\n" : ""), w, m
            printf "  %-14s %-8s %-34s %-34s %s\n", "pr", "parent", "parent side", "change", "delta"
            for (r = 1; r <= rows[w]; r++)
                printf "  %-14s %-8s %-34s %-34s %s\n", name[w, r], base[w, r],
                    cell(parent[w, r], m), cell(change[w, r], m),
                    delta(parent[w, r], change[w, r], m)
        }
    }
}' "$file"
