#!/bin/sh
# Back-fill results/trajectory.jsonl from the pairs files committed before
# scripts/bench-pairs.sh printed its JSON line.
#
#   scripts/trajectory-backfill.sh [results-dir]
#
# Prints one JSON line per results/pr{17..31}-pairs-<workload>.txt, in PR
# order, shaped like bench-pairs.sh's last line: the commit field is "prNN",
# the seeds come from the file's "# <workload>, N alternated pairs, seeds
# A..B" header, and the change column of the table below that header gives
# each end-to-end metric's median and quartiles. Those runs kept no
# box_speed note, so box_speed is null. A file holding more than one set of
# pairs contributes its first table, the one its header comments call final.
set -eu

dir=${1:-$(cd "$(dirname "$0")/.." && pwd)/results}

for pr in $(seq 17 31); do
    for f in "$dir"/pr"$pr"-pairs-*.txt; do
        [ -e "$f" ] || continue
        awk -v pr="pr$pr" '
        !head && /^# [a-z0-9-]+, [0-9]+ alternated pairs, seeds [0-9]+\.\.[0-9]+/ {
            workload = $2; sub(/,$/, "", workload)
            seeds = $0; sub(/.* seeds /, "", seeds); sub(/,.*/, "", seeds)
            split(seeds, s, /\.\./)
            head = 1
            next
        }
        head == 1 && /^metric / { head = 2; next }
        head == 2 && NF >= 7 && $2 ~ /^[0-9.e+-]+$/ {
            q1 = $6; q3 = $7; gsub(/[\[\],]/, "", q1); gsub(/[\[\],]/, "", q3)
            rows = rows sprintf("%s\"%s\": {\"median\": %s, \"q1\": %s, \"q3\": %s}", \
                n++ ? ", " : "", $1, $5, q1, q3)
            next
        }
        head == 2 { head = 3 }
        END {
            if (!n) { print FILENAME ": no pairs table" > "/dev/stderr"; exit 1 }
            printf "{\"commit\": \"%s\", \"workload\": \"%s\", \"seeds\": [%d, %d], \"box_speed\": null, \"change\": {%s}}\n", \
                pr, workload, s[1], s[2], rows
        }' "$f"
    done
done
