#!/bin/sh
# Regenerate the committed results that repeat exactly, into a temporary
# directory, and fail on the first committed file that differs from its
# fresh copy or has none, naming it:
#
# - every table `ftmp-exp --exp all --json <dir>` writes (20 today);
# - E19's two files, `ftmp-explore --seed 0x5EED --budget 48`.
#
# The committed set drives the comparison, so a table the run stops writing
# fails here; a fresh file with no committed copy fails too. E16, E17 and
# E18 carry wall-clock or socket-dependent fields, and `e14_metrics.json`
# is written by `just metrics`: none of them is compared.
#
#   scripts/results-fresh.sh
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo run --release --offline -q -p ftmp-harness --bin ftmp-exp -- \
    --exp all --json "$tmp" >/dev/null
cargo run --release --offline -q -p ftmp-harness --bin ftmp-explore -- \
    --seed 0x5EED --budget 48 --out "$tmp/e19.json" --corpus "$tmp/e19_corpus.json" \
    >/dev/null

compared() {
    case "$1" in
        e14_metrics.json | e16* | e17* | e18*) return 1 ;;
    esac
}

n=0
for committed in results/*.json; do
    name=$(basename "$committed")
    compared "$name" || continue
    if [ ! -e "$tmp/$name" ]; then
        echo "results-fresh: results/$name has no fresh copy: the run no longer writes it" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/$name" "$committed"; then
        echo "results-fresh: results/$name differs from a fresh run:" >&2
        diff "$committed" "$tmp/$name" | head -20 >&2 || true
        exit 1
    fi
    n=$((n + 1))
done
for fresh in "$tmp"/*.json; do
    name=$(basename "$fresh")
    if [ ! -e "results/$name" ]; then
        echo "results-fresh: the run wrote $name, which has no committed copy" >&2
        exit 1
    fi
done
echo "results-fresh: $n committed files byte-equal to a fresh run"
