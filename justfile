# Developer entry points. `just` runs `check`; `just ci` is the workflow's
# `lint` and `test` jobs (fmt, clippy, rustdoc, tier-1, workspace and
# vendored-crate tests, the ORB examples).
# Its other jobs have their own recipes: `chaos`, `conformance`, `metrics`,
# `bench`, `benchmark-smoke` (with `seed-sweep`), `bench-pins`, `panic-budget`,
# `results-fresh`.

default: check

# Fast compile check of the whole workspace.
check:
    cargo check --workspace --all-targets

# Format check (no rewrite).
fmt:
    cargo fmt --all --check

# Lints, warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: catches intra-doc links to deleted items.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Tier-1 tests: the root integration suites.
test:
    cargo test -q

# The two ORB examples, release mode: each asserts that the server
# replicas agree, so running them is a test.
examples:
    cargo run --release --example replicated_bank
    cargo run --release --example corba_features

# Everything, including per-crate unit tests.
test-all:
    cargo test --workspace -q

# The vendored stand-ins' own tests (the channel's wake rule among them):
# `--workspace` skips patched path dependencies, so they are named. `bytes`
# runs once more without `--release`, so debug assertions cover its unsafe
# core.
test-vendor:
    cargo test --release -p crossbeam -p bytes
    cargo test -p bytes

# The CI gate. `test-all` is what runs the golden trace-hash pins: they are
# unit tests of ftmp-core and ftmp-check, which the root `cargo test` skips.
ci: fmt clippy doc test test-all test-vendor examples

# Wide chaos sweep, release mode (CHAOS_SEEDS seeds per test) plus the
# 1000-seed sweep that pins the known onset convictions, then the long
# closed-loop ORB run (45 s virtual) that pins the two-interval lock, keeps
# the loop out of half-interval waves and holds the ORB log to the plateau
# rule.
chaos:
    CHAOS_SEEDS=32 cargo test --release --test chaos -- --include-ignored
    cargo test --release --test orb_invocations -- --ignored

# Conformance sweep: the oracle suite over the full fault matrix, release
# mode (CONFORMANCE_SEEDS seeds per scenario); writes the per-cell verdicts
# to target/tmp/CONFORMANCE_verdicts.json (results/e13.json is the committed
# conformance result).
# Then the runtime's node (its host, channels and trace recorder) on the
# simulator, as many seeds.
conformance:
    CONFORMANCE_SEEDS=16 cargo test --release --test conformance
    CONFORMANCE_SEEDS=16 cargo test --release --test runtime_on_sim

# Non-test, non-blank, non-comment Rust lines per crate.
loc:
    scripts/loc.sh

# The same, a checkout of the parent commit against this one:
# `parent -> change (delta)` per crate and in total.
loc-diff parent:
    scripts/loc.sh . {{parent}}

# Non-test panic sites per crate against results/panic-budget.txt: CI's
# `panic-budget` job, non-zero exit when any crate's count rose. First the
# counters read their fixture (test items mid-file) and must get it right.
# Then the same rule keeps random state out of the engine, the simulator,
# the ORB and the runtime (every draw there is keyed, `ftmp_net::draw`).
panic-budget:
    scripts/ruler-check.sh
    scripts/panic-budget.sh --check results/panic-budget.txt
    scripts/no-rng.sh

# The committed results must reproduce: regenerate the 20 `ftmp-exp` tables
# and E19's two files into a temporary directory and fail on the first
# committed file that differs or has no fresh copy, naming it (E16-E18 carry
# wall-clock fields and stay out). CI's `results-fresh` job; about two
# minutes warm.
results-fresh:
    scripts/results-fresh.sh

# Regenerate every experiment table (see EXPERIMENTS.md).
experiments:
    cargo run --release -p ftmp-harness --bin ftmp-exp

# Telemetry snapshot: run E14 and write results/e14_metrics.json plus the
# per-table JSONs (see DESIGN.md §10).
metrics:
    FTMP_METRICS_DIR=results cargo run --release -p ftmp-harness --bin ftmp-exp -- --exp e14 --json results

# Criterion microbenches.
bench:
    cargo bench -p ftmp-bench

# The benchmark BENCHMARK.json describes (benchmark/BENCHMARK.md): six
# workloads, both passes. The package is outside the root workspace.
benchmark:
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run all

# Every benchmark workload at 1/200 scale, both passes, correctness gate on.
benchmark-smoke:
    cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The benchmark's reduced-scale seed sweep: sim-durable-restart-1k,
# sim-loss-1k and sim-orb-invoke at 0.3 s for seeds 1-64 (about two
# minutes), naming every workload and seed whose run fails its check. A
# step of CI's `benchmark-smoke` job.
seed-sweep:
    scripts/seed-sweep.sh

# Ten alternated pairs of one benchmark workload, a checkout of the parent
# commit against this one: each side's median and quartiles and the win
# count per end-to-end metric (ROADMAP's protocol for every claim).
bench-pairs parent workload:
    scripts/bench-pairs.sh {{parent}} {{workload}}

# The benchmark trajectory (results/trajectory.jsonl) as text: one table
# per workload x metric, PR by PR, parent and change side by side. Never a
# gate. `scripts/trajectory.sh <file> <workload...>` narrows it.
trajectory:
    scripts/trajectory.sh

# The benchmark rows that repeat exactly at a seed (virtual-time latencies,
# datagram, packet, allocation and suppression counts, attempted/failed), a
# checkout of the parent commit against this one: `equal` or
# `parent -> change` per row, non-zero exit on a move no `--expect-moved`
# names (scripts/bench-rows.sh takes those and a workload list).
bench-rows parent:
    scripts/bench-rows.sh {{parent}}

# The same rows of this checkout against the committed pins
# (results/ledger-pins.txt), no parent needed: CI's `ledger-pins` job. A row
# that moves on purpose is re-pinned in that file with a comment saying why.
bench-pins:
    scripts/bench-rows.sh --pins results/ledger-pins.txt

# Crash→restart→rejoin gate (DESIGN.md §12): the durable-log integration
# tests, the CrashRestart sweep cell, then the E16 recovery snapshot
# (results/e16.json + results/e16_metrics.json). scripts/test-some.sh fails
# when its name filter selects no test.
recover:
    cargo test --release --test durable_recovery
    scripts/test-some.sh --release -p ftmp-check crash_restart
    FTMP_METRICS_DIR=results cargo run --release -p ftmp-bench --bin e16_recovery

# Dissemination-overlay gate (DESIGN.md §13): the 64/128-member tree-mode
# sweep cell under all seven oracles, then the E17 control-cost snapshot
# flat vs tree at 16/64/128/256 members (results/e17.json).
e17:
    scripts/test-some.sh --release -p ftmp-check large_group
    cargo run --release -p ftmp-bench --bin e17_overlay

# Coverage-guided exploration gate (DESIGN.md §15): the E19 comparison —
# fixed matrix vs feedback-guided explorer at equal budget — plus any
# oracle violations found, minimized to replayable genomes
# (results/e19.json + results/e19_corpus.json). Fails unless the
# explorer strictly beats the matrix and the campaign is violation-free.
explore:
    cargo run --release -p ftmp-harness --bin ftmp-explore

# Real-socket cluster gate (DESIGN.md §14): the runtime's socket tests,
# then the E18 multi-process cluster — 3 founders + a live join + a
# kill -9/durable-log restart over UDP multicast (auto TCP fallback),
# traces replayed through all seven oracles (results/e18.json) — and once
# more over the forced TCP mesh (results/e18-tcp.json), as CI runs it.
cluster:
    FTMP_SOCKET_TESTS=1 cargo test --release -p ftmp-runtime
    cargo run --release -p ftmp-harness --bin ftmp-cluster
    cargo run --release -p ftmp-harness --bin ftmp-cluster -- --tcp --out results/e18-tcp.json
