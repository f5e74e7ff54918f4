//! The conformance schedule-sweep: every fault scenario in the matrix,
//! `CONFORMANCE_SEEDS` seeds each (default 2 — CI runs wider), all seven
//! paper-property oracles attached to every processor. Zero violations are
//! expected at any budget; a failure panics with the first counterexample
//! (violating observation window plus the FTMP-filtered wire trace).
//!
//! The run also writes `CONFORMANCE_verdicts.json` to Cargo's scratch
//! directory for integration tests (`target/tmp/`) — the machine-readable
//! verdict CI uploads as an artifact, pass or fail. The committed
//! conformance result is `results/e13.json`.

use ftmp::check::{run_sweep, seed_budget, Scenario, SweepConfig};

#[test]
fn fault_matrix_sweeps_clean() {
    // Scenario::matrix() is the single source of truth for this job's
    // cells: everything in Scenario::ALL except LargeGroup (64/128
    // members; one 128-member cell costs as much as the rest of the matrix
    // combined — it runs in the dedicated `large-group` CI job via
    // `ftmp-check`'s large_group tests). New scenario axes are picked up
    // here automatically.
    let scenarios: Vec<Scenario> = Scenario::matrix();
    let cfg = SweepConfig {
        base_seed: 0xC0F0,
        seeds_per_scenario: seed_budget(2),
        steps: 60,
        trace_capacity: 8192,
        scenarios,
    };
    let report = run_sweep(&cfg);
    let json = report.to_json();
    // Best-effort artifact; the assertions below are the gate.
    let _ = std::fs::write(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/CONFORMANCE_verdicts.json"),
        &json,
    );
    assert_eq!(
        report.executions(),
        cfg.scenarios.len() as u64 * cfg.seeds_per_scenario
    );
    assert!(
        report.delivered() > 0,
        "sweep produced no deliveries — driver broken"
    );
    for cell in &report.cells {
        assert_eq!(
            cell.violations,
            0,
            "{} seed {}: conformance violation\n{}",
            cell.scenario,
            cell.seed,
            cell.counterexample.as_deref().unwrap_or("(none recorded)")
        );
    }
    assert!(report.ok());
}
