//! E14 — latency breakdown via the telemetry spine (DESIGN.md §10).
//!
//! The same rotating-sender workload runs under three network scenarios
//! (lossless, 8% iid loss, Gilbert–Elliott burst loss) with per-processor
//! telemetry enabled, and the merged histograms break end-to-end latency
//! into its per-layer components:
//!
//! * `ordering_delay_us` — ROMP hold time from enqueue to total-order
//!   release (§4: the price of ordering).
//! * `stability_lag_us` — extra wait from delivery to stability, i.e. how
//!   long RMP retention actually pins a message.
//! * `e2e_self_us` — send → own ordered delivery, the figure an application
//!   sees on a multicast it issued itself.
//! * `rmp_recovery_us` — how long a message sat buffered behind a
//!   source-order gap before RMP released it: arrival skew when nothing is
//!   lost, the NACK-repair tail under loss.
//!
//! The golden trace-hash test in `ftmp-core` proves this instrumentation
//! changes no wire byte, so these numbers describe exactly the traffic the
//! other experiments measure.
//!
//! With `FTMP_METRICS_DIR` set, the merged per-scenario snapshots are also
//! written to `$FTMP_METRICS_DIR/e14_metrics.json` for CI trending.

use crate::report::Table;
use crate::worlds::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig};
use ftmp_telemetry::{Registry, Snapshot};

/// The latency components reported, in pipeline order.
const HISTS: [&str; 4] = [
    "e2e_self_us",
    "ordering_delay_us",
    "stability_lag_us",
    "rmp_recovery_us",
];

/// Recovery-activity counters that contextualize the histograms.
const COUNTERS: [&str; 4] = [
    "deliveries",
    "nacks_sent",
    "retransmissions_answered",
    "window_closes",
];

fn scenarios() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("lossless", SimConfig::with_seed(0xE14)),
        (
            "iid-loss-8%",
            SimConfig::with_seed(0xE14).loss(LossModel::Iid { p: 0.08 }),
        ),
        (
            "burst-loss",
            SimConfig::with_seed(0xE14).loss(LossModel::Burst {
                p_good: 0.01,
                p_bad: 0.6,
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
            }),
        ),
    ]
}

/// One scenario: 3 members, 60 rounds of a rotating sender bursting three
/// small messages every 2 ms, then a settle window; telemetry merged
/// across all processors into one snapshot.
fn run_scenario(sim: SimConfig) -> Snapshot {
    let mut w = FtmpWorld::new(3, sim, ProtocolConfig::with_seed(0xE14), ClockMode::Lamport);
    for id in 1..=w.n {
        w.net
            .with_node(id, |n, _, _| n.engine_mut().enable_telemetry());
    }
    for round in 0..60u32 {
        let from = round % 3 + 1;
        for k in 0..3usize {
            w.send(from, 64 + k * 64);
        }
        w.run_us(2_000);
    }
    // Settle: drain recoveries, let stability catch up to delivery.
    w.run_ms(500);
    let mut merged = Registry::new();
    for id in 1..=w.n {
        if let Some(node) = w.net.node(id) {
            node.engine().register_metrics(&mut merged);
        }
    }
    merged.snapshot()
}

/// Write the merged snapshots as one JSON object keyed by scenario.
fn dump_metrics(dir: &str, snaps: &[(&'static str, Snapshot)]) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    for (i, (name, snap)) in snaps.iter().enumerate() {
        s.push_str(&format!(
            "  \"{}\": {}{}\n",
            name,
            snap.to_json(),
            if i + 1 < snaps.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n");
    std::fs::create_dir_all(dir)?;
    std::fs::write(std::path::Path::new(dir).join("e14_metrics.json"), s)
}

/// Run E14 and render the latency-breakdown and recovery-context tables.
pub fn run() -> Vec<Table> {
    let snaps: Vec<(&'static str, Snapshot)> = scenarios()
        .into_iter()
        .map(|(name, sim)| (name, run_scenario(sim)))
        .collect();

    let mut lat = Table::new(
        "e14",
        "E14 — per-layer latency breakdown (3 members, 180 multicasts, merged over processors)",
        &[
            "scenario", "metric", "count", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)",
        ],
    );
    for (name, snap) in &snaps {
        for metric in HISTS {
            let h = snap.histogram(metric).cloned().unwrap_or_default();
            lat.row(vec![
                name.to_string(),
                metric.to_string(),
                h.count.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
    }
    lat.note(
        "ordering_delay is the ROMP hold (enqueue → total-order release); stability_lag is \
         delivery → stability (RMP retention time); e2e_self is send → own delivery; \
         rmp_recovery is buffered-behind-a-gap → released (arrival skew when lossless, \
         the NACK-repair tail under loss).",
    );
    lat.note(
        "the telemetry-off/on golden trace-hash test pins the wire traffic: these histograms \
         observe the protocol, they do not perturb it.",
    );

    let mut ctx = Table::new(
        "e14b",
        "E14 — recovery context (merged counters per scenario)",
        &[
            "scenario",
            "deliveries",
            "nacks_sent",
            "retransmissions_answered",
            "window_closes",
        ],
    );
    for (name, snap) in &snaps {
        let mut row = vec![name.to_string()];
        for c in COUNTERS {
            row.push(snap.counter(c).unwrap_or(0).to_string());
        }
        ctx.row(row);
    }

    if let Ok(dir) = std::env::var("FTMP_METRICS_DIR") {
        if let Err(e) = dump_metrics(&dir, &snaps) {
            eprintln!("e14: failed to write metrics JSON: {e}");
        }
    }

    vec![lat, ctx]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: under loss the recovery histogram populates and every
    /// scenario observes latency, with plausibly ordered percentiles.
    #[test]
    fn e14_smoke() {
        let snaps: Vec<(&'static str, Snapshot)> = scenarios()
            .into_iter()
            .map(|(name, sim)| (name, run_scenario(sim)))
            .collect();
        for (name, snap) in &snaps {
            let e2e = snap.histogram("e2e_self_us").expect("e2e histogram");
            assert!(e2e.count > 0, "{name}: no end-to-end samples");
            assert!(e2e.p50 <= e2e.p99 && e2e.p99 <= e2e.max, "{name}: order");
            assert!(snap.counter("deliveries").unwrap_or(0) > 0, "{name}");
        }
        let lossy = &snaps[1].1;
        assert!(
            lossy.counter("nacks_sent").unwrap_or(0) > 0,
            "8% iid loss must trigger recovery"
        );
    }
}
