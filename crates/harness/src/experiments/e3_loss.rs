//! E3 — packet-loss sweep: NACK recovery cost (§5).
//!
//! RMP recovers losses with receiver NACKs answered by any holder. This
//! sweep injects i.i.d. and bursty loss and reports delivery latency,
//! NACK/retransmission traffic and the residual duplicate rate.

use crate::metrics::LatencyStats;
use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::processor::LayerCounters;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig, SimDuration};

/// Seeds per row: one seed's tail moves by half when nothing but the
/// random stream changes, so each row is read over several.
const SEEDS: u64 = 7;
/// Rounds of one 128-byte message from each of the 4 members.
const ROUNDS: usize = 50;
const EXPECTED: usize = ROUNDS * 4;

/// What one seed of one row measured.
struct Run {
    loss_rate: f64,
    mean_us: f64,
    p99_us: u64,
    /// NACKs, retransmissions, duplicate receptions.
    recovery: (u64, u64, u64),
    delivered: usize,
    complete: bool,
    layers: LayerCounters,
}

fn run_seed(loss: LossModel, seed: u64) -> Run {
    let proto = ProtocolConfig::with_seed(seed).heartbeat(SimDuration::from_millis(5));
    let sim = SimConfig::with_seed(seed).loss(loss);
    let mut w = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
    for _ in 0..ROUNDS {
        for id in 1..=4u32 {
            w.send(id, 128);
        }
        w.run_ms(5);
    }
    w.run_ms(1_000);
    let res = w.collect();
    let stats = LatencyStats::from_samples(&res.latencies_us);
    Run {
        loss_rate: w.net.stats().loss_rate(),
        mean_us: stats.mean_us,
        p99_us: stats.p99_us,
        recovery: w.recovery_stats(),
        delivered: res.delivered(),
        complete: res.delivered() == EXPECTED && res.all_agree(),
        layers: w.layer_totals(),
    }
}

/// The median of `v` (the upper one of an even count), and its min and max.
fn spread<T: PartialOrd + Copy>(mut v: Vec<T>) -> (T, T, T) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

fn run_one(loss: LossModel, label: &str, t: &mut Table, layers: &mut Table) {
    let runs: Vec<Run> = (0..SEEDS)
        .map(|k| run_seed(loss.clone(), 0xE3 + k))
        .collect();
    let med = |f: fn(&Run) -> u64| spread(runs.iter().map(f).collect()).0.to_string();
    let (rate, _, _) = spread(runs.iter().map(|r| r.loss_rate).collect());
    let (mean, mean_lo, mean_hi) = spread(runs.iter().map(|r| r.mean_us / 1000.0).collect());
    let (p99, p99_lo, p99_hi) = spread(runs.iter().map(|r| r.p99_us as f64 / 1000.0).collect());
    let failed: Vec<&Run> = runs.iter().filter(|r| !r.complete).collect();
    t.row(vec![
        label.to_string(),
        format!("{rate:.3}"),
        format!("{mean:.3} ms"),
        format!("{mean_lo:.3}–{mean_hi:.3}"),
        format!("{p99:.2} ms"),
        format!("{p99_lo:.2}–{p99_hi:.2}"),
        med(|r| r.recovery.0),
        med(|r| r.recovery.1),
        med(|r| r.recovery.2),
        match failed.first() {
            None => "PASS".into(),
            Some(r) => format!(
                "FAIL ({} of {SEEDS} seeds; {}/{EXPECTED})",
                failed.len(),
                r.delivered
            ),
        },
    ]);
    layers.row(vec![
        label.to_string(),
        med(|r| r.layers.rmp.msgs_in),
        med(|r| r.layers.rmp.msgs_out),
        med(|r| r.layers.rmp.duplicates),
        med(|r| r.layers.rmp.retransmits_answered),
        med(|r| r.layers.rmp.reorder_depth_max),
        med(|r| r.layers.romp.delivered),
        med(|r| r.layers.romp.queue_high_water),
    ]);
}

/// Run E3.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e3",
        "Loss sweep: recovery latency and NACK traffic (4 members, 200 msgs, median of 7 seeds)",
        &[
            "loss model",
            "measured rate",
            "mean latency",
            "mean min–max",
            "p99 latency",
            "p99 min–max",
            "NACKs",
            "retransmissions",
            "dup rx",
            "all delivered",
        ],
    );
    let mut layers = Table::new(
        "e3-layers",
        "Loss sweep: per-layer counters summed over the 4 members (median of 7 seeds)",
        &[
            "loss model",
            "rmp in",
            "rmp released",
            "rmp dups",
            "retx answered",
            "reorder depth max",
            "romp delivered",
            "romp queue hwm",
        ],
    );
    run_one(LossModel::None, "none", &mut t, &mut layers);
    for p in [0.01, 0.05, 0.10, 0.20] {
        run_one(
            LossModel::Iid { p },
            &format!("iid {:.0}%", p * 100.0),
            &mut t,
            &mut layers,
        );
    }
    run_one(
        LossModel::Burst {
            p_good: 0.01,
            p_bad: 0.5,
            p_enter_bad: 0.01,
            p_exit_bad: 0.1,
        },
        "burst (GE)",
        &mut t,
        &mut layers,
    );
    t.note("every cell but the ranges is the median over seeds 0xE3..0xE9; a row passes only when every seed delivers everything");
    t.note("mean latency degrades gracefully; p99 absorbs the NACK round trips");
    t.note("dup rx counts extra copies received (any-holder redundancy + crossed retransmissions)");
    layers.note("rmp released == romp delivered at quiescence: every source-ordered message reaches total order");
    layers.note("reorder depth and the romp queue high-water grow with loss: gaps park messages in both layers");
    vec![t, layers]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_recovers_everything_at_every_loss_rate() {
        let tables = super::run();
        let rendered = tables[0].render();
        assert!(!rendered.contains("FAIL"), "{rendered}");
        // NACK count must grow with loss.
        let rows = &tables[0].rows;
        let nacks = |i: usize| -> u64 { rows[i][6].parse().unwrap() };
        assert_eq!(nacks(0), 0, "no loss, no NACKs");
        assert!(nacks(4) > nacks(1), "20% loss NACKs more than 1%");
    }
}
