//! E3 — packet-loss sweep: NACK recovery cost (§5).
//!
//! RMP recovers losses with receiver NACKs answered by any holder. This
//! sweep injects i.i.d. and bursty loss and reports delivery latency,
//! NACK/retransmission traffic and the residual duplicate rate.

use crate::metrics::LatencyStats;
use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig, SimDuration};

fn run_one(loss: LossModel, label: &str, t: &mut Table, layers: &mut Table) {
    let proto = ProtocolConfig::with_seed(0xE3).heartbeat(SimDuration::from_millis(5));
    let sim = SimConfig::with_seed(0xE3).loss(loss);
    let mut w = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
    let rounds = 50u64;
    for _ in 0..rounds {
        for id in 1..=4u32 {
            w.send(id, 128);
        }
        w.run_ms(5);
    }
    w.run_ms(1_000);
    let res = w.collect();
    let stats = LatencyStats::from_samples(&res.latencies_us);
    let (nacks, retrans, dups) = w.recovery_stats();
    let expected = rounds as usize * 4;
    let complete = res.delivered() == expected && res.all_agree();
    t.row(vec![
        label.to_string(),
        format!("{:.3}", w.net.stats().loss_rate()),
        format!("{} ms", stats.mean_ms()),
        format!("{:.2} ms", stats.p99_us as f64 / 1000.0),
        nacks.to_string(),
        retrans.to_string(),
        dups.to_string(),
        if complete {
            "PASS".into()
        } else {
            format!("FAIL ({}/{expected})", res.delivered())
        },
    ]);
    let lt = w.layer_totals();
    layers.row(vec![
        label.to_string(),
        lt.rmp.msgs_in.to_string(),
        lt.rmp.msgs_out.to_string(),
        lt.rmp.duplicates.to_string(),
        lt.rmp.retransmits_answered.to_string(),
        lt.rmp.reorder_depth_max.to_string(),
        lt.romp.delivered.to_string(),
        lt.romp.queue_high_water.to_string(),
    ]);
}

/// Run E3.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e3",
        "Loss sweep: recovery latency and NACK traffic (4 members, 200 msgs)",
        &[
            "loss model",
            "measured rate",
            "mean latency",
            "p99 latency",
            "NACKs",
            "retransmissions",
            "dup rx",
            "all delivered",
        ],
    );
    let mut layers = Table::new(
        "e3-layers",
        "Loss sweep: per-layer counters summed over the 4 members",
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
        let nacks = |i: usize| -> u64 { rows[i][4].parse().unwrap() };
        assert_eq!(nacks(0), 0, "no loss, no NACKs");
        assert!(nacks(4) > nacks(1), "20% loss NACKs more than 1%");
    }
}
