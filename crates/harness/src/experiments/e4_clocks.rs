//! E4 — Lamport clocks vs synchronized clocks (§2, §6).
//!
//! "Synchronized clocks can be used to achieve better performance." The
//! sweep compares pure Lamport timestamps against simulated synchronized
//! clocks with increasing skew, under an asymmetric workload (one fast
//! sender, one slow sender) where timestamp quality affects how far the
//! ordering queue runs ahead of the horizons.

use crate::metrics::LatencyStats;
use crate::report::Table;
use crate::worlds::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{SimConfig, SimDuration};

fn run_mode(mode: ClockMode, skews: &[i64]) -> (LatencyStats, bool) {
    let proto = ProtocolConfig::with_seed(0xE4).heartbeat(SimDuration::from_millis(5));
    let mut w = FtmpWorld::new(4, SimConfig::with_seed(0xE4), proto.clone(), mode);
    // Apply per-node skew in synchronized mode by rebuilding node clocks:
    // the world constructor uses one mode for all; emulate per-node skew by
    // selecting the skew for node i from `skews` (cycled).
    if let ClockMode::Synchronized { .. } = mode {
        for id in 1..=4u32 {
            let skew = skews[(id as usize - 1) % skews.len()];
            let _ = skew; // per-node skew is configured at construction below
        }
        // Rebuild with per-node modes.
        let mut w2 = build_skewed(proto, skews);
        run_load(&mut w2);
        return finish(w2);
    }
    run_load(&mut w);
    finish(w)
}

fn build_skewed(proto: ProtocolConfig, skews: &[i64]) -> FtmpWorld {
    use ftmp_core::{GroupId, Node, Processor, ProcessorId};
    use ftmp_net::{McastAddr, SimNet, SimTime};
    let group = GroupId(1);
    let addr = McastAddr(100);
    let members: Vec<ProcessorId> = (1..=4).map(ProcessorId).collect();
    let mut net = SimNet::new(SimConfig::with_seed(0xE4));
    net.set_classifier(ftmp_core::wire::classify);
    for id in 1..=4u32 {
        let mode = ClockMode::Synchronized {
            skew_us: skews[(id as usize - 1) % skews.len()],
        };
        let mut engine = Processor::new(ProcessorId(id), proto.clone(), mode);
        engine.create_group(SimTime::ZERO, group, addr, members.clone());
        engine.bind_connection(crate::worlds::world_conn(), group);
        net.add_node(id, Node::sim(engine, group));
        net.with_node(id, |node, now, out| node.pump(now, out));
    }
    FtmpWorld::from_parts(net, 4, group)
}

fn run_load(w: &mut FtmpWorld) {
    // Asymmetric: node 1 sends every 2 ms, node 2 every 40 ms.
    for k in 0..100u64 {
        w.send(1, 128);
        if k % 20 == 0 {
            w.send(2, 128);
        }
        w.run_ms(2);
    }
    w.run_ms(400);
}

fn finish(mut w: FtmpWorld) -> (LatencyStats, bool) {
    let res = w.collect();
    (
        LatencyStats::from_samples(&res.latencies_us),
        res.all_agree() && res.delivered() == 105,
    )
}

/// Run E4.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e4",
        "Timestamp source: Lamport vs synchronized clocks (asymmetric senders)",
        &["clock mode", "mean latency", "p50", "p99", "order agrees"],
    );
    let cases: Vec<(String, ClockMode, Vec<i64>)> = vec![
        ("Lamport".into(), ClockMode::Lamport, vec![0]),
        (
            "synchronized, 0 skew".into(),
            ClockMode::Synchronized { skew_us: 0 },
            vec![0, 0, 0, 0],
        ),
        (
            "synchronized, +/-250 us skew".into(),
            ClockMode::Synchronized { skew_us: 0 },
            vec![250, -250, 125, -125],
        ),
        (
            "synchronized, +/-2 ms skew".into(),
            ClockMode::Synchronized { skew_us: 0 },
            vec![2_000, -2_000, 1_000, -1_000],
        ),
    ];
    for (label, mode, skews) in cases {
        let (stats, ok) = run_mode(mode, &skews);
        t.row(vec![
            label,
            format!("{} ms", stats.mean_ms()),
            format!("{:.2} ms", stats.p50_us as f64 / 1000.0),
            format!("{:.2} ms", stats.p99_us as f64 / 1000.0),
            if ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    t.note("correctness is skew-independent: the Lamport receive rule floors every clock at the highest timestamp observed, so skewed clocks degrade latency, never order");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_order_agreement_under_all_clock_modes() {
        let tables = super::run();
        let rendered = tables[0].render();
        assert!(!rendered.contains("FAIL"), "{rendered}");
    }
}
