//! E4 — Lamport clocks vs synchronized clocks (§2, §6).
//!
//! "Synchronized clocks can be used to achieve better performance." The
//! sweep compares pure Lamport timestamps against simulated synchronized
//! clocks with increasing skew, under an asymmetric workload (one fast
//! sender, one slow sender) where timestamp quality affects how far the
//! ordering queue runs ahead of the horizons.

use crate::metrics::LatencyStats;
use crate::report::Table;
use ftmp_check::{Clocks, FtmpWorld};
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{SimConfig, SimDuration};

fn run_mode(clocks: impl Clocks + 'static) -> (LatencyStats, bool) {
    let proto = ProtocolConfig::with_seed(0xE4).heartbeat(SimDuration::from_millis(5));
    let mut w = FtmpWorld::new(4, SimConfig::with_seed(0xE4), proto, clocks);
    run_load(&mut w);
    finish(w)
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
    // Synchronized clocks skew member `id` by `skews[id - 1]`.
    let cases: [(&str, Option<[i64; 4]>); 4] = [
        ("Lamport", None),
        ("synchronized, 0 skew", Some([0; 4])),
        ("synchronized, +/-250 us skew", Some([250, -250, 125, -125])),
        (
            "synchronized, +/-2 ms skew",
            Some([2_000, -2_000, 1_000, -1_000]),
        ),
    ];
    for (label, skews) in cases {
        let (stats, ok) = match skews {
            None => run_mode(ClockMode::Lamport),
            Some(skews) => run_mode(move |id: u32| ClockMode::Synchronized {
                skew_us: skews[id as usize - 1],
            }),
        };
        t.row(vec![
            label.into(),
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
