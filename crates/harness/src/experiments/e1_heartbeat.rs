//! E1 — the heartbeat-interval compromise (§5).
//!
//! "The choice of the heartbeat interval is a compromise between message
//! latency and network traffic. A shorter heartbeat interval results in
//! lower message latency but higher network traffic." This sweep measures
//! both sides of that compromise: a sparse single-sender workload (where
//! ordering must wait for other members' heartbeats to advance the
//! horizons) against the total packet and byte rate on the wire.

use crate::metrics::{fmt_rate, LatencyStats};
use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::wire::FtmpMsgType;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{SimConfig, SimDuration};

/// One sweep cell: `(latency, packets, heartbeat packets, seconds)` of the
/// sparse single-sender workload at one heartbeat interval.
fn cell(hb_ms: u64, prompt_horizon: bool) -> (LatencyStats, u64, u64, f64) {
    let proto = ProtocolConfig::with_seed(0xE1)
        .heartbeat(SimDuration::from_millis(hb_ms))
        .prompt_horizon(prompt_horizon);
    let mut w = FtmpWorld::new(5, SimConfig::with_seed(0xE1), proto, ClockMode::Lamport);
    // Sparse sender: one message every 50 ms for 2 simulated seconds.
    let rounds = 40;
    for _ in 0..rounds {
        w.send(1, 128);
        w.run_ms(50);
    }
    w.run_ms(500);
    let res = w.collect();
    assert_eq!(res.delivered(), rounds, "all messages delivered");
    let total = w.net.stats().sent_packets;
    let hb = w.net.stats().kind_packets(FtmpMsgType::Heartbeat as u8);
    let secs = w.net.now().as_secs_f64();
    (
        LatencyStats::from_samples(&res.latencies_us),
        total,
        hb,
        secs,
    )
}

/// Run E1.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e1",
        "Heartbeat interval vs delivery latency vs network traffic (5 members, 1 sparse sender)",
        &[
            "hb interval",
            "timer only: mean",
            "p99",
            "pkts/s",
            "hb share",
            "on demand: mean",
            "p99",
            "pkts/s",
            "hb share",
        ],
    );
    for hb_ms in [1u64, 2, 5, 10, 20, 50, 100] {
        let mut row = vec![format!("{hb_ms} ms")];
        // The paper's heartbeat (timer only), then the default (a quiet
        // member holding back delivery answers at once, DESIGN.md §4).
        for prompt_horizon in [false, true] {
            let (stats, total, hb, secs) = cell(hb_ms, prompt_horizon);
            row.extend([
                format!("{} ms", stats.mean_ms()),
                format!("{:.3} ms", stats.p99_us as f64 / 1000.0),
                fmt_rate(total, secs),
                format!("{:.0}%", 100.0 * hb as f64 / total.max(1) as f64),
            ]);
        }
        t.row(row);
    }
    t.note("latency is send -> ordered delivery, sampled at every receiver");
    t.note("timer only (prompt_horizon = false, the paper's protocol): with one sparse sender, ordering waits for every member's next heartbeat: latency tracks the interval, traffic tracks its inverse");
    t.note("on demand (the default): a quiet member that is holding back delivery heartbeats at once if it sent nothing for half an interval, or sooner by spending a token of its group's prompt budget (one per 128 datagrams received), else as soon as that half has passed: the hold is one round trip at best and interval / 2 at worst (p99 = interval / 2 + 1.3 ms), for the same packet rate while the timer, not the sender, sets the heartbeat cadence; the 50 ms send period is a multiple of most intervals here, so the timer heartbeat tends to leave just before the message arrives (the worst phase), and at long intervals the sparse traffic rarely banks a token");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_shows_the_compromise() {
        let tables = super::run();
        let rows = &tables[0].rows;
        let ms = |r: &Vec<String>, col: usize| -> f64 {
            r[col].trim_end_matches(" ms").parse().unwrap()
        };
        // Timer only, the paper's claim: 1 ms vs 100 ms heartbeats.
        let (first, last) = (ms(&rows[0], 1), ms(rows.last().unwrap(), 1));
        assert!(
            last > 3.0 * first,
            "latency must grow with the heartbeat interval ({first} vs {last})"
        );
        // On demand: the hold is bounded by half the interval, not all of it.
        for r in &rows[2..] {
            let interval = ms(r, 0);
            assert!(ms(r, 6) < interval / 2.0 + 2.0, "p99 at {}: {}", r[0], r[6]);
            assert!(
                ms(r, 5) < ms(r, 1),
                "mean at {}: {} vs {}",
                r[0],
                r[5],
                r[1]
            );
        }
    }
}
