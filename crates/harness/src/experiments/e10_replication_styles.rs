//! E10 — active vs warm-passive replication (the FT-CORBA extension of the
//! paper's model).
//!
//! Active replication executes every request m times and multicasts m
//! replies; warm-passive executes once and multicasts one reply plus one
//! state update. The trade is execution CPU + reply traffic against
//! state-transfer bytes and a failover window. This experiment measures
//! both styles on the same workload: invocation RTT, wire traffic, the
//! number of servant executions, and the failover gap after a primary /
//! replica crash.

use crate::metrics::LatencyStats;
use crate::report::Table;
use ftmp_check::OrbWorld;
use ftmp_core::ProtocolConfig;
use ftmp_net::{SimConfig, SimDuration, SimTime};
use ftmp_orb::servant::BankAccount;
use ftmp_orb::ReplicationStyle;

const ROUNDS: usize = 30;

struct Outcome {
    rtt: LatencyStats,
    replies: u64,
    wire_bytes: u64,
    completed: usize,
    failover_completed: usize,
}

fn run_style(style: ReplicationStyle, m: u32, seed: u64) -> Outcome {
    let mut w = OrbWorld::with_style(
        1,
        m,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed).heartbeat(SimDuration::from_millis(2)),
        style,
        || Box::new(BankAccount::with_balance(0)),
    );
    // The timed rounds start 100 ms into the run, however soon the
    // handshake completed.
    w.net
        .run_until(SimTime::ZERO + SimDuration::from_millis(100));
    w.net.reset_stats();

    let mut lats = Vec::new();
    let mut completed = 0usize;
    for _ in 0..ROUNDS {
        let t0 = w.net.now();
        w.invoke_all("deposit", 1);
        for _ in 0..200 {
            w.net.run_for(SimDuration::from_micros(200));
            let (done, _) = w.drain_completions();
            if !done.is_empty() {
                completed += done.len();
                lats.push(w.net.now().saturating_since(t0).as_micros());
                break;
            }
        }
    }
    let wire_bytes = w.net.stats().sent_bytes;
    // Reply multiplicity, observed at the client: each executing replica
    // multicasts its own reply; the duplicate detector suppresses all but
    // the first, so completed + suppressed = total replies on the wire —
    // i.e. the number of replicas that executed each request. The last
    // request completes on its first reply; its others are counted once
    // they have been ordered too.
    w.run_ms(20);
    let replies = completed as u64 + w.net.node(1).unwrap().orb().suppression_counts().1;
    // Failover: crash the smallest server (the passive primary), invoke 3
    // more times, count completions within the window.
    w.crash(2);
    for _ in 0..3 {
        w.invoke_all("deposit", 1);
        w.run_ms(30);
    }
    w.run_ms(1_500);
    let failover_completed = w.drain_completions().0.len();
    Outcome {
        rtt: LatencyStats::from_samples(&lats),
        replies,
        wire_bytes,
        completed,
        failover_completed,
    }
}

/// Run E10.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e10",
        "Replication styles: active vs warm-passive (1 client, m server replicas, 30 invocations)",
        &[
            "style",
            "m",
            "mean RTT",
            "p99 RTT",
            "replies multicast",
            "wire KiB",
            "completed",
            "after primary crash",
        ],
    );
    for &m in &[2u32, 3] {
        for (seed, style, name) in [
            (0, ReplicationStyle::Active, "active"),
            (1, ReplicationStyle::WarmPassive, "warm-passive"),
        ] {
            let o = run_style(style, m, 0xE10 + u64::from(m) + seed);
            t.row(vec![
                name.into(),
                m.to_string(),
                format!("{} ms", o.rtt.mean_ms()),
                format!("{:.2} ms", o.rtt.p99_us as f64 / 1000.0),
                o.replies.to_string(),
                format!("{:.1}", o.wire_bytes as f64 / 1024.0),
                format!("{}/{ROUNDS}", o.completed),
                format!("{}/3", o.failover_completed),
            ]);
        }
    }
    t.note("replies multicast = replicas that executed (active: every replica replies; warm-passive: only the primary) — measured at the client as completions + suppressed duplicates");
    t.note("warm-passive trades the redundant executions/replies for one state-snapshot multicast per request (visible in the wire bytes) and a failover replay window");
    t.note("failover column: requests issued while the crashed replica (the passive primary) is being detected — passive answers them by replaying the pending suffix at the new primary");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_execution_counts_separate_the_styles() {
        let tables = super::run();
        let rows = &tables[0].rows;
        let replies = |style: &str, m: &str| -> u64 {
            rows.iter().find(|r| r[0] == style && r[1] == m).unwrap()[4]
                .parse()
                .unwrap()
        };
        assert_eq!(
            replies("active", "3"),
            90,
            "3 replicas each replied to 30 requests"
        );
        assert_eq!(replies("warm-passive", "3"), 30, "only the primary replied");
        // Everything completes, including through the failover.
        for r in rows {
            assert_eq!(r[6], "30/30", "{r:?}");
            assert_eq!(r[7], "3/3", "{r:?}");
        }
    }
}
