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
use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::{
    ClockMode, ConnectionId, GroupId, ObjectGroupId, Processor, ProcessorId, ProtocolConfig,
};
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet};
use ftmp_orb::servant::{encode_i64_arg, BankAccount};
use ftmp_orb::{OrbEndpoint, OrbNode};

const DOMAIN: McastAddr = McastAddr(500);
const GROUP: McastAddr = McastAddr(600);
const ROUNDS: usize = 30;

fn og_server() -> ObjectGroupId {
    ObjectGroupId::new(2, 7)
}

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), og_server())
}

struct Outcome {
    rtt: LatencyStats,
    replies: u64,
    wire_bytes: u64,
    completed: usize,
    failover_completed: usize,
}

fn run_style(passive: bool, m: u32, seed: u64) -> Outcome {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.set_classifier(ftmp_core::wire::classify);
    let servers: Vec<ProcessorId> = (2..=m + 1).map(ProcessorId).collect();
    for id in 1..=m + 1 {
        let mut proc = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(seed).heartbeat(SimDuration::from_millis(2)),
            ClockMode::Lamport,
        );
        let mut orb = OrbEndpoint::new();
        if id == 1 {
            orb.register_client(conn());
        } else {
            orb.host_replica(
                og_server(),
                b"acct".to_vec(),
                Box::new(BankAccount::with_balance(0)),
            );
            if passive {
                orb.set_warm_passive(og_server(), ProcessorId(id), servers.clone());
            }
            proc.register_server(
                og_server(),
                ServerRegistration {
                    processors: servers.clone(),
                    pool: vec![(GroupId(10), GROUP)],
                },
                DOMAIN,
            );
        }
        net.add_node(id, OrbNode::new(proc, orb));
        net.with_node(id, |n, now, out| n.pump(now, out));
    }
    net.with_node(1, |n, now, out| {
        n.proc_mut()
            .open_connection(now, conn(), vec![ProcessorId(1)], DOMAIN);
        n.pump(now, out);
    });
    net.run_for(SimDuration::from_millis(100));
    net.reset_stats();

    let mut lats = Vec::new();
    let mut completed = 0usize;
    for _ in 0..ROUNDS {
        let t0 = net.now();
        net.with_node(1, |n, now, out| {
            n.invoke(now, conn(), b"acct", "deposit", &encode_i64_arg(1), out);
        });
        for _ in 0..200 {
            net.run_for(SimDuration::from_micros(200));
            let done = net.with_node(1, |n, _, _| n.take_completions()).unwrap();
            if !done.is_empty() {
                completed += done.len();
                lats.push(net.now().saturating_since(t0).as_micros());
                break;
            }
        }
    }
    let wire_bytes = net.stats().sent_bytes;
    // Reply multiplicity, observed at the client: each executing replica
    // multicasts its own reply; the duplicate detector suppresses all but
    // the first, so completed + suppressed = total replies on the wire —
    // i.e. the number of replicas that executed each request. The last
    // request completes on its first reply; its others are counted once
    // they have been ordered too.
    net.run_for(SimDuration::from_millis(20));
    let replies = completed as u64 + net.node(1).unwrap().orb().suppression_counts().1;
    // Failover: crash the smallest server (the passive primary), invoke 3
    // more times, count completions within the window.
    net.crash(2);
    for _ in 0..3 {
        net.with_node(1, |n, now, out| {
            n.invoke(now, conn(), b"acct", "deposit", &encode_i64_arg(1), out);
        });
        net.run_for(SimDuration::from_millis(30));
    }
    net.run_for(SimDuration::from_millis(1_500));
    let failover_completed = net
        .with_node(1, |n, _, _| n.take_completions())
        .unwrap()
        .len();
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
        for &passive in &[false, true] {
            let o = run_style(passive, m, 0xE10 + m as u64 + u64::from(passive));
            t.row(vec![
                if passive {
                    "warm-passive".into()
                } else {
                    "active".to_string()
                },
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
