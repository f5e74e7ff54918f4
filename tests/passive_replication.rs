//! Integration: warm-passive replication — only the primary executes,
//! backups apply shipped state, and failover replays the pending suffix.
//! (The FT-CORBA-style extension of the paper's active-replication model;
//! see `ftmp_orb::passive`.)

use ftmp::check::{orb_conn, OrbWorld};
use ftmp::core::ProtocolConfig;
use ftmp::net::SimConfig;
use ftmp::orb::servant::{decode_i64_result, BankAccount};
use ftmp::orb::{InvocationResult, ReplicationStyle};

/// 1 client (P1) + 3 warm-passive server replicas (P2..P4).
fn build(seed: u64) -> OrbWorld {
    OrbWorld::with_style(
        1,
        3,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed),
        ReplicationStyle::WarmPassive,
        || Box::new(BankAccount::with_balance(1_000)),
    )
}

#[test]
fn only_the_primary_executes_and_backups_track_state() {
    let mut w = build(81);
    for i in 0..10i64 {
        w.invoke_all("deposit", 10 + i);
        w.run_ms(20);
    }
    w.run_ms(200);
    // All replicas converge on the same balance…
    let [a2, a3, a4] = [2, 3, 4].map(|id| w.state::<BankAccount>(id));
    assert_eq!(a2.balance(), 1_000 + (10..20).sum::<i64>());
    assert_eq!(a2.balance(), a3.balance());
    assert_eq!(a3.balance(), a4.balance());
    // …but only the primary (P2, smallest id) actually executed; the
    // backups' states came from shipped snapshots, so the op counter they
    // carry is the primary's.
    assert_eq!(a2.ops_applied, 10, "primary executed everything");
    assert_eq!(a3.ops_applied, 10, "backup state is the shipped snapshot");
    assert_eq!(a4.ops_applied, 10);
    assert!(w.net.node(2).unwrap().orb().is_primary(orb_conn().server));
    assert!(!w.net.node(3).unwrap().orb().is_primary(orb_conn().server));
    assert_eq!(
        w.net.node(3).unwrap().orb().style_of(orb_conn().server),
        ReplicationStyle::WarmPassive
    );
    // The client completed everything exactly once.
    assert_eq!(w.drain_completions().0.len(), 10);
}

#[test]
fn primary_failover_replays_pending_and_answers() {
    let mut w = build(82);
    // Normal operation.
    for _ in 0..5 {
        w.invoke_all("deposit", 100);
        w.run_ms(20);
    }
    w.run_ms(100);
    w.drain_completions();

    // The primary crashes. Requests issued while the survivors are still
    // detecting the fault get ordered and buffered as pending at backups.
    w.crash(2);
    for _ in 0..3 {
        w.invoke_all("deposit", 1);
        w.run_ms(30);
    }
    // Fault detection, conviction, membership change, failover replay.
    w.run_ms(1_500);
    assert!(
        w.net.node(3).unwrap().orb().is_primary(orb_conn().server),
        "P3 took over as primary"
    );
    // The client received replies for the in-flight requests (replayed by
    // the new primary).
    let done = w.net.node_mut(1).unwrap().take_completions();
    assert_eq!(done.len(), 3, "in-flight requests answered after failover");
    for c in &done {
        match &c.result {
            InvocationResult::Ok(b) => {
                assert!(decode_i64_result(b).unwrap() >= 1_500);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Survivors agree on the final balance: 1000 + 5*100 + 3*1.
    let balance = |id| w.state::<BankAccount>(id).balance();
    assert_eq!(balance(3), 1_503);
    assert_eq!(balance(3), balance(4));

    // Service continues under the new primary.
    w.invoke_all("withdraw", 3);
    w.run_ms(200);
    assert_eq!(w.drain_completions().0.len(), 1);
    assert_eq!(w.state::<BankAccount>(3).balance(), 1_500);
}

#[test]
fn double_failover_survives() {
    let mut w = build(83);
    w.invoke_all("deposit", 7);
    w.run_ms(100);
    w.crash(2);
    w.run_ms(1_200);
    w.invoke_all("deposit", 7);
    w.run_ms(200);
    w.crash(3);
    w.run_ms(1_500);
    assert!(w.net.node(4).unwrap().orb().is_primary(orb_conn().server));
    w.invoke_all("deposit", 7);
    w.run_ms(300);
    assert_eq!(
        w.state::<BankAccount>(4).balance(),
        1_021,
        "three deposits applied exactly once across two failovers"
    );
    assert_eq!(w.drain_completions().0.len(), 3);
}
