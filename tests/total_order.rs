//! Integration: total-order guarantees through the public facade, across
//! seeds, loss models and group sizes.
//!
//! The order properties themselves (source order, causal order, total
//! order, gap-freedom, duplicate suppression, reclamation safety) are
//! checked by the `ftmp-check` oracle suite attached to every member; the
//! test bodies only assert workload-specific expectations like delivery
//! counts.

use ftmp::check::Checker;
use ftmp::check::FtmpWorld;
use ftmp::core::{ClockMode, ProtocolConfig};
use ftmp::net::{LatencyModel, LossModel, SimConfig, SimDuration};

fn workload(w: &mut FtmpWorld, msgs: u64) {
    for k in 0..msgs {
        let id = (k % w.n as u64) as u32 + 1;
        w.send(id, 64 + (k as usize % 256));
        w.run_ms(1);
    }
    w.run_ms(500);
}

fn assert_order_properties(w: &mut FtmpWorld, checker: &Checker, expected: usize) {
    let res = w.collect();
    assert_eq!(res.delivered(), expected, "every message delivered");
    checker.finish(w.live());
    checker.assert_clean("total_order workload");
    assert_eq!(
        checker.delivered(),
        expected as u64 * u64::from(w.n),
        "each member delivered the full workload"
    );
}

#[test]
fn agreement_across_seeds_lossless() {
    for seed in [1u64, 7, 42, 1999] {
        let mut w = FtmpWorld::new(
            4,
            SimConfig::with_seed(seed),
            ProtocolConfig::with_seed(seed),
            ClockMode::Lamport,
        );
        let checker = w.attach_checker();
        workload(&mut w, 40);
        assert_order_properties(&mut w, &checker, 40);
    }
}

#[test]
fn agreement_under_iid_loss() {
    for seed in [3u64, 11, 2024] {
        let sim = SimConfig::with_seed(seed).loss(LossModel::Iid { p: 0.12 });
        let mut w = FtmpWorld::new(5, sim, ProtocolConfig::with_seed(seed), ClockMode::Lamport);
        let checker = w.attach_checker();
        workload(&mut w, 60);
        assert_order_properties(&mut w, &checker, 60);
    }
}

#[test]
fn agreement_under_burst_loss_and_jitter() {
    let sim = SimConfig::with_seed(5)
        .loss(LossModel::Burst {
            p_good: 0.01,
            p_bad: 0.6,
            p_enter_bad: 0.02,
            p_exit_bad: 0.15,
        })
        .latency(LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(2_000),
        });
    let mut w = FtmpWorld::new(4, sim, ProtocolConfig::with_seed(5), ClockMode::Lamport);
    let checker = w.attach_checker();
    workload(&mut w, 50);
    assert_order_properties(&mut w, &checker, 50);
}

#[test]
fn agreement_with_synchronized_clocks() {
    let mut w = FtmpWorld::new(
        4,
        SimConfig::with_seed(8).loss(LossModel::Iid { p: 0.05 }),
        ProtocolConfig::with_seed(8),
        ClockMode::Synchronized { skew_us: 300 },
    );
    let checker = w.attach_checker();
    workload(&mut w, 40);
    assert_order_properties(&mut w, &checker, 40);
}

#[test]
fn large_group_converges() {
    let mut w = FtmpWorld::new(
        16,
        SimConfig::with_seed(16),
        ProtocolConfig::with_seed(16),
        ClockMode::Lamport,
    );
    let checker = w.attach_checker();
    workload(&mut w, 32);
    assert_order_properties(&mut w, &checker, 32);
}

#[test]
fn large_payloads_survive() {
    let mut w = FtmpWorld::new(
        3,
        SimConfig::with_seed(9).loss(LossModel::Iid { p: 0.05 }),
        ProtocolConfig::with_seed(9),
        ClockMode::Lamport,
    );
    let checker = w.attach_checker();
    for k in 0..10u64 {
        let id = (k % 3) as u32 + 1;
        w.send(id, 16 * 1024);
        w.run_ms(2);
    }
    w.run_ms(500);
    assert_order_properties(&mut w, &checker, 10);
}

/// Horizon on demand (DESIGN.md §4): one paced sender among quiet members.
/// Each quiet member answers a message it is holding back with a Heartbeat
/// at once, so the ordering hold is a round trip, not the 10 ms heartbeat
/// interval the timer alone gives (median 5 ms).
#[test]
fn paced_sender_orders_within_a_round_trip_at_every_member() {
    const MSGS: usize = 100;
    for n in [3u32, 5, 7] {
        let seed = 70 + u64::from(n);
        let mut w = FtmpWorld::new(
            n,
            SimConfig::with_seed(seed),
            ProtocolConfig::with_seed(seed),
            ClockMode::Lamport,
        );
        let checker = w.attach_checker();
        let mut sent_at = Vec::new();
        for _ in 0..MSGS {
            sent_at.push(w.net.now().as_micros());
            w.send(1, 64);
            w.run_ms(7); // coprime to the heartbeat interval
        }
        w.run_ms(100);
        for id in 1..=n {
            let delivered = w.net.node_mut(id).unwrap().take_deliveries();
            assert_eq!(delivered.len(), MSGS, "P{id} of {n} delivered everything");
            // One sender: the k-th delivery is the k-th send.
            let mut latency: Vec<u64> = delivered
                .iter()
                .zip(&sent_at)
                .map(|((at, _), sent)| at.as_micros() - sent)
                .collect();
            latency.sort_unstable();
            let p50 = latency[MSGS / 2];
            assert!(p50 < 1_000, "P{id} of {n}: order latency p50 {p50} us");
        }
        checker.finish(w.live());
        checker.assert_clean("paced sender, horizon on demand");
        assert_eq!(checker.delivered(), MSGS as u64 * u64::from(n));
    }
}
