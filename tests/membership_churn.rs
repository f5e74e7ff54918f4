//! Integration: voluntary joins and leaves under traffic and loss (§7.1).
//!
//! Delivery agreement — including the joiner-suffix property — is asserted
//! by the `ftmp-check` oracle suite; the bodies keep the membership-state
//! assertions the oracles cannot see.

use bytes::Bytes;
use ftmp::check::{world_conn, FtmpWorld};
use ftmp::core::{ClockMode, Command, ProcessorId, ProtocolConfig, ProtocolEvent, RequestNum};
use ftmp::net::{LossModel, SimConfig};

/// `founders` members under the oracles, at `seed`, with `loss` on every
/// link.
fn world(seed: u64, loss: f64, founders: u32) -> FtmpWorld {
    let cfg = SimConfig::with_seed(seed).loss(if loss > 0.0 {
        LossModel::Iid { p: loss }
    } else {
        LossModel::None
    });
    let mut w = FtmpWorld::new(
        founders,
        cfg,
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    w.attach_checker();
    w
}

/// A fresh processor `id` waiting to be added; one the simulator already
/// knows stands in for its crashed or departed incarnation.
fn add_joiner(w: &mut FtmpWorld, id: u32, seed: u64) {
    w.joiner(id, ProtocolConfig::with_seed(seed));
}

fn send(w: &mut FtmpWorld, id: u32, req: u64) {
    let publish = Command::Publish {
        conn: world_conn(),
        request: RequestNum(req),
        giop: Bytes::from(vec![req as u8]),
    };
    w.command(id, publish);
}

fn membership_of(w: &FtmpWorld, id: u32) -> Option<Vec<u32>> {
    w.net
        .node(id)
        .and_then(|n| n.engine().membership(w.group()))
        .map(|m| m.iter().map(|p| p.0).collect())
}

#[test]
fn sequential_joins_grow_the_group() {
    let seed = 21;
    let mut w = world(seed, 0.0, 2);
    for joiner in 3..=6u32 {
        add_joiner(&mut w, joiner, seed);
        w.sponsor(1, joiner);
        w.run_ms(80);
        for id in 1..=joiner {
            assert_eq!(
                membership_of(&w, id).unwrap().len(),
                joiner as usize,
                "P{id} after P{joiner} joined"
            );
        }
    }
    w.checker().finish(1..=6);
    w.checker().assert_clean("sequential joins");
}

#[test]
fn joins_complete_under_loss() {
    let seed = 22;
    let mut w = world(seed, 0.15, 3);
    add_joiner(&mut w, 4, seed);
    w.sponsor(2, 4);
    w.run_ms(1_000);
    for id in 1..=4u32 {
        assert_eq!(membership_of(&w, id).unwrap().len(), 4, "P{id}");
    }
    w.checker().finish(1..=4);
    w.checker().assert_clean("join under loss");
}

#[test]
fn leave_then_rejoin_with_fresh_state() {
    let seed = 23;
    let mut w = world(seed, 0.0, 3);
    w.run_ms(20);
    // P3 leaves.
    w.leave(3, 1);
    w.run_ms(100);
    assert!(membership_of(&w, 3).is_none(), "P3 left");
    assert_eq!(membership_of(&w, 1).unwrap(), vec![1, 2]);
    // P3 rejoins cold.
    add_joiner(&mut w, 3, seed);
    w.sponsor(1, 3);
    w.run_ms(200);
    assert_eq!(membership_of(&w, 3).unwrap(), vec![1, 2, 3]);
    w.checker().finish(1..=3);
    w.checker().assert_clean("leave then rejoin");
    let evs = w.net.node_mut(3).unwrap().take_events();
    assert!(evs
        .iter()
        .any(|(_, e)| matches!(e, ProtocolEvent::JoinedGroup { .. })));
}

#[test]
fn joiner_delivery_suffix_matches_founders() {
    let seed = 24;
    let mut w = world(seed, 0.05, 2);
    // Pre-join traffic.
    for k in 0..10u64 {
        send(&mut w, (k % 2) as u32 + 1, k);
        w.run_ms(3);
    }
    w.run_ms(200);
    add_joiner(&mut w, 3, seed);
    w.sponsor(1, 3);
    w.run_ms(200);
    // Post-join traffic.
    for k in 10..25u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    w.run_ms(800);
    // The total-order oracle holds the joiner to exactly the founders'
    // suffix (a mid-log entry must track the agreed order from there on);
    // the counts below pin that the suffix was strict and non-empty.
    w.checker().finish(1..=3);
    w.checker().assert_clean("joiner suffix");
    let founder_count = w.net.node_mut(1).unwrap().take_deliveries().len();
    let joiner_count = w.net.node_mut(3).unwrap().take_deliveries().len();
    assert_eq!(founder_count, 25, "founders saw everything");
    assert!(
        joiner_count > 0 && joiner_count < 25,
        "joiner saw a strict suffix (got {joiner_count})"
    );
}

#[test]
fn concurrent_traffic_during_join_stays_ordered() {
    let seed = 25;
    let mut w = world(seed, 0.05, 3);
    add_joiner(&mut w, 4, seed);
    // Traffic in flight while the join happens.
    for k in 0..5u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
    }
    w.sponsor(1, 4);
    for k in 5..15u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(2);
    }
    w.run_ms(800);
    // Founder agreement and the consistency of the joiner's suffix are the
    // total-order oracle's job; the count pins that nothing was lost.
    w.checker().finish(1..=4);
    w.checker().assert_clean("concurrent traffic during join");
    assert_eq!(w.net.node_mut(1).unwrap().take_deliveries().len(), 15);
}

/// Regression: a re-add issued while the survivors still list the crashed
/// incarnation. Three founders; P3 crashes, restarts as a joiner 10 ms
/// later, and P1 is asked at once to add it back. The add has to wait out
/// the conviction and then go through; dropping it because the stale id
/// was still listed left the view at {P1, P2} for good.
#[test]
fn a_re_add_issued_before_the_conviction_completes_after_it() {
    let seed = 26;
    let mut w = world(seed, 0.0, 3);
    for k in 0..6u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    w.crash(3);
    w.run_ms(10);
    add_joiner(&mut w, 3, seed);
    assert_eq!(
        membership_of(&w, 1).unwrap(),
        vec![1, 2, 3],
        "not convicted yet"
    );
    w.sponsor(1, 3);
    w.run_ms(3_000);
    for id in 1..=3u32 {
        assert_eq!(
            membership_of(&w, id),
            Some(vec![1, 2, 3]),
            "P{id}: P3 came back"
        );
    }
    for k in 6..12u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    w.run_ms(500);
    w.checker().finish(1..=3);
    w.checker().assert_clean("re-add before conviction");
}

/// The same re-add asked of the engine once, with no host retrying it (a
/// host that calls `Processor::add_processor` itself, as the benchmark's
/// does): the sponsor's PGMP keeps the request while the stale incarnation
/// is listed and sends it once a settled view no longer lists the id.
/// Dropped before, the restarted member never delivered.
#[test]
fn an_engine_asked_once_to_re_add_a_listed_id_adds_it_after_the_conviction() {
    let seed = 32;
    let mut w = world(seed, 0.0, 3);
    for k in 0..6u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    w.crash(3);
    w.run_ms(50);
    add_joiner(&mut w, 3, seed);
    let group = w.group();
    w.net.with_node(1, |n, now, out| {
        n.engine_mut().add_processor(now, group, ProcessorId(3));
        n.pump(now, out);
    });
    assert_eq!(
        membership_of(&w, 1).unwrap(),
        vec![1, 2, 3],
        "asked before the conviction"
    );
    w.run_ms(1_000);
    for id in 1..=3u32 {
        assert_eq!(
            membership_of(&w, id),
            Some(vec![1, 2, 3]),
            "P{id}: P3 came back"
        );
    }
    for k in 6..12u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    w.run_ms(500);
    let delivered = w.net.node_mut(3).map_or(0, |n| n.take_deliveries().len());
    assert!(delivered >= 6, "the restarted member delivered {delivered}");
    w.checker().finish(1..=3);
    w.checker().assert_clean("engine re-add before conviction");
}

/// An add asked for a member that is listed and alive (a host's duplicate
/// call) is dropped once the member is heard: when that member later
/// leaves of its own accord, the sponsor does not add it back.
#[test]
fn an_add_for_a_live_member_does_not_bring_it_back_after_it_leaves() {
    let seed = 27;
    let mut w = world(seed, 0.0, 3);
    for k in 0..6u64 {
        send(&mut w, (k % 3) as u32 + 1, k);
        w.run_ms(3);
    }
    let group = w.group();
    w.net.with_node(1, |n, now, out| {
        n.engine_mut().add_processor(now, group, ProcessorId(3));
        n.pump(now, out);
    });
    w.run_ms(50);
    w.leave(3, 1);
    w.run_ms(1_000);
    assert!(membership_of(&w, 3).is_none(), "P3 left");
    for id in 1..=2u32 {
        assert_eq!(membership_of(&w, id), Some(vec![1, 2]), "P{id}");
    }
    let adds = w.net.node(1).map_or(0, |n| {
        n.engine()
            .stats()
            .sent_of(ftmp::core::wire::FtmpMsgType::AddProcessor)
    });
    assert_eq!(adds, 0, "P1 sent an AddProcessor for the departed P3");
    w.checker().finish(1..=2);
    w.checker()
        .assert_clean("add for a live member, then a leave");
}
