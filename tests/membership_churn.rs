//! Integration: voluntary joins and leaves under traffic and loss (§7.1).
//!
//! Delivery agreement — including the joiner-suffix property — is asserted
//! by the `ftmp-check` oracle suite; the bodies keep the membership-state
//! assertions the oracles cannot see.

use bytes::Bytes;
use ftmp::check::Checker;
use ftmp::core::{
    ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum,
};
use ftmp::net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

fn make_net(seed: u64, loss: f64) -> SimNet<Node> {
    let cfg = SimConfig::with_seed(seed).loss(if loss > 0.0 {
        LossModel::Iid { p: loss }
    } else {
        LossModel::None
    });
    let mut net = SimNet::new(cfg);
    net.set_classifier(ftmp::core::wire::classify);
    net
}

fn add_founder(
    net: &mut SimNet<Node>,
    checker: &Checker,
    id: u32,
    founders: &[ProcessorId],
    seed: u64,
) {
    let mut e = Processor::new(
        ProcessorId(id),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    e.create_group(SimTime::ZERO, GROUP, ADDR, founders.to_vec());
    e.bind_connection(conn(), GROUP);
    net.add_node(id, Node::sim(e, GROUP));
    checker.attach(net, id);
    net.with_node(id, |n, now, out| n.pump(now, out));
}

/// A fresh processor `id` waiting to be added; `revive` stands it in for a
/// crashed or departed incarnation of the same id.
fn add_joiner(net: &mut SimNet<Node>, checker: &Checker, id: u32, seed: u64, revive: bool) {
    let mut e = Processor::new(
        ProcessorId(id),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    e.expect_join(GROUP, ADDR);
    e.bind_connection(conn(), GROUP);
    if revive {
        net.revive(id, Node::sim(e, GROUP));
    } else {
        net.add_node(id, Node::sim(e, GROUP));
    }
    checker.attach(net, id);
    net.with_node(id, |n, now, out| n.pump(now, out));
}

/// Have `id` take `cmd` in, in a turn of its own.
fn command(net: &mut SimNet<Node>, id: u32, cmd: Command) {
    net.with_node(id, move |n, now, out| n.command(now, cmd, out));
}

fn send(net: &mut SimNet<Node>, id: u32, req: u64) {
    let publish = Command::Publish {
        conn: conn(),
        request: RequestNum(req),
        giop: Bytes::from(vec![req as u8]),
    };
    command(net, id, publish);
}

fn sponsor(net: &mut SimNet<Node>, sponsor_id: u32, joiner: u32) {
    command(net, sponsor_id, Command::AddMember(ProcessorId(joiner)));
}

fn membership_of(net: &SimNet<Node>, id: u32) -> Option<Vec<u32>> {
    net.node(id)
        .and_then(|n| n.engine().membership(GROUP))
        .map(|m| m.iter().map(|p| p.0).collect())
}

#[test]
fn sequential_joins_grow_the_group() {
    let seed = 21;
    let mut net = make_net(seed, 0.0);
    let founders = [ProcessorId(1), ProcessorId(2)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=2 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    for joiner in 3..=6u32 {
        add_joiner(&mut net, &checker, joiner, seed, false);
        sponsor(&mut net, 1, joiner);
        net.run_for(SimDuration::from_millis(80));
        for id in 1..=joiner {
            assert_eq!(
                membership_of(&net, id).unwrap().len(),
                joiner as usize,
                "P{id} after P{joiner} joined"
            );
        }
    }
    checker.finish(1..=6);
    checker.assert_clean("sequential joins");
}

#[test]
fn joins_complete_under_loss() {
    let seed = 22;
    let mut net = make_net(seed, 0.15);
    let founders = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=3 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    add_joiner(&mut net, &checker, 4, seed, false);
    sponsor(&mut net, 2, 4);
    net.run_for(SimDuration::from_millis(1_000));
    for id in 1..=4u32 {
        assert_eq!(membership_of(&net, id).unwrap().len(), 4, "P{id}");
    }
    checker.finish(1..=4);
    checker.assert_clean("join under loss");
}

#[test]
fn leave_then_rejoin_with_fresh_state() {
    let seed = 23;
    let mut net = make_net(seed, 0.0);
    let founders = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=3 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    net.run_for(SimDuration::from_millis(20));
    // P3 leaves.
    command(&mut net, 1, Command::RemoveMember(ProcessorId(3)));
    checker.retire(3);
    net.run_for(SimDuration::from_millis(100));
    assert!(membership_of(&net, 3).is_none(), "P3 left");
    assert_eq!(membership_of(&net, 1).unwrap(), vec![1, 2]);
    // P3 rejoins cold.
    add_joiner(&mut net, &checker, 3, seed, true);
    sponsor(&mut net, 1, 3);
    net.run_for(SimDuration::from_millis(200));
    assert_eq!(membership_of(&net, 3).unwrap(), vec![1, 2, 3]);
    checker.finish(1..=3);
    checker.assert_clean("leave then rejoin");
    let evs = net.node_mut(3).unwrap().take_events();
    assert!(evs
        .iter()
        .any(|(_, e)| matches!(e, ProtocolEvent::JoinedGroup { .. })));
}

#[test]
fn joiner_delivery_suffix_matches_founders() {
    let seed = 24;
    let mut net = make_net(seed, 0.05);
    let founders = [ProcessorId(1), ProcessorId(2)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=2 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    // Pre-join traffic.
    for k in 0..10u64 {
        send(&mut net, (k % 2) as u32 + 1, k);
        net.run_for(SimDuration::from_millis(3));
    }
    net.run_for(SimDuration::from_millis(200));
    add_joiner(&mut net, &checker, 3, seed, false);
    sponsor(&mut net, 1, 3);
    net.run_for(SimDuration::from_millis(200));
    // Post-join traffic.
    for k in 10..25u64 {
        send(&mut net, (k % 3) as u32 + 1, k);
        net.run_for(SimDuration::from_millis(3));
    }
    net.run_for(SimDuration::from_millis(800));
    // The total-order oracle holds the joiner to exactly the founders'
    // suffix (a mid-log entry must track the agreed order from there on);
    // the counts below pin that the suffix was strict and non-empty.
    checker.finish(1..=3);
    checker.assert_clean("joiner suffix");
    let founder_count = net.node_mut(1).unwrap().take_deliveries().len();
    let joiner_count = net.node_mut(3).unwrap().take_deliveries().len();
    assert_eq!(founder_count, 25, "founders saw everything");
    assert!(
        joiner_count > 0 && joiner_count < 25,
        "joiner saw a strict suffix (got {joiner_count})"
    );
}

#[test]
fn concurrent_traffic_during_join_stays_ordered() {
    let seed = 25;
    let mut net = make_net(seed, 0.05);
    let founders = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=3 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    add_joiner(&mut net, &checker, 4, seed, false);
    // Traffic in flight while the join happens.
    for k in 0..5u64 {
        send(&mut net, (k % 3) as u32 + 1, k);
    }
    sponsor(&mut net, 1, 4);
    for k in 5..15u64 {
        send(&mut net, (k % 3) as u32 + 1, k);
        net.run_for(SimDuration::from_millis(2));
    }
    net.run_for(SimDuration::from_millis(800));
    // Founder agreement and the consistency of the joiner's suffix are the
    // total-order oracle's job; the count pins that nothing was lost.
    checker.finish(1..=4);
    checker.assert_clean("concurrent traffic during join");
    assert_eq!(net.node_mut(1).unwrap().take_deliveries().len(), 15);
}

/// Regression: a re-add issued while the survivors still list the crashed
/// incarnation. Three founders; P3 crashes, restarts as a joiner 10 ms
/// later, and P1 is asked at once to add it back. The add has to wait out
/// the conviction and then go through; dropping it because the stale id
/// was still listed left the view at {P1, P2} for good.
#[test]
fn a_re_add_issued_before_the_conviction_completes_after_it() {
    let seed = 26;
    let mut net = make_net(seed, 0.0);
    let founders = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    let checker = Checker::new(GROUP, &founders);
    for id in 1..=3 {
        add_founder(&mut net, &checker, id, &founders, seed);
    }
    for k in 0..6u64 {
        send(&mut net, (k % 3) as u32 + 1, k);
        net.run_for(SimDuration::from_millis(3));
    }
    net.crash(3);
    checker.retire(3);
    net.run_for(SimDuration::from_millis(10));
    add_joiner(&mut net, &checker, 3, seed, true);
    checker.rejoin(3);
    assert_eq!(
        membership_of(&net, 1).unwrap(),
        vec![1, 2, 3],
        "not convicted yet"
    );
    sponsor(&mut net, 1, 3);
    net.run_for(SimDuration::from_secs(3));
    for id in 1..=3u32 {
        assert_eq!(
            membership_of(&net, id),
            Some(vec![1, 2, 3]),
            "P{id}: P3 came back"
        );
    }
    for k in 6..12u64 {
        send(&mut net, (k % 3) as u32 + 1, k);
        net.run_for(SimDuration::from_millis(3));
    }
    net.run_for(SimDuration::from_millis(500));
    checker.finish(1..=3);
    checker.assert_clean("re-add before conviction");
}
