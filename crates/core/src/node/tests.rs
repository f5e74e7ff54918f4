use super::*;
use crate::actions::Action;
use crate::clock::ClockMode;
use crate::config::ProtocolConfig;
use crate::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use crate::wire;
use bytes::Bytes;
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// Build an n-member simulated group with a pre-bound connection.
fn build_net(n: u32, sim_cfg: SimConfig, cfg: ProtocolConfig) -> SimNet<Node> {
    let members: Vec<ProcessorId> = (1..=n).map(ProcessorId).collect();
    let mut net = SimNet::new(sim_cfg);
    net.set_classifier(wire::classify);
    net.set_message_counter(wire::message_count);
    for id in 1..=n {
        let mut engine = Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport);
        engine.create_group(SimTime::ZERO, GROUP, ADDR, members.clone());
        net.add_node(id, Node::sim(engine, GROUP));
        // The founding subscription.
        net.with_node(id, |n, now, out| n.pump(now, out));
    }
    // Bind the test connection everywhere.
    for id in 1..=n {
        net.with_node(id, |n, _, _| {
            n.engine_mut().bind_connection(conn(), GROUP);
        });
    }
    net
}

/// Multicast each `(request, body)` on the test connection from `id`, all
/// in one turn; the engine must take every one.
fn publish(net: &mut SimNet<Node>, id: u32, sends: impl IntoIterator<Item = (u64, Vec<u8>)>) {
    net.with_node(id, |n, now, out| {
        for (request, giop) in sends {
            n.intake.push(Inbox::Command(Command::Publish {
                conn: conn(),
                request: RequestNum(request),
                giop: Bytes::from(giop),
            }));
        }
        n.pump(now, out);
        assert!(matches!(n.host.published, Some(Ok(_))), "P{id} published");
    });
}

/// `(ts, source)` of every delivery each listed node holds, drained.
fn delivery_keys(net: &mut SimNet<Node>, ids: impl Iterator<Item = u32>) -> Vec<Vec<(u64, u32)>> {
    ids.map(|id| {
        net.node_mut(id)
            .unwrap()
            .take_deliveries()
            .iter()
            .map(|(_, d)| (d.ts.0, d.source.0))
            .collect()
    })
    .collect()
}

#[test]
fn three_members_converge_on_one_total_order() {
    let mut net = build_net(3, SimConfig::with_seed(7), ProtocolConfig::with_seed(7));
    // Everyone multicasts concurrently.
    for (i, id) in (1u32..=3).enumerate() {
        publish(&mut net, id, [(i as u64 + 1, vec![id as u8])]);
    }
    net.run_for(SimDuration::from_millis(100));
    let seqs = delivery_keys(&mut net, 1..=3);
    assert_eq!(seqs[0].len(), 3, "all three messages delivered");
    assert_eq!(seqs[0], seqs[1]);
    assert_eq!(seqs[1], seqs[2]);
}

#[test]
fn loss_recovered_transparently() {
    let sim_cfg = SimConfig::with_seed(3).loss(ftmp_net::LossModel::Iid { p: 0.2 });
    let mut net = build_net(3, sim_cfg, ProtocolConfig::with_seed(3));
    for k in 0..20u64 {
        publish(&mut net, (k % 3) as u32 + 1, [(k, vec![k as u8])]);
        net.run_for(SimDuration::from_millis(2));
    }
    net.run_for(SimDuration::from_millis(300));
    let all = delivery_keys(&mut net, 1..=3);
    assert_eq!(all[0].len(), 20, "every message delivered despite loss");
    assert_eq!(all[0], all[1]);
    assert_eq!(all[1], all[2]);
    assert!(
        net.stats().lost > 0,
        "the loss model actually dropped packets"
    );
}

#[test]
fn crash_triggers_membership_change_and_flush() {
    let cfg = ProtocolConfig::with_seed(5);
    let mut net = build_net(3, SimConfig::with_seed(5), cfg);
    net.run_for(SimDuration::from_millis(20));
    // One in-flight message, then the sender crashes.
    publish(&mut net, 3, [(1, b"last".to_vec())]);
    net.run_for(SimDuration::from_millis(5));
    net.crash(3);
    // Survivors detect, convict (majority 2 of 3), reconfigure.
    net.run_for(SimDuration::from_millis(600));
    for id in 1..=2u32 {
        let node = net.node_mut(id).unwrap();
        let events = node.take_events();
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                ProtocolEvent::FaultReport { processor, .. }
                if *processor == ProcessorId(3)
            )),
            "P{id} reported the fault: {events:?}"
        );
        let members = node.engine().membership(GROUP).unwrap();
        assert_eq!(members, vec![ProcessorId(1), ProcessorId(2)]);
    }
    // Virtual synchrony: both survivors delivered the same set.
    let d = delivery_keys(&mut net, 1..=2);
    assert_eq!(d[0], d[1]);
    assert_eq!(d[0].len(), 1, "the crashed sender's message was flushed");
}

#[test]
fn retention_reclaimed_by_ack_stability() {
    let mut net = build_net(3, SimConfig::with_seed(11), ProtocolConfig::with_seed(11));
    for k in 0..10u64 {
        publish(&mut net, 1, [(k, vec![0u8; 64])]);
        net.run_for(SimDuration::from_millis(1));
    }
    let retained = |net: &SimNet<Node>| {
        let engine = net.node(1).unwrap().engine();
        engine.group_metrics(GROUP).unwrap().retention_msgs
    };
    let peak = retained(&net);
    assert!(peak > 0);
    // Quiet period: acks circulate via heartbeats, stability advances.
    net.run_for(SimDuration::from_millis(500));
    let after = retained(&net);
    assert!(
        after < peak,
        "retention should shrink once acks stabilize (peak {peak}, after {after})"
    );
}

/// FNV-1a over every traced event: any byte-level or ordering change to
/// the wire behaviour moves this hash.
fn trace_hash(net: &SimNet<Node>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for r in net.trace().expect("trace enabled").records() {
        for b in r.at.0.to_le_bytes() {
            eat(b);
        }
        for b in r.src.to_le_bytes() {
            eat(b);
        }
        for b in r.dst.0.to_le_bytes() {
            eat(b);
        }
        for b in (r.len as u64).to_le_bytes() {
            eat(b);
        }
        eat(r.kind.unwrap_or(0xFF));
    }
    h
}

/// A fixed seeded scenario: three members, each bursting three
/// multicasts in one turn, 100 ms of protocol time. `prepare` runs on
/// every node before the trace starts.
fn traced_run_with(cfg: ProtocolConfig, prepare: impl Fn(u32, &mut Node)) -> SimNet<Node> {
    let mut net = build_net(3, SimConfig::with_seed(7), cfg);
    for id in 1u32..=3 {
        net.with_node(id, |n, _, _| prepare(id, n));
    }
    net.enable_trace(1 << 16);
    for id in 1u32..=3 {
        let burst = (0..3u64).map(|k| (u64::from(id) * 10 + k, vec![id as u8; 32]));
        publish(&mut net, id, burst);
    }
    net.run_for(SimDuration::from_millis(100));
    net
}

fn traced_run(cfg: ProtocolConfig) -> SimNet<Node> {
    traced_run_with(cfg, |_, _| {})
}

/// The hash of [`traced_run`] recorded from the pre-packing protocol.
/// Every member bursts in the same instant there, so nobody is a quiet
/// blocker and horizon on demand never fires: the default configuration
/// and the paper's timer-only heartbeat both reproduce it.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

/// The hash of [`traced_paced_run`] under the default configuration,
/// where every message draws one prompted Heartbeat from each quiet
/// member (DESIGN.md §4). Re-pinned when every random draw became a keyed hash of what it decides (`ftmp_net::draw`): the
/// scenario's latencies are drawn afresh. [`GOLDEN`] held.
const GOLDEN_PROMPTED: u64 = 0x39A7_D7A0_9214_81A9;

/// A second fixed scenario, the one horizon on demand exists for: only
/// member 1 multicasts, once every 7 ms for 98 ms, among quiet members.
fn traced_paced_run(cfg: ProtocolConfig) -> SimNet<Node> {
    let mut net = build_net(3, SimConfig::with_seed(7), cfg);
    net.enable_trace(1 << 16);
    for k in 0..14u64 {
        publish(&mut net, 1, [(k, vec![1u8; 32])]);
        net.run_for(SimDuration::from_millis(7));
    }
    net
}

/// With packing off (the default) and the paper's timer-only heartbeat,
/// the wire trace is pinned: no packed containers ever appear, and the
/// exact event sequence matches the golden hash recorded from the
/// pre-packing protocol — horizon on demand is the only thing the
/// default adds to the historical wire behaviour.
#[test]
fn default_config_wire_trace_is_container_free_and_pinned() {
    let net = traced_run(ProtocolConfig::with_seed(7).prompt_horizon(false));
    assert!(
        !ProtocolConfig::with_seed(7).packing.enabled,
        "packing defaults to off"
    );
    let trace = net.trace().unwrap();
    assert_eq!(
        trace.of_kind(wire::PACKED_MSG_TYPE).count(),
        0,
        "no containers under the default config"
    );
    assert_eq!(
        net.stats().sent_packets,
        net.stats().sent_messages,
        "one message per datagram when packing is off"
    );
    assert_eq!(
        trace_hash(&net),
        GOLDEN,
        "default-config wire trace drifted from the pre-packing protocol"
    );
}

/// The default's own pin: in the paced scenario every quiet member
/// answers each message with one prompted Heartbeat, the sender with
/// none, and the trace is fixed bit for bit.
#[test]
fn prompted_heartbeat_wire_trace_is_pinned() {
    let mut net = traced_paced_run(ProtocolConfig::with_seed(7));
    let prompted =
        |net: &SimNet<Node>, id: u32| net.node(id).unwrap().engine().stats().heartbeats_prompted;
    assert_eq!(prompted(&net, 1), 0, "the sender is never quiet");
    // The first message arrives inside the half interval and is
    // answered from the timer; every later one inside `handle_packet`.
    assert_eq!(prompted(&net, 2), 14, "one per message");
    assert_eq!(prompted(&net, 3), 14);
    for id in 1..=3u32 {
        let d = net.node_mut(id).unwrap().take_deliveries();
        assert_eq!(d.len(), 14, "P{id} delivered every message");
    }
    assert_eq!(
        trace_hash(&net),
        GOLDEN_PROMPTED,
        "the default wire behaviour (horizon on demand) drifted"
    );
}

/// Telemetry is observation only: with every engine recording, the wire
/// trace still matches the pinned golden hash bit for bit, while the
/// latency histograms actually populate.
#[test]
fn telemetry_on_wire_trace_identical_and_histograms_populate() {
    let net = traced_run_with(ProtocolConfig::with_seed(7), |_, n| {
        n.engine_mut().enable_telemetry()
    });
    assert_eq!(
        trace_hash(&net),
        GOLDEN,
        "enabling telemetry perturbed the wire traffic"
    );
    let mut view = ftmp_telemetry::Registry::new();
    net.node(1).unwrap().engine().register_metrics(&mut view);
    let snap = view.snapshot();
    let ordering = snap.histogram("ordering_delay_us").expect("registered");
    assert!(ordering.count > 0, "ordering delays recorded");
    assert!(
        snap.histogram("e2e_self_us").expect("registered").count > 0,
        "own-message end-to-end latency recorded"
    );
    assert!(snap.counter("deliveries").unwrap_or(0) > 0);
}

/// The durable delivery-log sink (DESIGN.md §12) is observation only,
/// like telemetry: with a log attached to every engine the wire trace
/// still matches the pinned golden hash bit for bit, while deliveries
/// actually reach the sink. Together with the two tests above this pins
/// bit-identical wire traffic with the log disabled *and* enabled.
#[test]
fn delivery_log_on_wire_trace_identical_and_records_flow() {
    use crate::durable::DeliveryLog;
    use crate::ids::Timestamp;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // `DeliveryLog: Send` (for the real-socket runtime), so the test
    // sink shares counts through atomics rather than `Rc<RefCell>`.
    #[derive(Default)]
    struct Counts {
        deliveries: AtomicU64,
        views: AtomicU64,
    }
    struct CountingLog(Arc<Counts>);
    impl DeliveryLog for CountingLog {
        fn on_delivery(&mut self, _d: &Delivery) {
            self.0.deliveries.fetch_add(1, Ordering::Relaxed);
        }
        fn on_view_change(&mut self, _g: GroupId, _m: &[ProcessorId], _ts: Timestamp) {
            self.0.views.fetch_add(1, Ordering::Relaxed);
        }
    }

    let counts: Arc<Counts> = Arc::default();
    let net = traced_run_with(ProtocolConfig::with_seed(7), |_, n| {
        let log = CountingLog(Arc::clone(&counts));
        n.engine_mut().set_delivery_log(Box::new(log));
        assert!(n.engine().delivery_log_enabled());
    });
    assert_eq!(
        trace_hash(&net),
        GOLDEN,
        "attaching a delivery log perturbed the wire traffic"
    );
    assert_eq!(
        counts.deliveries.load(Ordering::Relaxed),
        27,
        "all three engines logged all nine deliveries"
    );
    let _ = counts.views.load(Ordering::Relaxed); // founders install no later views here
}

/// S3 regression, at wire level: the survivor's outgoing ack timestamp
/// never moves backwards across suspicion, conviction and removal of
/// every peer (an ack regression would let peers' retention logic
/// un-stabilize already-reclaimed messages).
#[test]
fn wire_acks_stay_monotone_through_conviction_of_all_peers() {
    use crate::config::Quorum;
    use std::cell::RefCell;
    use std::rc::Rc;

    let cfg = ProtocolConfig::with_seed(5).quorum(Quorum::Fixed(1));
    let mut net = build_net(3, SimConfig::with_seed(5), cfg);
    let acks: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
    let sink = Rc::clone(&acks);
    net.set_wire_tap(move |at, src, _dst, payload| {
        if src == 1 && !wire::is_packed(payload) {
            if let Ok((h, _)) = wire::FtmpHeader::decode(payload) {
                sink.borrow_mut().push((at.0, h.ack_ts.0));
            }
        }
    });
    // Traffic so the survivor's advertised ack climbs well above zero.
    for k in 0..5u64 {
        publish(&mut net, 1, [(k, vec![1u8])]);
        net.run_for(SimDuration::from_millis(2));
    }
    net.run_for(SimDuration::from_millis(50));
    net.crash(2);
    net.crash(3);
    // Fixed(1) quorum: P1 alone convicts both silent peers.
    net.run_for(SimDuration::from_millis(600));
    assert_eq!(
        net.node(1).unwrap().engine().membership(GROUP).unwrap(),
        vec![ProcessorId(1)],
        "both peers convicted and removed"
    );
    // Post-reconfiguration traffic in the singleton view.
    publish(&mut net, 1, [(99, vec![9u8])]);
    net.run_for(SimDuration::from_millis(50));
    let acks = acks.borrow();
    assert!(
        acks.iter().any(|&(_, a)| a > 0),
        "acks advanced above zero before the crash"
    );
    for w in acks.windows(2) {
        assert!(
            w[1].1 >= w[0].1,
            "wire ack regressed: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// The same scenario with packing on delivers the identical total order
/// while using fewer datagrams than messages, and the suppressed
/// standalone heartbeats are counted.
#[test]
fn packed_run_preserves_order_with_fewer_datagrams() {
    use crate::config::{PackPolicy, Packing};

    let mut plain = traced_run(ProtocolConfig::with_seed(7));
    let mut packed = traced_run(ProtocolConfig::with_seed(7).packing(Packing::with(
        1400,
        PackPolicy::Deadline(SimDuration::from_micros(500)),
    )));
    let d_plain = delivery_keys(&mut plain, 1..=3);
    let d_packed = delivery_keys(&mut packed, 1..=3);
    assert_eq!(d_plain, d_packed, "packing never changes what is delivered");
    assert_eq!(d_packed[0].len(), 9);
    assert_eq!(d_packed[0], d_packed[1]);
    assert_eq!(d_packed[1], d_packed[2]);
    let s = packed.stats();
    assert!(
        s.sent_packets < s.sent_messages,
        "some datagrams carried more than one message \
         (packets {}, messages {})",
        s.sent_packets,
        s.sent_messages
    );
    assert!(
        s.sent_packets < plain.stats().sent_packets,
        "packing reduced datagrams on the wire"
    );
}

#[test]
fn heartbeat_traffic_classified() {
    let mut net = build_net(2, SimConfig::with_seed(13), ProtocolConfig::with_seed(13));
    net.run_for(SimDuration::from_millis(100));
    let hb = net.stats().kind_packets(wire::FtmpMsgType::Heartbeat as u8);
    assert!(hb > 0, "heartbeats flow and are classified");
}

/// Tree-mode pairing used by the overlay tests: packing on (so ack
/// vectors ride packed overlay containers) + a k-ary dissemination tree.
fn tree_cfg(seed: u64, arity: usize) -> ProtocolConfig {
    use crate::config::{OverlayPolicy, PackPolicy, Packing};
    ProtocolConfig::with_seed(seed)
        .packing(Packing::with(
            1400,
            PackPolicy::Deadline(SimDuration::from_micros(500)),
        ))
        .overlay(OverlayPolicy::Tree { arity })
}

/// Tree mode replaces full-mesh heartbeats with overlay digests and
/// still converges on one total order under loss.
#[test]
fn tree_mode_converges_under_loss_with_digests_replacing_heartbeats() {
    let sim_cfg = SimConfig::with_seed(21).loss(ftmp_net::LossModel::Iid { p: 0.1 });
    let mut net = build_net(8, sim_cfg, tree_cfg(21, 2));
    for k in 0..16u64 {
        publish(&mut net, (k % 8) as u32 + 1, [(k, vec![k as u8; 16])]);
        net.run_for(SimDuration::from_millis(2));
    }
    net.run_for(SimDuration::from_millis(500));
    let all = delivery_keys(&mut net, 1..=8u32);
    assert_eq!(all[0].len(), 16, "every message delivered despite loss");
    for w in all.windows(2) {
        assert_eq!(w[0], w[1], "identical total order everywhere");
    }
    // Digest traffic flows; standalone flat heartbeats do not.
    let stats = |id: u32| net.node(id).unwrap().engine().stats();
    let digests: u64 = (1..=8u32)
        .map(|id| stats(id).received_of(wire::FtmpMsgType::OverlayDigest))
        .sum();
    assert!(digests > 0, "overlay digests circulated");
    let heartbeats: u64 = (1..=8u32)
        .map(|id| stats(id).sent_of(wire::FtmpMsgType::Heartbeat))
        .sum();
    assert_eq!(heartbeats, 0, "tree mode sends digests, not heartbeats");
}

/// Tree-mode control-plane scaling: at 16 members the per-interval
/// control receptions drop by well over 4× against flat, because each
/// digest reaches O(arity) subscribers instead of n-1.
#[test]
fn tree_mode_cuts_control_receptions() {
    let n = 16u32;
    let control = |net: &SimNet<Node>| -> u64 {
        (1..=n)
            .map(|id| net.node(id).unwrap().engine().stats().control_received())
            .sum()
    };
    let mut flat = build_net(n, SimConfig::with_seed(31), ProtocolConfig::with_seed(31));
    flat.run_for(SimDuration::from_millis(500));
    let mut tree = build_net(n, SimConfig::with_seed(31), tree_cfg(31, 4));
    tree.run_for(SimDuration::from_millis(500));
    let (cf, ct) = (control(&flat), control(&tree));
    assert!(
        ct * 4 <= cf,
        "tree control receptions {ct} not ≥4× below flat {cf}"
    );
}

/// A crash at 16 members under tree mode: the survivors convict the dead
/// member through relayed (non-)evidence, install the shrunk view, and
/// keep delivering in one total order — the rebuilt tree routes around
/// the hole.
#[test]
fn tree_mode_survives_crash_and_rebuilds() {
    let n = 16u32;
    let mut net = build_net(n, SimConfig::with_seed(41), tree_cfg(41, 4));
    net.run_for(SimDuration::from_millis(50));
    net.crash(5);
    net.run_for(SimDuration::from_millis(900));
    // Post-crash traffic must still order identically.
    for k in 0..6u64 {
        let id = [1u32, 2, 9, 14][k as usize % 4];
        publish(&mut net, id, [(100 + k, vec![k as u8])]);
        net.run_for(SimDuration::from_millis(3));
    }
    net.run_for(SimDuration::from_millis(500));
    let survivors: Vec<u32> = (1..=n).filter(|&id| id != 5).collect();
    for &id in &survivors {
        let members = net.node(id).unwrap().engine().membership(GROUP).unwrap();
        assert!(
            !members.contains(&ProcessorId(5)),
            "P{id} still lists the crashed member"
        );
        assert_eq!(members.len() as u32, n - 1);
    }
    let all = delivery_keys(&mut net, survivors.iter().copied());
    assert_eq!(all[0].len(), 6, "post-crash messages all delivered");
    for w in all.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

/// Satellite invariant (64 members, arity 4, depth 3): a quiet leaf
/// whose liveness reaches leaves in other subtrees only via relayed
/// digests (leaf → root → leaf, up to 2 × depth hops) must never be
/// falsely suspected, even with loss eating some of the relays. The
/// tree-mode deferral cap divides fail_timeout/2 by that relay distance
/// precisely so compounded per-hop staleness stays inside the
/// fault-detector timeout at any depth; this test pins the resulting
/// end-to-end behaviour (no Suspect traffic, no convictions, membership
/// intact) over several full fail_timeout periods of total silence.
#[test]
fn tree_mode_quiet_leaf_not_suspected_at_64_members() {
    let n = 64u32;
    let sim_cfg = SimConfig::with_seed(51).loss(ftmp_net::LossModel::Iid { p: 0.12 });
    let mut net = build_net(n, sim_cfg, tree_cfg(51, 4));
    // Everyone is quiet: liveness flows exclusively through relayed
    // digests for several full fail_timeout periods.
    net.run_for(SimDuration::from_millis(1500));
    for id in 1..=n {
        let node = net.node_mut(id).unwrap();
        let suspects_sent = node.engine().stats().sent_of(wire::FtmpMsgType::Suspect);
        assert_eq!(suspects_sent, 0, "P{id} raised a false suspicion");
        let events = node.take_events();
        assert!(
            !events
                .iter()
                .any(|(_, e)| matches!(e, ProtocolEvent::FaultReport { .. })),
            "P{id} convicted a healthy member: {events:?}"
        );
        let members = node.engine().membership(GROUP).unwrap();
        assert_eq!(members.len() as u32, n, "membership intact at P{id}");
    }
}

/// A call a [`Tape`] was asked to make.
#[derive(Debug, PartialEq)]
enum Call {
    Join(McastAddr),
    Leave(McastAddr),
    Batch(Vec<McastAddr>),
}

/// A link that only writes down what it was asked to do.
#[derive(Default)]
struct Tape(Vec<Call>);

impl Link for Tape {
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) {
        self.0
            .push(Call::Batch(frames.iter().map(|f| f.0).collect()));
    }
    fn join(&mut self, addr: McastAddr) {
        self.0.push(Call::Join(addr));
    }
    fn leave(&mut self, addr: McastAddr) {
        self.0.push(Call::Leave(addr));
    }
}

/// A founder of `members` with the test connection bound, on no network.
fn founder(cfg: ProtocolConfig, members: impl IntoIterator<Item = u32>) -> Node {
    let mut engine = Processor::new(ProcessorId(1), cfg, ClockMode::Lamport);
    engine.create_group(
        SimTime::ZERO,
        GROUP,
        ADDR,
        members.into_iter().map(ProcessorId),
    );
    engine.bind_connection(conn(), GROUP);
    Node::sim(engine, GROUP)
}

/// In tree mode the first tick subscribes to the overlay neighbours
/// between what the turn's intake sent (a publish) and what the tick
/// then sends (the retry of a sponsored add): each side of a
/// subscription change is its own batch, in order.
#[test]
fn a_subscription_change_splits_the_turns_batch_where_it_occurred() {
    use crate::config::OverlayPolicy;
    let cfg = ProtocolConfig::with_seed(3).overlay(OverlayPolicy::Tree { arity: 2 });
    let mut node = founder(cfg, 1..=3);
    let mut tape = Tape::default();
    node.intake
        .push(Inbox::Command(Command::AddMember(ProcessorId(9))));
    assert!(node.turn(SimTime(1_000), false, &mut tape));
    assert_eq!(
        tape.0,
        [Call::Join(ADDR), Call::Batch(vec![ADDR])],
        "founding comes first, then the add"
    );

    tape.0.clear();
    node.intake.push(Inbox::Command(Command::Publish {
        conn: conn(),
        request: RequestNum(1),
        giop: Bytes::from_static(b"before"),
    }));
    node.turn(SimTime(30_000), true, &mut tape);
    assert!(node.intake.is_empty());
    let calls = tape.0;
    assert_eq!(calls[0], Call::Batch(vec![ADDR]), "the publish");
    let (last, joins) = calls[1..].split_last().expect("more than the publish");
    assert!(
        !joins.is_empty() && joins.iter().all(|c| matches!(c, Call::Join(_))),
        "the tick's neighbourhood subscriptions, nothing sent among them: {calls:?}"
    );
    assert_eq!(
        *last,
        Call::Batch(vec![ADDR]),
        "what the tick sent leaves after them"
    );
}

/// An add for an id the group still lists — a crashed incarnation not yet
/// convicted — is not sent while the id stays listed: the engine keeps it
/// (`tests/membership_churn.rs` follows it through the conviction).
#[test]
fn an_add_for_a_listed_member_waits_for_it_to_leave() {
    let mut node = founder(ProtocolConfig::default(), 1..=3);
    let mut tape = Tape::default();
    node.intake
        .push(Inbox::Command(Command::AddMember(ProcessorId(3))));
    node.turn(SimTime(1_000), false, &mut tape);
    node.turn(SimTime(500_000), true, &mut tape);
    let stats = node.engine().stats();
    assert_eq!(stats.sent_of(wire::FtmpMsgType::AddProcessor), 0);
}

/// Everything a turn can hand a host, a link or a log, in one comparable
/// type.
#[derive(Debug, Clone, PartialEq)]
enum Rec {
    Send(McastAddr, Bytes),
    Join(McastAddr),
    Leave(McastAddr),
    Deliver(Delivery),
    Event(ProtocolEvent),
    Window(GroupId, bool),
    Batch(usize),
    Observed,
    Logged,
    Flushed,
}

impl From<Action> for Rec {
    fn from(a: Action) -> Rec {
        match a {
            Action::Send { addr, payload } => Rec::Send(addr, payload),
            Action::Join(a) => Rec::Join(a),
            Action::Leave(a) => Rec::Leave(a),
            Action::Deliver(d) => Rec::Deliver(d),
            Action::Event(e) => Rec::Event(e),
            Action::Backpressure(g) => Rec::Window(g, true),
            Action::SendReady(g) => Rec::Window(g, false),
        }
    }
}

type Shared = std::sync::Arc<std::sync::Mutex<Vec<Rec>>>;

/// A host, a link and a delivery log writing to one tape, so their calls
/// interleave in the order they were made. A batch is written down as its
/// length, then its sends.
struct Recorder(Shared);

impl Recorder {
    fn push(&self, r: Rec) {
        self.0.lock().unwrap().push(r);
    }
}

impl Host for Recorder {
    fn deliver(&mut self, _now: SimTime, d: Delivery) {
        self.push(Rec::Deliver(d));
    }
    fn event(&mut self, _now: SimTime, e: ProtocolEvent) {
        self.push(Rec::Event(e));
    }
    fn window(&mut self, g: GroupId, closed: bool) {
        self.push(Rec::Window(g, closed));
    }
    fn observe(&mut self, _now: SimTime, _obs: Observation) {
        self.push(Rec::Observed);
    }
}

impl Link for Recorder {
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) {
        self.push(Rec::Batch(frames.len()));
        for (addr, payload) in frames {
            self.push(Rec::Send(*addr, payload.clone()));
        }
    }
    fn join(&mut self, addr: McastAddr) {
        self.push(Rec::Join(addr));
    }
    fn leave(&mut self, addr: McastAddr) {
        self.push(Rec::Leave(addr));
    }
}

impl crate::durable::DeliveryLog for Recorder {
    fn on_delivery(&mut self, _d: &Delivery) {
        self.push(Rec::Logged);
    }
    fn on_view_change(&mut self, _g: GroupId, _m: &[ProcessorId], _ts: crate::ids::Timestamp) {}
    fn flush(&mut self) {
        self.push(Rec::Flushed);
    }
}

/// Member `id` of the founding pair {1, 2}, with the test connection bound.
fn pair_member(id: u32) -> Processor {
    let mut p = Processor::new(
        ProcessorId(id),
        ProtocolConfig::with_seed(5),
        ClockMode::Lamport,
    );
    p.create_group(SimTime::ZERO, GROUP, ADDR, [ProcessorId(1), ProcessorId(2)]);
    p.bind_connection(conn(), GROUP);
    p
}

/// Three requests from P1 and the heartbeats that let P2 order them: the
/// datagrams of one busy turn at P2, and the time it happens.
fn traffic() -> (Vec<RxDatagram>, SimTime) {
    let mut peer = pair_member(1);
    let mut now = SimTime::ZERO;
    let mut wire = Vec::new();
    for k in 1..=3u64 {
        peer.multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![k as u8; 40]))
            .unwrap();
    }
    for _ in 0..3 {
        now = SimTime(now.0 + 10_000);
        peer.tick(now);
        for a in peer.drain_actions() {
            if let Action::Send { addr, payload } = a {
                wire.push(RxDatagram { addr, payload });
            }
        }
    }
    (wire, now)
}

/// P2, recording onto `tape`, and one ticking turn of it over [`traffic`].
fn recorded_turn(tape: &Shared, prepare: impl FnOnce(&mut Processor)) -> Node<Recorder> {
    let (wire, now) = traffic();
    let mut engine = pair_member(2);
    prepare(&mut engine);
    let mut node = Node::new(engine, GROUP, Recorder(tape.clone()));
    node.intake.push(Inbox::Datagrams(wire));
    assert!(node.turn(now, true, &mut Recorder(tape.clone())));
    node
}

/// Upcalls reach the host in drain order as they come; the sends leave
/// after them, in drain order too, in batches a subscription change
/// closes.
#[test]
fn actions_reach_the_host_and_the_link_in_drain_order() {
    let (wire, now) = traffic();
    let mut by_hand = pair_member(2);
    by_hand.begin_batch();
    for d in wire {
        by_hand.handle_packet(now, &Packet::new(2, d.addr, d.payload));
    }
    by_hand.tick(now);
    by_hand.end_batch(now);
    let want: Vec<Rec> = by_hand.drain_actions().into_iter().map(Rec::from).collect();
    assert!(matches!(want[0], Rec::Join(ADDR)), "founding comes first");
    assert_eq!(
        want.iter().filter(|r| matches!(r, Rec::Deliver(_))).count(),
        3
    );
    let sends: Vec<&Rec> = want.iter().filter(|r| matches!(r, Rec::Send(..))).collect();
    assert!(!sends.is_empty());
    assert!(
        want[1..].iter().all(|r| !matches!(r, Rec::Join(_))),
        "no later subscription change: one batch"
    );

    let tape = Shared::default();
    recorded_turn(&tape, |_| {});
    let tape = tape.lock().unwrap();
    let upcalls: Vec<&Rec> = want[1..]
        .iter()
        .filter(|r| !matches!(r, Rec::Send(..)))
        .collect();
    assert_eq!(tape[0], Rec::Join(ADDR));
    assert_eq!(tape[1..=upcalls.len()].iter().collect::<Vec<_>>(), upcalls);
    let batch = &tape[upcalls.len() + 1..];
    assert_eq!(batch[0], Rec::Batch(sends.len()), "every send in one batch");
    assert_eq!(batch[1..].iter().collect::<Vec<_>>(), sends);
}

#[test]
fn the_batch_leaves_before_the_host_is_handed_observations() {
    let tape = Shared::default();
    recorded_turn(&tape, |e| e.enable_observations());
    let tape = tape.lock().unwrap();
    let batch = tape
        .iter()
        .position(|r| matches!(r, Rec::Batch(_)))
        .unwrap();
    assert!(tape[..batch].iter().all(|r| *r != Rec::Observed));
    let observed = tape.iter().position(|r| *r == Rec::Observed).unwrap();
    assert!(observed > batch, "the turn recorded observations");
    assert!(tape[observed..].iter().all(|r| *r == Rec::Observed));
}

#[test]
fn the_log_is_flushed_before_the_first_delivery_of_a_turn() {
    let tape = Shared::default();
    recorded_turn(&tape, |e| {
        e.set_delivery_log(Box::new(Recorder(tape.clone())))
    });
    let tape = tape.lock().unwrap();
    let at = |want: fn(&Rec) -> bool| tape.iter().position(want).expect("on the tape");
    let flushed = at(|r| *r == Rec::Flushed);
    assert_eq!(
        tape[..flushed]
            .iter()
            .filter(|r| **r == Rec::Logged)
            .count(),
        3,
        "the log saw every delivery of the turn before the flush"
    );
    assert!(
        tape[..flushed].iter().all(|r| matches!(r, Rec::Logged)),
        "and the host nothing at all"
    );
    assert!(flushed < at(|r| matches!(r, Rec::Deliver(_))));
}

#[test]
fn scratch_capacity_survives_and_an_empty_turn_says_so() {
    let tape = Shared::default();
    let mut node = recorded_turn(&tape, |_| {});
    let caps = |n: &Node<Recorder>| {
        let c = (
            n.actions.capacity(),
            n.frames.capacity(),
            n.intake.capacity(),
        );
        assert!(
            c.0 > 0 && c.1 > 0 && c.2 > 0,
            "the turn went through the scratch"
        );
        c
    };
    let before = caps(&node);
    let len = tape.lock().unwrap().len();
    assert!(
        !node.turn(SimTime(30_000), false, &mut Recorder(tape.clone())),
        "nothing fed, nothing due: nothing done"
    );
    assert_eq!(tape.lock().unwrap().len(), len, "and nothing handed on");
    assert!(node.actions.is_empty() && node.frames.is_empty());
    assert_eq!(caps(&node), before);
}
