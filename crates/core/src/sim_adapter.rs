//! Adapter plugging a [`Processor`] into the deterministic simulator.
//!
//! [`SimProcessor`] implements [`ftmp_net::SimNode`]: every packet, tick and
//! pump is one [`Driver::turn`] (DESIGN.md §11) — the turn the socket
//! runtime runs — whose Send/Join/Leave actions are applied through the
//! [`Outbox`] and whose deliveries and events are queued for the test or
//! experiment harness to drain between simulation steps.

use crate::driver::{Driver, Host};
use crate::observe::Observation;
use crate::processor::{Delivery, Processor, ProtocolEvent};
use bytes::Bytes;
use ftmp_net::{McastAddr, Outbox, Packet, SimNode, SimTime};
use std::collections::VecDeque;

/// A conformance observer callback: virtual time plus the observation
/// (DESIGN.md §9). The observing processor's identity is fixed at
/// [`SimProcessor::set_observer`] time, so it is not repeated per call.
pub type Observer = Box<dyn FnMut(SimTime, Observation)>;

/// A simulator-hosted FTMP endpoint.
pub struct SimProcessor {
    driver: Driver,
    upcalls: Upcalls,
    last_now: SimTime,
}

/// What a turn hands upward, queued until the harness takes it.
struct Upcalls {
    /// This endpoint's id, as the simulator knows it.
    src: u32,
    deliveries: VecDeque<(SimTime, Delivery)>,
    events: VecDeque<(SimTime, ProtocolEvent)>,
    observer: Option<Observer>,
}

impl Host<Outbox> for Upcalls {
    fn send(&mut self, out: &mut Outbox, addr: McastAddr, payload: Bytes) {
        out.send(Packet::new(self.src, addr, payload));
    }
    fn join(&mut self, out: &mut Outbox, addr: McastAddr) {
        out.join(addr);
    }
    fn leave(&mut self, out: &mut Outbox, addr: McastAddr) {
        out.leave(addr);
    }
    fn deliver(&mut self, now: SimTime, d: Delivery) {
        self.deliveries.push_back((now, d));
    }
    fn event(&mut self, now: SimTime, e: ProtocolEvent) {
        self.events.push_back((now, e));
    }
    fn observe(&mut self, now: SimTime, obs: Observation) {
        if let Some(cb) = self.observer.as_mut() {
            cb(now, obs);
        }
    }
}

impl SimProcessor {
    /// Wrap an engine.
    pub fn new(engine: Processor) -> Self {
        SimProcessor {
            upcalls: Upcalls {
                src: engine.id().0,
                deliveries: VecDeque::new(),
                events: VecDeque::new(),
                observer: None,
            },
            driver: Driver::new(engine),
            last_now: SimTime::ZERO,
        }
    }

    /// Attach a conformance observer and enable the engine's observation
    /// recording. Every observation the engine records is forwarded to `f`
    /// (stamped with the virtual time of the turn that drained it) in the
    /// exact order the engine performed the corresponding transitions.
    pub fn set_observer(&mut self, f: impl FnMut(SimTime, Observation) + 'static) {
        self.driver.engine.enable_observations();
        self.upcalls.observer = Some(Box::new(f));
    }

    /// The wrapped engine (for FT-infrastructure calls and inspection).
    pub fn engine(&self) -> &Processor {
        &self.driver.engine
    }

    /// Mutable access to the engine. Call through
    /// [`ftmp_net::SimNet::with_node`] so the resulting actions are
    /// transmitted.
    pub fn engine_mut(&mut self) -> &mut Processor {
        &mut self.driver.engine
    }

    /// Drain ordered deliveries accumulated so far, each stamped with the
    /// virtual time at which it was delivered.
    pub fn take_deliveries(&mut self) -> Vec<(SimTime, Delivery)> {
        self.upcalls.deliveries.drain(..).collect()
    }

    /// Drain protocol events accumulated so far, stamped with delivery time.
    pub fn take_events(&mut self) -> Vec<(SimTime, ProtocolEvent)> {
        self.upcalls.events.drain(..).collect()
    }

    /// Peek at queued deliveries without draining.
    pub fn deliveries(&self) -> impl Iterator<Item = &(SimTime, Delivery)> {
        self.upcalls.deliveries.iter()
    }

    fn turn(
        &mut self,
        now: SimTime,
        tick_due: bool,
        out: &mut Outbox,
        feed: impl FnOnce(&mut Processor),
    ) {
        self.last_now = now;
        let up = &mut self.upcalls;
        self.driver
            .turn(now, tick_due, up, out, |engine, _| feed(engine));
    }

    /// Apply the engine's pending actions to an outbox, queueing upcalls
    /// stamped with `now`.
    pub fn pump_at(&mut self, now: SimTime, out: &mut Outbox) {
        self.turn(now, false, out, |_| {});
    }

    /// Apply pending actions using the last observed virtual time.
    pub fn pump(&mut self, out: &mut Outbox) {
        self.pump_at(self.last_now, out);
    }
}

impl SimNode for SimProcessor {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        self.turn(now, false, out, |engine| engine.handle_packet(now, pkt));
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.turn(now, true, out, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::config::ProtocolConfig;
    use crate::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
    use crate::wire;
    use bytes::Bytes;
    use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet};

    fn conn() -> ConnectionId {
        ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
    }

    /// Build an n-member simulated group with a pre-bound connection.
    pub(crate) fn build_net(
        n: u32,
        sim_cfg: SimConfig,
        cfg: ProtocolConfig,
    ) -> SimNet<SimProcessor> {
        let gid = GroupId(1);
        let addr = McastAddr(100);
        let members: Vec<ProcessorId> = (1..=n).map(ProcessorId).collect();
        let mut net = SimNet::new(sim_cfg);
        net.set_classifier(wire::classify);
        net.set_message_counter(wire::message_count);
        for id in 1..=n {
            let mut engine = Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport);
            engine.create_group(ftmp_net::SimTime::ZERO, gid, addr, members.clone());
            let mut node = SimProcessor::new(engine);
            // Apply the initial Join action.
            let mut out = Outbox::default();
            node.pump(&mut out);
            net.add_node(id, node);
            net.subscribe(id, addr);
        }
        // Bind the test connection everywhere.
        for id in 1..=n {
            net.with_node(id, |n, _, _| {
                n.engine_mut().bind_connection(conn(), gid);
            });
        }
        net
    }

    #[test]
    fn three_members_converge_on_one_total_order() {
        let mut net = build_net(3, SimConfig::with_seed(7), ProtocolConfig::with_seed(7));
        // Everyone multicasts concurrently.
        for (i, id) in (1u32..=3).enumerate() {
            net.with_node(id, |n, now, out| {
                n.engine_mut()
                    .multicast_request(
                        now,
                        conn(),
                        RequestNum(i as u64 + 1),
                        Bytes::from(vec![id as u8]),
                    )
                    .unwrap();
                n.pump(out);
            });
        }
        net.run_for(SimDuration::from_millis(100));
        let seqs: Vec<Vec<(u64, u32)>> = (1..=3u32)
            .map(|id| {
                net.node_mut(id)
                    .unwrap()
                    .take_deliveries()
                    .iter()
                    .map(|(_, d)| (d.ts.0, d.source.0))
                    .collect()
            })
            .collect();
        assert_eq!(seqs[0].len(), 3, "all three messages delivered");
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn loss_recovered_transparently() {
        let sim_cfg = SimConfig::with_seed(3).loss(ftmp_net::LossModel::Iid { p: 0.2 });
        let mut net = build_net(3, sim_cfg, ProtocolConfig::with_seed(3));
        for k in 0..20u64 {
            let id = (k % 3) as u32 + 1;
            net.with_node(id, |n, now, out| {
                n.engine_mut()
                    .multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![k as u8]))
                    .unwrap();
                n.pump(out);
            });
            net.run_for(SimDuration::from_millis(2));
        }
        net.run_for(SimDuration::from_millis(300));
        let all: Vec<Vec<(u64, u32)>> = (1..=3u32)
            .map(|id| {
                net.node_mut(id)
                    .unwrap()
                    .take_deliveries()
                    .iter()
                    .map(|(_, d)| (d.ts.0, d.source.0))
                    .collect()
            })
            .collect();
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
        net.with_node(3, |n, now, out| {
            n.engine_mut()
                .multicast_request(now, conn(), RequestNum(1), Bytes::from_static(b"last"))
                .unwrap();
            n.pump(out);
        });
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
                    crate::processor::ProtocolEvent::FaultReport { processor, .. }
                    if *processor == ProcessorId(3)
                )),
                "P{id} reported the fault: {events:?}"
            );
            let members = node.engine().membership(GroupId(1)).unwrap();
            assert_eq!(members, vec![ProcessorId(1), ProcessorId(2)]);
        }
        // Virtual synchrony: both survivors delivered the same set.
        let d1: Vec<(u64, u32)> = net
            .node_mut(1)
            .unwrap()
            .take_deliveries()
            .iter()
            .map(|(_, d)| (d.ts.0, d.source.0))
            .collect();
        let d2: Vec<(u64, u32)> = net
            .node_mut(2)
            .unwrap()
            .take_deliveries()
            .iter()
            .map(|(_, d)| (d.ts.0, d.source.0))
            .collect();
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 1, "the crashed sender's message was flushed");
    }

    #[test]
    fn retention_reclaimed_by_ack_stability() {
        let mut net = build_net(3, SimConfig::with_seed(11), ProtocolConfig::with_seed(11));
        for k in 0..10u64 {
            net.with_node(1, |n, now, out| {
                n.engine_mut()
                    .multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![0u8; 64]))
                    .unwrap();
                n.pump(out);
            });
            net.run_for(SimDuration::from_millis(1));
        }
        let peak = net
            .node(1)
            .unwrap()
            .engine()
            .group_metrics(GroupId(1))
            .unwrap()
            .retention_msgs;
        assert!(peak > 0);
        // Quiet period: acks circulate via heartbeats, stability advances.
        net.run_for(SimDuration::from_millis(500));
        let after = net
            .node(1)
            .unwrap()
            .engine()
            .group_metrics(GroupId(1))
            .unwrap()
            .retention_msgs;
        assert!(
            after < peak,
            "retention should shrink once acks stabilize (peak {peak}, after {after})"
        );
    }

    /// FNV-1a over every traced event: any byte-level or ordering change to
    /// the wire behaviour moves this hash.
    fn trace_hash(net: &SimNet<SimProcessor>) -> u64 {
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
    /// multicasts back-to-back, 100 ms of protocol time.
    fn traced_run(cfg: ProtocolConfig) -> SimNet<SimProcessor> {
        traced_run_with(cfg, false)
    }

    /// Same scenario, optionally with telemetry enabled on every engine.
    fn traced_run_with(cfg: ProtocolConfig, telemetry: bool) -> SimNet<SimProcessor> {
        let mut net = build_net(3, SimConfig::with_seed(7), cfg);
        if telemetry {
            for id in 1u32..=3 {
                net.with_node(id, |n, _, _| n.engine_mut().enable_telemetry());
            }
        }
        net.enable_trace(1 << 16);
        for id in 1u32..=3 {
            net.with_node(id, |n, now, out| {
                for k in 0..3u64 {
                    n.engine_mut()
                        .multicast_request(
                            now,
                            conn(),
                            RequestNum(u64::from(id) * 10 + k),
                            Bytes::from(vec![id as u8; 32]),
                        )
                        .unwrap();
                }
                n.pump(out);
            });
        }
        net.run_for(SimDuration::from_millis(100));
        net
    }

    /// The hash of [`traced_run`] recorded from the pre-packing protocol.
    /// Every member bursts in the same instant there, so nobody is a quiet
    /// blocker and horizon on demand never fires: the default configuration
    /// and the paper's timer-only heartbeat both reproduce it.
    const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

    /// The hash of [`traced_paced_run`] under the default configuration,
    /// where every message draws one prompted Heartbeat from each quiet
    /// member (DESIGN.md §4).
    const GOLDEN_PROMPTED: u64 = 0xB486_CABB_BC5F_89A5;

    /// A second fixed scenario, the one horizon on demand exists for: only
    /// member 1 multicasts, once every 7 ms for 98 ms, among quiet members.
    fn traced_paced_run(cfg: ProtocolConfig) -> SimNet<SimProcessor> {
        let mut net = build_net(3, SimConfig::with_seed(7), cfg);
        net.enable_trace(1 << 16);
        for k in 0..14u64 {
            net.with_node(1, |n, now, out| {
                n.engine_mut()
                    .multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![1u8; 32]))
                    .unwrap();
                n.pump(out);
            });
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
        let prompted = |net: &SimNet<SimProcessor>, id: u32| {
            net.node(id).unwrap().engine().stats().heartbeats_prompted
        };
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
        let net = traced_run_with(ProtocolConfig::with_seed(7), true);
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
        use crate::ids::{GroupId, Timestamp};
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
            fn on_delivery(&mut self, _d: &crate::processor::Delivery) {
                self.0.deliveries.fetch_add(1, Ordering::Relaxed);
            }
            fn on_view_change(&mut self, _g: GroupId, _m: &[ProcessorId], _ts: Timestamp) {
                self.0.views.fetch_add(1, Ordering::Relaxed);
            }
        }

        let counts: Arc<Counts> = Arc::default();
        let mut net = build_net(3, SimConfig::with_seed(7), ProtocolConfig::with_seed(7));
        for id in 1u32..=3 {
            let c = Arc::clone(&counts);
            net.with_node(id, move |n, _, _| {
                n.engine_mut().set_delivery_log(Box::new(CountingLog(c)));
                assert!(n.engine().delivery_log_enabled());
            });
        }
        net.enable_trace(1 << 16);
        for id in 1u32..=3 {
            net.with_node(id, |n, now, out| {
                for k in 0..3u64 {
                    n.engine_mut()
                        .multicast_request(
                            now,
                            conn(),
                            RequestNum(u64::from(id) * 10 + k),
                            Bytes::from(vec![id as u8; 32]),
                        )
                        .unwrap();
                }
                n.pump(out);
            });
        }
        net.run_for(SimDuration::from_millis(100));
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
            net.with_node(1, |n, now, out| {
                n.engine_mut()
                    .multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![1u8]))
                    .unwrap();
                n.pump(out);
            });
            net.run_for(SimDuration::from_millis(2));
        }
        net.run_for(SimDuration::from_millis(50));
        net.crash(2);
        net.crash(3);
        // Fixed(1) quorum: P1 alone convicts both silent peers.
        net.run_for(SimDuration::from_millis(600));
        net.with_node(1, |n, _, _| {
            assert_eq!(
                n.engine().membership(GroupId(1)).unwrap(),
                vec![ProcessorId(1)],
                "both peers convicted and removed"
            );
        });
        // Post-reconfiguration traffic in the singleton view.
        net.with_node(1, |n, now, out| {
            n.engine_mut()
                .multicast_request(now, conn(), RequestNum(99), Bytes::from(vec![9u8]))
                .unwrap();
            n.pump(out);
        });
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

        let deliveries = |net: &mut SimNet<SimProcessor>| -> Vec<Vec<(u64, u32)>> {
            (1..=3u32)
                .map(|id| {
                    net.node_mut(id)
                        .unwrap()
                        .take_deliveries()
                        .iter()
                        .map(|(_, d)| (d.ts.0, d.source.0))
                        .collect()
                })
                .collect()
        };
        let mut plain = traced_run(ProtocolConfig::with_seed(7));
        let mut packed = traced_run(ProtocolConfig::with_seed(7).packing(Packing::with(
            1400,
            PackPolicy::Deadline(SimDuration::from_micros(500)),
        )));
        let d_plain = deliveries(&mut plain);
        let d_packed = deliveries(&mut packed);
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
        let hb = net
            .stats()
            .kind_packets(crate::wire::FtmpMsgType::Heartbeat as u8);
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

    fn delivery_keys(
        net: &mut SimNet<SimProcessor>,
        ids: impl Iterator<Item = u32>,
    ) -> Vec<Vec<(u64, u32)>> {
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

    /// Tree mode replaces full-mesh heartbeats with overlay digests and
    /// still converges on one total order under loss.
    #[test]
    fn tree_mode_converges_under_loss_with_digests_replacing_heartbeats() {
        let sim_cfg = SimConfig::with_seed(21).loss(ftmp_net::LossModel::Iid { p: 0.1 });
        let mut net = build_net(8, sim_cfg, tree_cfg(21, 2));
        for k in 0..16u64 {
            let id = (k % 8) as u32 + 1;
            net.with_node(id, |n, now, out| {
                n.engine_mut()
                    .multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![k as u8; 16]))
                    .unwrap();
                n.pump(out);
            });
            net.run_for(SimDuration::from_millis(2));
        }
        net.run_for(SimDuration::from_millis(500));
        let all = delivery_keys(&mut net, 1..=8u32);
        assert_eq!(all[0].len(), 16, "every message delivered despite loss");
        for w in all.windows(2) {
            assert_eq!(w[0], w[1], "identical total order everywhere");
        }
        // Digest traffic flows; standalone flat heartbeats do not.
        let digests: u64 = (1..=8u32)
            .map(|id| {
                let stats = net.node(id).unwrap().engine().stats();
                stats.received_of(crate::wire::FtmpMsgType::OverlayDigest)
            })
            .sum();
        assert!(digests > 0, "overlay digests circulated");
        let heartbeats: u64 = (1..=8u32)
            .map(|id| {
                let stats = net.node(id).unwrap().engine().stats();
                stats.sent_of(crate::wire::FtmpMsgType::Heartbeat)
            })
            .sum();
        assert_eq!(heartbeats, 0, "tree mode sends digests, not heartbeats");
    }

    /// Tree-mode control-plane scaling: at 16 members the per-interval
    /// control receptions drop by well over 4× against flat, because each
    /// digest reaches O(arity) subscribers instead of n-1.
    #[test]
    fn tree_mode_cuts_control_receptions() {
        let n = 16u32;
        let control = |net: &SimNet<SimProcessor>| -> u64 {
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
            net.with_node(id, |nd, now, out| {
                nd.engine_mut()
                    .multicast_request(now, conn(), RequestNum(100 + k), Bytes::from(vec![k as u8]))
                    .unwrap();
                nd.pump(out);
            });
            net.run_for(SimDuration::from_millis(3));
        }
        net.run_for(SimDuration::from_millis(500));
        let survivors: Vec<u32> = (1..=n).filter(|&id| id != 5).collect();
        for &id in &survivors {
            let members = net
                .node(id)
                .unwrap()
                .engine()
                .membership(GroupId(1))
                .unwrap();
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
            let suspects_sent = node
                .engine()
                .stats()
                .sent_of(crate::wire::FtmpMsgType::Suspect);
            assert_eq!(suspects_sent, 0, "P{id} raised a false suspicion");
            let events = node.take_events();
            assert!(
                !events
                    .iter()
                    .any(|(_, e)| matches!(e, crate::processor::ProtocolEvent::FaultReport { .. })),
                "P{id} convicted a healthy member: {events:?}"
            );
            let members = net
                .node(id)
                .unwrap()
                .engine()
                .membership(GroupId(1))
                .unwrap();
            assert_eq!(members.len() as u32, n, "membership intact at P{id}");
        }
    }
}
