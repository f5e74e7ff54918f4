//! Shell-level tests: whole-protocol scenarios driven through the public
//! `Processor` API over a tiny in-memory network.

use super::*;
use crate::config::Quorum;

pub(super) fn conn_ab() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// A tiny in-test network: lossless instant fan-out (including loopback)
/// with per-processor sinks for deliveries and events. Loss is injected
/// by dropping chosen sends before calling `flush`.
pub(super) struct MiniNet {
    procs: Vec<Processor>,
    delivered: Vec<Vec<Delivery>>,
    events: Vec<Vec<ProtocolEvent>>,
}

impl MiniNet {
    pub(super) fn new(n: u32, cfg: ProtocolConfig) -> Self {
        let procs: Vec<Processor> = (1..=n)
            .map(|id| Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport))
            .collect();
        MiniNet {
            delivered: vec![Vec::new(); procs.len()],
            events: vec![Vec::new(); procs.len()],
            procs,
        }
    }

    pub(super) fn bootstrap_group(&mut self, gid: GroupId, addr: McastAddr) {
        let members: Vec<ProcessorId> = self.procs.iter().map(|p| p.id()).collect();
        for p in &mut self.procs {
            p.create_group(SimTime(0), gid, addr, members.clone());
            p.bind_connection(conn_ab(), gid);
        }
        self.flush(SimTime(0));
    }

    pub(super) fn p(&mut self, id: u32) -> &mut Processor {
        &mut self.procs[(id - 1) as usize]
    }

    /// Drain every processor's actions repeatedly, fanning Sends out to
    /// every processor (loopback included), until quiescent.
    pub(super) fn flush(&mut self, now: SimTime) {
        loop {
            let mut packets: Vec<(u32, McastAddr, Bytes)> = Vec::new();
            for (i, p) in self.procs.iter_mut().enumerate() {
                for a in p.drain_actions() {
                    match a {
                        Action::Send { addr, payload } => {
                            packets.push((i as u32 + 1, addr, payload));
                        }
                        Action::Deliver(d) => self.delivered[i].push(d),
                        Action::Event(e) => self.events[i].push(e),
                        Action::Join(_)
                        | Action::Leave(_)
                        | Action::Backpressure(_)
                        | Action::SendReady(_) => {}
                    }
                }
            }
            if packets.is_empty() {
                break;
            }
            for (src, addr, payload) in packets {
                for p in self.procs.iter_mut() {
                    p.handle_packet(now, &Packet::new(src, addr, payload.clone()));
                }
            }
        }
    }

    /// Like flush, but drop sends matching `drop`.
    pub(super) fn flush_lossy(&mut self, now: SimTime, drop: &mut dyn FnMut(u32, &Bytes) -> bool) {
        loop {
            let mut packets: Vec<(u32, McastAddr, Bytes)> = Vec::new();
            for (i, p) in self.procs.iter_mut().enumerate() {
                for a in p.drain_actions() {
                    match a {
                        Action::Send { addr, payload } => {
                            packets.push((i as u32 + 1, addr, payload));
                        }
                        Action::Deliver(d) => self.delivered[i].push(d),
                        Action::Event(e) => self.events[i].push(e),
                        Action::Join(_)
                        | Action::Leave(_)
                        | Action::Backpressure(_)
                        | Action::SendReady(_) => {}
                    }
                }
            }
            if packets.is_empty() {
                break;
            }
            for (src, addr, payload) in packets {
                for (j, p) in self.procs.iter_mut().enumerate() {
                    // Loopback always arrives (kernel-local).
                    if j as u32 + 1 != src && drop(src, &payload) {
                        continue;
                    }
                    p.handle_packet(now, &Packet::new(src, addr, payload.clone()));
                }
            }
        }
    }

    pub(super) fn tick_all(&mut self, now: SimTime) {
        for p in &mut self.procs {
            p.tick(now);
        }
        self.flush(now);
    }

    pub(super) fn deliveries(&self, id: u32) -> &[Delivery] {
        &self.delivered[(id - 1) as usize]
    }

    pub(super) fn events_of(&self, id: u32) -> &[ProtocolEvent] {
        &self.events[(id - 1) as usize]
    }
}

pub(super) fn pair() -> (MiniNet, GroupId) {
    let gid = GroupId(1);
    let mut net = MiniNet::new(2, ProtocolConfig::with_seed(42));
    net.bootstrap_group(gid, McastAddr(100));
    (net, gid)
}

#[test]
fn regular_message_delivered_in_total_order_on_both() {
    let (mut net, _gid) = pair();
    let now = SimTime(1_000);
    let giop = Bytes::from_static(b"fake-giop");
    let out = net
        .p(1)
        .multicast_request(now, conn_ab(), RequestNum(1), giop.clone())
        .unwrap();
    assert!(matches!(out, SendOutcome::Sent { .. }));
    net.flush(now);
    // Not deliverable yet: P2's horizon is stale.
    assert!(net.deliveries(1).is_empty());
    assert!(net.deliveries(2).is_empty());
    // Heartbeats advance horizons.
    net.tick_all(SimTime(20_000));
    assert_eq!(net.deliveries(1).len(), 1);
    assert_eq!(net.deliveries(2).len(), 1);
    assert_eq!(net.deliveries(1)[0].giop, giop);
    assert_eq!(net.deliveries(2)[0].request_num, RequestNum(1));
    assert_eq!(net.deliveries(2)[0].source, ProcessorId(1));
}

#[test]
fn send_on_unbound_connection_fails() {
    let mut a = Processor::new(
        ProcessorId(1),
        ProtocolConfig::with_seed(42),
        ClockMode::Lamport,
    );
    let err = a
        .multicast_request(SimTime(0), conn_ab(), RequestNum(1), Bytes::new())
        .unwrap_err();
    assert_eq!(err, SendError::NotConnected);
}

#[test]
fn lost_message_recovered_via_nack() {
    let (mut net, gid) = pair();
    let now = SimTime(1_000);
    // First Regular from P1 is lost on its way to P2.
    let mut first = true;
    net.p(1)
        .multicast_request(now, conn_ab(), RequestNum(1), Bytes::from_static(b"m1"))
        .unwrap();
    net.flush_lossy(now, &mut |src, payload| {
        let is_regular = crate::wire::classify(payload) == Some(FtmpMsgType::Regular as u8);
        if src == 1 && is_regular && first {
            first = false;
            true
        } else {
            false
        }
    });
    net.p(1)
        .multicast_request(now, conn_ab(), RequestNum(2), Bytes::from_static(b"m2"))
        .unwrap();
    net.flush(now);
    assert!(
        net.p(2).group_metrics(gid).unwrap().rx_buffered > 0,
        "m2 buffered behind the gap"
    );
    // The NACK fires within jitter + a tick, the retransmission follows.
    net.tick_all(SimTime(1_000 + 3_000));
    net.tick_all(SimTime(1_000 + 12_000));
    assert!(net.p(2).stats().nacks_sent >= 1);
    assert!(net.p(1).stats().retransmissions_sent >= 1);
    assert_eq!(net.p(2).group_metrics(gid).unwrap().rx_buffered, 0);
    // Both messages eventually deliver in order at both.
    net.tick_all(SimTime(40_000));
    let d2: Vec<&'static str> = net
        .deliveries(2)
        .iter()
        .map(|d| if d.giop.as_ref() == b"m1" { "m1" } else { "m2" })
        .collect();
    assert_eq!(d2, vec!["m1", "m2"]);
}

#[test]
fn heartbeats_emitted_when_idle() {
    let (mut net, _gid) = pair();
    net.tick_all(SimTime(50_000));
    assert!(net.p(1).stats().sent_of(FtmpMsgType::Heartbeat) >= 1);
}

#[test]
fn heartbeat_suppressed_by_recent_traffic() {
    let (mut net, _gid) = pair();
    net.p(1)
        .multicast_request(SimTime(9_500), conn_ab(), RequestNum(1), Bytes::new())
        .unwrap();
    net.flush(SimTime(9_500));
    net.p(1).tick(SimTime(10_000)); // 0.5ms after the Regular
    assert_eq!(net.p(1).stats().sent_of(FtmpMsgType::Heartbeat), 0);
}

#[test]
fn fault_detection_convicts_and_reconfigures_singleton() {
    // Quorum Fixed(1): P1 alone convicts the silent P2.
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(1).quorum(Quorum::Fixed(1));
    let mut a = Processor::new(ProcessorId(1), cfg, ClockMode::Lamport);
    a.create_group(
        SimTime(0),
        gid,
        McastAddr(100),
        [ProcessorId(1), ProcessorId(2)],
    );
    a.drain_actions();
    let t = SimTime(300_000);
    a.tick(t);
    assert_eq!(a.membership(gid).unwrap(), vec![ProcessorId(1)]);
    let acts = a.drain_actions();
    assert!(acts.iter().any(|x| matches!(
        x,
        Action::Event(ProtocolEvent::FaultReport { processor, .. })
            if *processor == ProcessorId(2)
    )));
    assert!(acts
        .iter()
        .any(|x| matches!(x, Action::Event(ProtocolEvent::MembershipChange { .. }))));
    assert_eq!(a.stats().reconfigurations, 1);
}

#[test]
fn ordering_stalls_during_fault_then_resumes_after_removal() {
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(1).quorum(Quorum::Fixed(2));
    let mut net = MiniNet::new(2, cfg);
    // Group believes it has three members; P3 never exists.
    let members = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    for i in 1..=2u32 {
        net.p(i)
            .create_group(SimTime(0), gid, McastAddr(100), members);
        net.p(i).bind_connection(conn_ab(), gid);
    }
    net.flush(SimTime(0));
    let now = SimTime(1_000);
    net.p(1)
        .multicast_request(now, conn_ab(), RequestNum(1), Bytes::from_static(b"x"))
        .unwrap();
    net.flush(now);
    net.tick_all(SimTime(30_000));
    assert!(net.deliveries(1).is_empty(), "P3's silence stalls ordering");
    assert!(net.deliveries(2).is_empty());
    // Past fail_timeout both suspect P3; quorum 2 convicts; they
    // exchange Membership proposals and install {P1, P2}.
    net.tick_all(SimTime(300_000));
    net.tick_all(SimTime(320_000));
    assert_eq!(
        net.p(1).membership(gid).unwrap(),
        vec![ProcessorId(1), ProcessorId(2)]
    );
    assert_eq!(
        net.p(2).membership(gid).unwrap(),
        vec![ProcessorId(1), ProcessorId(2)]
    );
    assert_eq!(net.deliveries(1).len(), 1, "stalled message flushed");
    assert_eq!(net.deliveries(2).len(), 1);
    assert_eq!(
        (net.deliveries(1)[0].ts, net.deliveries(1)[0].source),
        (net.deliveries(2)[0].ts, net.deliveries(2)[0].source)
    );
}

#[test]
fn remove_processor_leaves_group_at_removed_member() {
    let (mut net, gid) = pair();
    net.p(1)
        .remove_processor(SimTime(1_000), gid, ProcessorId(2));
    net.flush(SimTime(1_000));
    net.tick_all(SimTime(30_000));
    assert_eq!(net.p(1).membership(gid).unwrap(), vec![ProcessorId(1)]);
    assert!(net.p(2).membership(gid).is_none(), "P2 left the group");
    assert!(net
        .events_of(2)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::LeftGroup { .. })));
}

#[test]
fn add_processor_joins_third_member() {
    let gid = GroupId(1);
    let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
    // Only P1 and P2 found the group; P3 waits to join.
    let founders = [ProcessorId(1), ProcessorId(2)];
    for i in 1..=2u32 {
        net.p(i)
            .create_group(SimTime(0), gid, McastAddr(100), founders);
        net.p(i).bind_connection(conn_ab(), gid);
    }
    net.p(3).expect_join(gid, McastAddr(100));
    net.p(3).bind_connection(conn_ab(), gid);
    net.flush(SimTime(0));
    net.p(1).add_processor(SimTime(1_000), gid, ProcessorId(3));
    net.flush(SimTime(1_000));
    // P3 initialized immediately from the AddProcessor (provisionally:
    // JoinedGroup only fires once the Add reaches its ordered position).
    assert_eq!(net.p(3).membership(gid).unwrap().len(), 3);
    // P1/P2 add P3 once the AddProcessor is ordered; P3 confirms.
    net.tick_all(SimTime(30_000));
    assert_eq!(net.p(1).membership(gid).unwrap().len(), 3);
    assert_eq!(net.p(2).membership(gid).unwrap().len(), 3);
    assert!(net
        .events_of(3)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::JoinedGroup { .. })));
    // Sponsor's retransmission state clears once P3 is heard.
    net.tick_all(SimTime(60_000));
    assert!(net
        .p(1)
        .groups
        .get(&gid)
        .unwrap()
        .pgmp
        .sponsor_joins
        .is_empty());
}

#[test]
fn joiner_does_not_deliver_pre_join_traffic() {
    let gid = GroupId(1);
    let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
    let founders = [ProcessorId(1), ProcessorId(2)];
    for i in 1..=2u32 {
        net.p(i)
            .create_group(SimTime(0), gid, McastAddr(100), founders);
        net.p(i).bind_connection(conn_ab(), gid);
    }
    net.flush(SimTime(0));
    // Pre-join traffic, fully delivered at the founders.
    net.p(1)
        .multicast_request(
            SimTime(1_000),
            conn_ab(),
            RequestNum(1),
            Bytes::from_static(b"old"),
        )
        .unwrap();
    net.flush(SimTime(1_000));
    net.tick_all(SimTime(25_000));
    assert_eq!(net.deliveries(1).len(), 1);
    // P3 joins.
    net.p(3).expect_join(gid, McastAddr(100));
    net.p(3).bind_connection(conn_ab(), gid);
    net.p(1).add_processor(SimTime(30_000), gid, ProcessorId(3));
    net.flush(SimTime(30_000));
    // Post-join traffic.
    let _ = net.p(2).multicast_request(
        SimTime(40_000),
        conn_ab(),
        RequestNum(2),
        Bytes::from_static(b"new"),
    );
    net.flush(SimTime(40_000));
    net.tick_all(SimTime(55_000));
    net.tick_all(SimTime(70_000));
    let d3: Vec<&[u8]> = net.deliveries(3).iter().map(|d| d.giop.as_ref()).collect();
    assert_eq!(
        d3,
        vec![b"new".as_ref()],
        "joiner sees only post-join traffic"
    );
    // Founders see both, joiner's suffix matches theirs.
    let d1: Vec<&[u8]> = net.deliveries(1).iter().map(|d| d.giop.as_ref()).collect();
    assert_eq!(d1, vec![b"old".as_ref(), b"new".as_ref()]);
}

#[test]
fn duplicate_loopback_not_counted_as_duplicate_stat() {
    let (mut net, _gid) = pair();
    net.p(1)
        .multicast_request(SimTime(1_000), conn_ab(), RequestNum(1), Bytes::new())
        .unwrap();
    net.flush(SimTime(1_000));
    assert_eq!(net.p(1).stats().duplicates, 0);
    // A genuine duplicate from a peer *is* counted.
    net.p(2)
        .multicast_request(SimTime(2_000), conn_ab(), RequestNum(2), Bytes::new())
        .unwrap();
    let packets: Vec<(McastAddr, Bytes)> = net
        .p(2)
        .drain_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { addr, payload } => Some((addr, payload)),
            _ => None,
        })
        .collect();
    for (addr, payload) in &packets {
        net.p(1)
            .handle_packet(SimTime(2_000), &Packet::new(2, *addr, payload.clone()));
        net.p(1)
            .handle_packet(SimTime(2_100), &Packet::new(2, *addr, payload.clone()));
    }
    assert_eq!(net.p(1).stats().duplicates, 1);
}

#[test]
fn corrupt_packet_ignored() {
    let (mut net, _gid) = pair();
    net.p(1)
        .handle_packet(SimTime(0), &Packet::new(9, McastAddr(100), vec![1, 2, 3]));
    assert!(net.p(1).drain_actions().is_empty());
}

#[test]
fn queued_sends_flush_after_reconfiguration() {
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(9).quorum(Quorum::Fixed(1));
    let mut a = Processor::new(ProcessorId(1), cfg, ClockMode::Lamport);
    a.create_group(
        SimTime(0),
        gid,
        McastAddr(1),
        [ProcessorId(1), ProcessorId(2)],
    );
    a.bind_connection(conn_ab(), gid);
    a.drain_actions();
    // Force a suspicion → reconfig; P2 silent. During the (instant,
    // single-survivor) reconfig a send arrives. After completion the
    // queued send must have been transmitted.
    a.tick(SimTime(200_000));
    assert_eq!(a.membership(gid).unwrap(), vec![ProcessorId(1)]);
    let r = a
        .multicast_request(SimTime(210_000), conn_ab(), RequestNum(1), Bytes::new())
        .unwrap();
    assert!(matches!(r, SendOutcome::Sent { .. }));
    // Single member: own horizon suffices; message delivers.
    let acts = a.drain_actions();
    assert!(acts.iter().any(|x| matches!(x, Action::Deliver(_))));
}

#[test]
fn sends_queued_behind_a_gate_survive_a_closed_send_window() {
    use crate::config::FlowControl;

    // Five sends queue behind a Connect gate; the window admits two. The
    // gate's release used to pop all five and drop the three refused ones.
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(42).flow_control(FlowControl::window(2, 1));
    let mut net = MiniNet::new(2, cfg);
    net.bootstrap_group(gid, McastAddr(100));
    net.p(1).groups.get_mut(&gid).unwrap().pgmp.gate = Some(Timestamp(1));
    for k in 1..=5u64 {
        let out = net
            .p(1)
            .multicast_request(SimTime(1_000), conn_ab(), RequestNum(k), Bytes::new())
            .unwrap();
        assert_eq!(out, SendOutcome::Queued);
    }
    // Heartbeats lift every horizon past the gate, then carry the acks
    // that reopen the window as often as it takes.
    for t in (10_000..=200_000).step_by(10_000) {
        net.tick_all(SimTime(t));
    }
    for id in 1..=2u32 {
        let got: Vec<u64> = net.deliveries(id).iter().map(|d| d.request_num.0).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "P{id}");
    }
    assert!(
        net.p(1).stats().backpressure_closes >= 1,
        "the window did close"
    );
}

#[test]
fn packed_ack_vector_reflects_mid_stream_join() {
    use crate::config::{PackPolicy, Packing};

    // Solo group with deadline packing: every flush carries the memoized
    // ack-vector trailer, so a join that fails to invalidate the memo would
    // keep advertising the pre-join membership on the wire.
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(42).packing(Packing::with(
        1400,
        PackPolicy::Deadline(SimDuration::from_micros(500)),
    ));
    let mut a = Processor::new(ProcessorId(1), cfg, ClockMode::Lamport);
    a.create_group(SimTime(0), gid, McastAddr(100), [ProcessorId(1)]);
    a.bind_connection(conn_ab(), gid);
    a.drain_actions();
    // Warm the memoized vector: the first packed flush encodes and caches it.
    a.multicast_request(SimTime(1_000), conn_ab(), RequestNum(1), Bytes::new())
        .unwrap();
    a.tick(SimTime(2_000));
    a.drain_actions();
    // P2 joins mid-stream; solo ordering commits the AddProcessor instantly.
    a.add_processor(SimTime(3_000), gid, ProcessorId(2));
    a.multicast_request(SimTime(3_000), conn_ab(), RequestNum(2), Bytes::new())
        .unwrap();
    a.tick(SimTime(4_000));
    let vectors: Vec<crate::wire::AckVector> = a
        .drain_actions()
        .iter()
        .filter_map(|x| match x {
            Action::Send { payload, .. } if crate::wire::is_packed(payload) => {
                crate::wire::unpack(payload).unwrap().1
            }
            _ => None,
        })
        .collect();
    assert!(
        !vectors.is_empty(),
        "a packed datagram carried an ack-vector trailer"
    );
    for v in &vectors {
        assert!(
            v.entries.iter().any(|(p, _)| *p == ProcessorId(2)),
            "stale memoized ack vector after join: {:?}",
            v.entries
        );
    }
}

mod rebind_tests {
    use super::*;
    use crate::config::Quorum;

    #[test]
    fn rebind_moves_the_connection_atomically() {
        let (mut net, _gid) = pair();
        let new_gid = GroupId(2);
        let new_addr = McastAddr(200);
        // P1 initiates the re-addressing; the Connect orders in G1.
        net.p(1)
            .rebind_connection(SimTime(1_000), conn_ab(), new_gid, new_addr);
        net.flush(SimTime(1_000));
        net.tick_all(SimTime(20_000)); // horizons cover the Connect
        for i in 1..=2u32 {
            assert_eq!(
                net.p(i).connection_group(conn_ab()),
                Some(new_gid),
                "P{i} rebound"
            );
            assert!(net.p(i).membership(new_gid).is_some(), "P{i} joined G2");
        }
        // Traffic now flows (and delivers) on the new group.
        net.tick_all(SimTime(40_000)); // release the Connect gate
        let r = net
            .p(1)
            .multicast_request(
                SimTime(41_000),
                conn_ab(),
                RequestNum(9),
                Bytes::from_static(b"x"),
            )
            .unwrap();
        match r {
            SendOutcome::Sent { group, .. } => assert_eq!(group, new_gid),
            SendOutcome::Queued => {} // gate may still hold; flushes below
        }
        net.flush(SimTime(41_000));
        net.tick_all(SimTime(60_000));
        net.tick_all(SimTime(80_000));
        let d: Vec<_> = net
            .deliveries(2)
            .iter()
            .map(|d| (d.group, d.request_num))
            .collect();
        assert_eq!(d, vec![(new_gid, RequestNum(9))]);
    }

    #[test]
    fn in_flight_message_is_retransmitted_on_the_new_group() {
        let (mut net, old_gid) = pair();
        let new_gid = GroupId(2);
        let new_addr = McastAddr(200);
        // P1 sends the rebind Connect but P2, not yet having seen it,
        // multicasts a Regular on the old group.
        net.p(1)
            .rebind_connection(SimTime(1_000), conn_ab(), new_gid, new_addr);
        let r = net
            .p(2)
            .multicast_request(
                SimTime(1_000),
                conn_ab(),
                RequestNum(5),
                Bytes::from_static(b"y"),
            )
            .unwrap();
        assert!(matches!(r, SendOutcome::Sent { group, .. } if group == old_gid));
        net.flush(SimTime(1_000));
        for t in [20_000u64, 40_000, 60_000, 80_000] {
            net.tick_all(SimTime(t));
        }
        // Both members deliver the message exactly once, on the new group
        // (the old-group ordering position was ignored and the sender
        // re-multicast it after the switch).
        for i in 1..=2u32 {
            let d: Vec<_> = net
                .deliveries(i)
                .iter()
                .filter(|d| d.request_num == RequestNum(5))
                .map(|d| d.group)
                .collect();
            assert_eq!(d, vec![new_gid], "P{i} delivered once on the new group");
        }
    }

    #[test]
    fn conviction_removes_processor_from_all_groups() {
        // One silent processor (P3) shares two groups with P1/P2; one
        // conviction must reconfigure both (§2: "removes a processor that
        // has been convicted … from all processor groups").
        let cfg = ProtocolConfig::with_seed(31).quorum(Quorum::Fixed(2));
        let mut net = MiniNet::new(2, cfg);
        let members = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
        for i in 1..=2u32 {
            net.p(i)
                .create_group(SimTime(0), GroupId(1), McastAddr(100), members);
            net.p(i)
                .create_group(SimTime(0), GroupId(2), McastAddr(101), members);
        }
        net.flush(SimTime(0));
        net.tick_all(SimTime(300_000));
        net.tick_all(SimTime(320_000));
        for i in 1..=2u32 {
            for gid in [GroupId(1), GroupId(2)] {
                assert_eq!(
                    net.p(i).membership(gid).unwrap(),
                    vec![ProcessorId(1), ProcessorId(2)],
                    "P{i} {gid}"
                );
            }
        }
    }

    #[test]
    fn groups_order_independently() {
        // Traffic in one group does not wait on the other group's members.
        let cfg = ProtocolConfig::with_seed(32);
        let mut net = MiniNet::new(3, cfg);
        let g1 = GroupId(1);
        let g2 = GroupId(2);
        let c2 = ConnectionId::new(ObjectGroupId::new(9, 1), ObjectGroupId::new(9, 2));
        // G1: {P1,P2,P3} bound to conn_ab; G2: {P1,P2} bound to c2.
        for i in 1..=3u32 {
            net.p(i).create_group(
                SimTime(0),
                g1,
                McastAddr(100),
                [ProcessorId(1), ProcessorId(2), ProcessorId(3)],
            );
            net.p(i).bind_connection(conn_ab(), g1);
        }
        for i in 1..=2u32 {
            net.p(i).create_group(
                SimTime(0),
                g2,
                McastAddr(101),
                [ProcessorId(1), ProcessorId(2)],
            );
            net.p(i).bind_connection(c2, g2);
        }
        net.flush(SimTime(0));
        net.p(1)
            .multicast_request(SimTime(1_000), c2, RequestNum(1), Bytes::from_static(b"g2"))
            .unwrap();
        net.p(1)
            .multicast_request(
                SimTime(1_000),
                conn_ab(),
                RequestNum(2),
                Bytes::from_static(b"g1"),
            )
            .unwrap();
        net.flush(SimTime(1_000));
        net.tick_all(SimTime(30_000));
        let groups: Vec<GroupId> = net.deliveries(2).iter().map(|d| d.group).collect();
        assert!(groups.contains(&g1));
        assert!(groups.contains(&g2));
        // P3 sees only G1 traffic.
        let g3: Vec<GroupId> = net.deliveries(3).iter().map(|d| d.group).collect();
        assert_eq!(g3, vec![g1]);
    }
}

/// Horizon on demand (DESIGN.md §4): the heartbeat rule's two call sites.
mod prompt_tests {
    use super::*;
    use crate::config::OverlayPolicy;
    use crate::pgmp::Reconfig;

    /// Drain `p`'s actions, returning the datagrams it sent and whether it
    /// delivered anything.
    fn drain(p: &mut Processor) -> (Vec<(McastAddr, Bytes)>, bool) {
        let mut sent = Vec::new();
        let mut delivered = false;
        for a in p.drain_actions() {
            match a {
                Action::Send { addr, payload } => sent.push((addr, payload)),
                Action::Deliver(_) => delivered = true,
                _ => {}
            }
        }
        (sent, delivered)
    }

    /// The timestamps of the Heartbeats among `sent`.
    fn heartbeats(sent: &[(McastAddr, Bytes)]) -> Vec<Timestamp> {
        sent.iter()
            .filter_map(|(_, b)| FtmpMessage::decode_shared(b).ok())
            .filter(|m| m.msg_type() == FtmpMsgType::Heartbeat)
            .map(|m| m.ts)
            .collect()
    }

    /// P1 multicasts one Regular at `now`; returns its datagram and stamp.
    fn regular_from_p1(net: &mut MiniNet, now: SimTime, n: u64) -> (Packet, Timestamp) {
        net.p(1)
            .multicast_request(now, conn_ab(), RequestNum(n), Bytes::from_static(b"x"))
            .unwrap();
        let (sent, _) = drain(net.p(1));
        assert_eq!(sent.len(), 1, "P1 is not quiet: it sends only the Regular");
        let (addr, payload) = sent.into_iter().next().unwrap();
        let ts = FtmpMessage::decode_shared(&payload).unwrap().ts;
        (Packet::new(1, addr, payload), ts)
    }

    #[test]
    fn quiet_blocker_heartbeats_inside_handle_packet() {
        let (mut net, gid) = pair();
        // (i) 6 ms of silence: past the half interval, short of the timer.
        let (pkt, regular_ts) = regular_from_p1(&mut net, SimTime(6_000), 1);
        net.p(2).handle_packet(SimTime(6_300), &pkt);
        let (sent, delivered) = drain(net.p(2));
        let hb = heartbeats(&sent);
        assert_eq!(hb.len(), 1, "exactly one prompted Heartbeat: {sent:?}");
        assert_eq!(sent.len(), 1, "and nothing else");
        assert!(hb[0] > regular_ts, "stamped above the Regular it unblocks");
        assert!(delivered, "its own horizon was the last one missing");
        assert_eq!(net.p(2).stats().heartbeats_prompted, 1);
        assert!(net
            .p(2)
            .group_metrics(gid)
            .unwrap()
            .head_blocked_on
            .is_empty());
        for (addr, payload) in sent {
            net.p(1)
                .handle_packet(SimTime(6_600), &Packet::new(2, addr, payload));
        }
        assert!(drain(net.p(1)).1, "the sender delivers one round trip on");

        // (ii) A second Regular inside the half interval: nothing now …
        let (pkt, _) = regular_from_p1(&mut net, SimTime(7_000), 2);
        net.p(2).handle_packet(SimTime(7_300), &pkt);
        let (sent, delivered) = drain(net.p(2));
        assert!(sent.is_empty() && !delivered, "rate-limited: {sent:?}");
        assert_eq!(
            net.p(2).group_metrics(gid).unwrap().head_blocked_on,
            vec![ProcessorId(2)],
            "the hold is attributed to the quiet member"
        );
        // … and the timer fires the same rule once the gap has passed
        // (strictly: at exactly half an interval it is not yet due).
        net.p(2).tick(SimTime(6_300 + 5_000));
        assert!(drain(net.p(2)).0.is_empty());
        net.p(2).tick(SimTime(6_300 + 5_001));
        let (sent, delivered) = drain(net.p(2));
        assert_eq!(heartbeats(&sent).len(), 1, "{sent:?}");
        assert!(delivered);
        assert_eq!(net.p(2).stats().heartbeats_prompted, 2);
        net.p(2).tick(SimTime(6_300 + 5_002));
        assert!(
            drain(net.p(2)).0.is_empty(),
            "one heartbeat, not one per tick"
        );
    }

    #[test]
    fn a_packet_prompts_only_in_its_own_group() {
        // P2 holds back the head of two groups, both past the half interval;
        // the datagram it has just handled was for one of them. The other's
        // Heartbeat is the timer's to send, by the same rule.
        let (mut net, g1) = pair();
        let g2 = GroupId(2);
        let c2 = ConnectionId::new(ObjectGroupId::new(9, 1), ObjectGroupId::new(9, 2));
        for i in 1..=2u32 {
            net.p(i).create_group(
                SimTime(0),
                g2,
                McastAddr(101),
                [ProcessorId(1), ProcessorId(2)],
            );
            net.p(i).bind_connection(c2, g2);
        }
        net.p(1)
            .multicast_request(SimTime(3_000), c2, RequestNum(1), Bytes::from_static(b"y"))
            .unwrap();
        let (sent, _) = drain(net.p(1));
        let (addr, payload) = sent.into_iter().next().unwrap();
        net.p(2)
            .handle_packet(SimTime(3_300), &Packet::new(1, addr, payload));
        assert!(drain(net.p(2)).0.is_empty(), "inside G2's half interval");

        let (pkt, _) = regular_from_p1(&mut net, SimTime(6_000), 2);
        net.p(2).handle_packet(SimTime(6_300), &pkt);
        let (sent, _) = drain(net.p(2));
        let groups: Vec<GroupId> = sent
            .iter()
            .map(|(_, b)| FtmpMessage::decode_shared(b).unwrap().group)
            .collect();
        assert_eq!(heartbeats(&sent).len(), 1);
        assert_eq!(groups, vec![g1], "the datagram's group and no other");

        net.p(2).tick(SimTime(6_300));
        let (sent, delivered) = drain(net.p(2));
        let groups: Vec<GroupId> = sent
            .iter()
            .map(|(_, b)| FtmpMessage::decode_shared(b).unwrap().group)
            .collect();
        assert_eq!(heartbeats(&sent).len(), 1);
        assert_eq!(groups, vec![g2], "the timer answers for the other group");
        assert!(delivered);
        assert_eq!(net.p(2).stats().heartbeats_prompted, 2);
    }

    #[test]
    fn recent_sender_is_not_prompted() {
        // (iii) P2 sent 2 ms ago; P1's clock runs ahead, so its Regular is
        // stamped above P2's own horizon and P2 does hold it back.
        let (mut net, gid) = pair();
        net.p(2)
            .multicast_request(SimTime(20_000), conn_ab(), RequestNum(1), Bytes::new())
            .unwrap();
        drain(net.p(2));
        net.p(1).clock.observe(Timestamp(1_000));
        let (pkt, _) = regular_from_p1(&mut net, SimTime(22_000), 2);
        net.p(2).handle_packet(SimTime(22_000), &pkt);
        assert!(drain(net.p(2)).0.is_empty());
        assert_eq!(net.p(2).stats().heartbeats_prompted, 0);
        assert!(net
            .p(2)
            .group_metrics(gid)
            .unwrap()
            .head_blocked_on
            .contains(&ProcessorId(2)));
    }

    #[test]
    fn survivors_do_not_prompt_for_a_crashed_member() {
        // (iv) The group counts three members; P3 never speaks.
        let gid = GroupId(1);
        let mut net = MiniNet::new(2, ProtocolConfig::with_seed(42));
        let members = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
        for i in 1..=2u32 {
            net.p(i)
                .create_group(SimTime(0), gid, McastAddr(100), members);
            net.p(i).bind_connection(conn_ab(), gid);
        }
        net.flush(SimTime(0));
        net.p(1)
            .multicast_request(SimTime(6_000), conn_ab(), RequestNum(1), Bytes::new())
            .unwrap();
        net.flush(SimTime(6_000));
        // P2 answered for itself, once; from here the head waits on P3 only.
        assert_eq!(net.p(2).stats().heartbeats_prompted, 1);
        for i in 1..=2u32 {
            assert_eq!(
                net.p(i).group_metrics(gid).unwrap().head_blocked_on,
                vec![ProcessorId(3)]
            );
        }
        let fail_timeout = ProtocolConfig::default().fail_timeout.as_micros();
        for t in (7_000..=fail_timeout).step_by(1_000) {
            net.tick_all(SimTime(t));
        }
        assert!(net.deliveries(1).is_empty() && net.deliveries(2).is_empty());
        assert_eq!(net.p(1).stats().heartbeats_prompted, 0);
        assert_eq!(net.p(2).stats().heartbeats_prompted, 1);
        let timer_beats = net.p(1).stats().sent_of(FtmpMsgType::Heartbeat);
        assert!(
            timer_beats <= fail_timeout / 10_000,
            "P1 kept to the heartbeat interval: {timer_beats}"
        );
    }

    #[test]
    fn no_prompt_during_reconfiguration_or_in_tree_mode() {
        // (v) Reconfiguration: P2 has convicted P3 and waits for P1's
        // proposal, which we withhold.
        let gid = GroupId(1);
        let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
        net.bootstrap_group(gid, McastAddr(100));
        net.p(2)
            .begin_or_extend_reconfig(SimTime(1_000), gid, [ProcessorId(3)].into());
        drain(net.p(2));
        assert!(net.p(2).is_reconfiguring(gid));
        net.p(1).clock.observe(Timestamp(1_000));
        let (pkt, _) = regular_from_p1(&mut net, SimTime(7_500), 1);
        net.p(2).handle_packet(SimTime(7_500), &pkt);
        assert!(drain(net.p(2)).0.is_empty());
        net.p(2).tick(SimTime(8_000));
        assert!(heartbeats(&drain(net.p(2)).0).is_empty());
        assert_eq!(net.p(2).stats().heartbeats_prompted, 0);
        assert!(net
            .p(2)
            .group_metrics(gid)
            .unwrap()
            .head_blocked_on
            .contains(&ProcessorId(2)));
        // The same state outside a reconfiguration does prompt.
        let g = net.p(2).groups.get_mut(&gid).unwrap();
        assert!(matches!(g.pgmp.reconfig.take(), Some(Reconfig { .. })));
        net.p(2).tick(SimTime(8_001));
        assert_eq!(heartbeats(&drain(net.p(2)).0).len(), 1);

        // Tree mode: liveness travels as per-tick digests, never prompted.
        let cfg = ProtocolConfig::with_seed(42).overlay(OverlayPolicy::Tree { arity: 2 });
        let mut net = MiniNet::new(2, cfg);
        net.bootstrap_group(gid, McastAddr(100));
        let (pkt, _) = regular_from_p1(&mut net, SimTime(6_000), 1);
        net.p(2).handle_packet(SimTime(6_300), &pkt);
        assert!(drain(net.p(2)).0.is_empty());
        net.p(2).tick(SimTime(7_000));
        let (sent, _) = drain(net.p(2));
        assert!(heartbeats(&sent).is_empty(), "{sent:?}");
        assert_eq!(net.p(2).stats().heartbeats_prompted, 0);
        assert_eq!(
            net.p(2).group_metrics(gid).unwrap().head_blocked_on,
            vec![ProcessorId(2)]
        );
    }
}

/// The metrics read-out (DESIGN.md §10): one view, each fact under one name,
/// and the per-type counters behind `sent_of` / `received_of`.
mod metrics_tests {
    use super::*;
    use crate::config::OverlayPolicy;

    /// The whole view of a telemetry-enabled processor, names and kinds, as
    /// one literal: a key that appears, disappears or changes kind fails
    /// here before it moves a results file or the explorer's coverage map.
    #[test]
    fn register_metrics_names_each_fact_once() {
        let (mut net, _gid) = pair();
        net.p(1).enable_telemetry();
        let mut reg = Registry::new();
        net.p(1).register_metrics(&mut reg);
        let snap = reg.snapshot();
        let counters: Vec<&str> = snap.counters().map(|(n, _)| n).collect();
        let gauges: Vec<&str> = snap.gauges().map(|(n, _)| n).collect();
        let histograms: Vec<&str> = snap.histograms().map(|(n, _)| n).collect();
        assert_eq!(
            counters,
            [
                // The telemetry registry's own: nothing else counts these.
                "view_changes",
                "overlay_rebuilds",
                "overlay_digests_sent",
                "overlay_entries_merged",
                "overlay_repairs_neighborhood",
                "overlay_repairs_escalated",
                "overlay_solicits",
                "overlay_solicit_answers",
                "overlay_rescues",
                // Read from the engine, which counts them telemetry or no.
                "nacks_sent",
                "retransmissions_answered",
                "rtt_samples",
                "window_closes",
                "convictions",
                "deliveries",
                "packed_datagrams",
                "ftmp_messages_packed",
                "ftmp_heartbeats_suppressed",
                "ftmp_heartbeats_prompted",
                "ftmp_packed_rejects",
                "ftmp_control_received",
                "ftmp_retransmissions_received",
            ]
        );
        assert_eq!(
            gauges,
            [
                "overlay_depth",
                "gap_depth_peak",
                "conviction_margin_permille",
                "srtt_us",
                "rttvar_us",
            ]
        );
        assert_eq!(
            histograms,
            [
                "rmp_recovery_us",
                "ordering_delay_us",
                "stability_lag_us",
                "e2e_self_us",
                "view_change_us",
                "flow_stall_us",
                "pack_msgs_per_datagram",
                "nack_attempts",
                "suspicion_margin_permille",
            ]
        );
        // Without telemetry the always-on half is the whole view.
        let mut bare = Registry::new();
        net.p(2).register_metrics(&mut bare);
        let bare = bare.snapshot();
        assert_eq!(
            bare.counters().map(|(n, _)| n).collect::<Vec<_>>(),
            counters[9..]
        );
        assert_eq!(
            bare.gauges().map(|(n, _)| n).collect::<Vec<_>>(),
            gauges[3..]
        );
        assert_eq!(bare.histograms().count(), 0);
    }

    /// Messages per (processor, wire type), counted by the test itself.
    type Tally = BTreeMap<(u32, FtmpMsgType), u64>;

    /// [`MiniNet::flush`], counting every datagram by its decoded type as it
    /// leaves a processor (first transmissions only: a retransmission is the
    /// retention store's resend, not a send) and as it is handed to one.
    /// `cut` hears no one and is heard by no one.
    fn flush_counting(
        net: &mut MiniNet,
        now: SimTime,
        cut: Option<u32>,
        (sent, received): (&mut Tally, &mut Tally),
    ) {
        loop {
            let mut packets = Vec::new();
            for (i, p) in net.procs.iter_mut().enumerate() {
                let src = i as u32 + 1;
                for a in p.drain_actions() {
                    if let Action::Send { addr, payload } = a {
                        let msg = FtmpMessage::decode_shared(&payload).unwrap();
                        if !msg.retransmission {
                            *sent.entry((src, msg.msg_type())).or_default() += 1;
                        }
                        packets.push((src, addr, msg.msg_type(), payload));
                    }
                }
            }
            if packets.is_empty() {
                return;
            }
            for (src, addr, t, payload) in packets {
                for (j, p) in net.procs.iter_mut().enumerate() {
                    let dst = j as u32 + 1;
                    if src != dst && (cut == Some(src) || cut == Some(dst)) {
                        continue;
                    }
                    *received.entry((dst, t)).or_default() += 1;
                    p.handle_packet(now, &Packet::new(src, addr, payload.clone()));
                }
            }
        }
    }

    /// Every processor's `sent_of` / `received_of`, all ten types, against
    /// the tallies; returns how many of each type were sent in all.
    fn assert_counts_match(net: &mut MiniNet, sent: &Tally, received: &Tally) -> Vec<u64> {
        let types: Vec<FtmpMsgType> = (0..10).map(|t| FtmpMsgType::from_u8(t).unwrap()).collect();
        for id in 1..=net.procs.len() as u32 {
            let stats = net.p(id).stats();
            for &t in &types {
                let of = |tally: &Tally| tally.get(&(id, t)).copied().unwrap_or(0);
                assert_eq!(stats.sent_of(t), of(sent), "P{id} sent {t:?}");
                assert_eq!(stats.received_of(t), of(received), "P{id} received {t:?}");
            }
        }
        let total = |t| {
            sent.iter()
                .filter(|((_, k), _)| *k == t)
                .map(|(_, n)| n)
                .sum()
        };
        types.into_iter().map(total).collect()
    }

    #[test]
    fn per_type_counts_match_a_hand_count_over_all_ten_types() {
        let gid = GroupId(1);
        let (mut sent, mut received) = (Tally::new(), Tally::new());
        let cfg = ProtocolConfig::with_seed(42).quorum(Quorum::Fixed(1));
        let mut net = MiniNet::new(3, cfg);
        for i in 1..=2u32 {
            net.p(i)
                .create_group(SimTime(0), gid, McastAddr(100), [1, 2].map(ProcessorId));
            net.p(i).bind_connection(conn_ab(), gid);
        }
        net.p(3).expect_join(gid, McastAddr(100));
        net.p(3).bind_connection(conn_ab(), gid);
        let mut step = |net: &mut MiniNet, at: u64, cut: Option<u32>, tick: bool| {
            for p in net.procs.iter_mut().filter(|_| tick) {
                p.tick(SimTime(at));
            }
            flush_counting(net, SimTime(at), cut, (&mut sent, &mut received));
        };
        let publish = |net: &mut MiniNet, at: u64, n: u64| {
            net.p(1)
                .multicast_request(SimTime(at), conn_ab(), RequestNum(n), Bytes::new())
                .unwrap();
        };
        step(&mut net, 0, None, false);
        // Regular; one P2 misses, so a RetransmitRequest and its answer.
        publish(&mut net, 1_000, 1);
        step(&mut net, 1_000, None, false);
        publish(&mut net, 2_000, 2);
        step(&mut net, 2_000, Some(2), false);
        publish(&mut net, 3_000, 3);
        step(&mut net, 3_000, None, false);
        step(&mut net, 6_000, None, true);
        step(&mut net, 15_000, None, true);
        // AddProcessor, idle Heartbeats, RemoveProcessor.
        net.p(1).add_processor(SimTime(20_000), gid, ProcessorId(3));
        step(&mut net, 20_000, None, false);
        step(&mut net, 50_000, None, true);
        net.p(1)
            .remove_processor(SimTime(60_000), gid, ProcessorId(3));
        step(&mut net, 60_000, None, false);
        step(&mut net, 90_000, None, true);
        // A ConnectRequest nobody serves, and a Connect re-addressing the
        // connection to a second group.
        let other = ConnectionId::new(ObjectGroupId::new(2, 1), ObjectGroupId::new(2, 2));
        net.p(1).open_connection(
            SimTime(100_000),
            other,
            vec![ProcessorId(1)],
            McastAddr(900),
        );
        net.p(1)
            .rebind_connection(SimTime(100_000), conn_ab(), GroupId(2), McastAddr(200));
        step(&mut net, 100_000, None, false);
        step(&mut net, 130_000, None, true);
        // P2 falls silent: Suspect, then (quorum of one) Membership.
        for at in (140_000..=600_000).step_by(10_000) {
            step(&mut net, at, Some(2), true);
        }
        let totals = assert_counts_match(&mut net, &sent, &received);
        assert!(
            totals[..9].iter().all(|&n| n > 0),
            "the run sends every flat type: {totals:?}"
        );

        // The tenth, OverlayDigest, is tree mode's heartbeat.
        let (mut sent, mut received) = (Tally::new(), Tally::new());
        let tree = ProtocolConfig::with_seed(42).overlay(OverlayPolicy::Tree { arity: 2 });
        let mut net = MiniNet::new(3, tree);
        for p in net.procs.iter_mut() {
            p.create_group(SimTime(0), gid, McastAddr(100), [1, 2, 3].map(ProcessorId));
        }
        for at in (0..=50_000).step_by(10_000) {
            for p in net.procs.iter_mut() {
                p.tick(SimTime(at));
            }
            flush_counting(&mut net, SimTime(at), None, (&mut sent, &mut received));
        }
        let totals = assert_counts_match(&mut net, &sent, &received);
        assert!(totals[9] > 0, "tree mode sends digests: {totals:?}");
    }
}

/// Hostile values, not hostile bytes (ROADMAP item 1): datagrams that decode
/// perfectly and carry an absurd number, met in the middle of an honest
/// three-member run. Each costs bounded work, overflows nothing (these run
/// with overflow checks on) and leaves the honest members agreeing.
mod hostile_values {
    use super::*;
    use crate::rmp::MAX_NACK_RANGES;

    const GID: GroupId = GroupId(1);
    const ADDR: McastAddr = McastAddr(100);

    fn trio() -> MiniNet {
        let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
        net.bootstrap_group(GID, ADDR);
        net
    }

    /// An unreliable message in `source`'s name, header sequence `seq`,
    /// handed to every member as if it had been multicast.
    fn inject(net: &mut MiniNet, now: SimTime, source: u32, seq: u64, body: FtmpBody) {
        let msg = FtmpMessage {
            retransmission: false,
            source: ProcessorId(source),
            group: GID,
            seq: SeqNum(seq),
            ts: Timestamp(1),
            ack_ts: Timestamp::ZERO,
            body,
        };
        let pkt = Packet::new(source, ADDR, msg.encode(ByteOrder::Big));
        for id in 1..=3 {
            net.p(id).handle_packet(now, &pkt);
        }
        net.flush(now);
    }

    /// 100 ms of honest traffic: a tick every 5 ms, one multicast per member
    /// on every other tick, `hostile` run once in the middle. Returns how
    /// many ticks ran after it.
    fn honest_run(net: &mut MiniNet, hostile: impl FnOnce(&mut MiniNet, SimTime)) -> u64 {
        let mut hostile = Some(hostile);
        let mut request = 0;
        for step in 1..=20u64 {
            let now = SimTime(step * 5_000);
            if step == 6 {
                hostile.take().expect("once")(net, now);
            }
            if step % 2 == 0 && step <= 16 {
                for id in 1..=3 {
                    request += 1;
                    let sent = net.p(id).multicast_request(
                        now,
                        conn_ab(),
                        RequestNum(request),
                        Bytes::new(),
                    );
                    assert!(sent.is_ok(), "P{id} at step {step}: {sent:?}");
                }
                net.flush(now);
            }
            net.tick_all(now);
        }
        for id in 1..=3 {
            let order = |id| -> Vec<(ProcessorId, SeqNum)> {
                let all = net.deliveries(id).iter();
                all.map(|d| (d.source, d.seq)).collect()
            };
            assert_eq!(order(id).len(), 24, "P{id} delivered everything");
            assert_eq!(order(id), order(1), "P{id} agrees with P1");
        }
        20 - 6 + 1
    }

    #[test]
    fn a_heartbeat_citing_an_absurd_sequence_number_costs_bounded_nacks() {
        // In a member's name (a corrupted or stale datagram) and in a
        // stranger's (a misconfigured group address).
        for (source, seq) in [(2, 1u64 << 60), (2, u64::MAX), (9, u64::MAX)] {
            let mut net = trio();
            let ticks = honest_run(&mut net, |net, now| {
                inject(net, now, source, seq, FtmpBody::Heartbeat);
            });
            for id in (1..=3).filter(|&id| id != source) {
                let nacks = net.p(id).stats().nacks_sent;
                assert!(nacks > 0, "P{id} asks for what the header claimed");
                assert!(
                    nacks <= ticks * MAX_NACK_RANGES as u64,
                    "P{id}: {nacks} requests over {ticks} ticks for seq {seq}"
                );
            }
        }
    }

    #[test]
    fn a_retransmit_request_at_the_end_of_the_sequence_space_overflows_nothing() {
        for (start_seq, stop_seq) in [
            (u64::MAX - 1, u64::MAX),
            (u64::MAX, u64::MAX),
            (0, u64::MAX),
            (u64::MAX, 0),
        ] {
            let mut net = trio();
            honest_run(&mut net, |net, now| {
                let body = FtmpBody::RetransmitRequest {
                    missing_from: ProcessorId(1),
                    start_seq,
                    stop_seq,
                };
                inject(net, now, 2, 0, body);
            });
            let answered = net.p(1).stats().retransmissions_sent;
            let span = ProtocolConfig::with_seed(42).max_nack_span;
            assert!(answered <= span, "{answered} answers to one request");
        }
    }
}
