//! Shell-level tests: whole-protocol scenarios driven through the public
//! `Processor` API over a tiny in-memory network.

use super::*;
use crate::adaptive::Interarrival;
use crate::clock::{STAMP_CEILING, STAMP_REACH};
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

/// Sustained loss from a busy sender: every third Regular from P1 is lost,
/// and so is the first retransmission of each. Every request but the first
/// is answered — it repairs the previous loss — yet a newer loss keeps a
/// gap open, so the stream is never contiguous. An answered request must
/// restart the backoff; otherwise the retry climbs to `fail_timeout` while
/// repair works.
#[test]
fn an_answered_nack_resets_the_backoff_under_sustained_loss() {
    let gid = GroupId(1);
    let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
    net.bootstrap_group(gid, McastAddr(100));
    let mut retransmitted = std::collections::BTreeSet::new();
    let mut lossy = |src: u32, payload: &Bytes| {
        let Ok(m) = FtmpMessage::decode_shared(payload) else {
            return false;
        };
        if src != 1 || m.msg_type() != FtmpMsgType::Regular || m.seq.0 % 3 != 0 {
            return false;
        }
        !m.retransmission || retransmitted.insert(m.seq.0)
    };
    let mut peak = 0;
    for step in 1..=200u64 {
        let now = SimTime(step * 5_000);
        for k in 0..4 {
            net.p(1)
                .multicast_request(now, conn_ab(), RequestNum(4 * step + k), Bytes::new())
                .unwrap();
        }
        net.flush_lossy(now, &mut lossy);
        for p in &mut net.procs {
            p.tick(now);
        }
        net.flush_lossy(now, &mut lossy);
        let attempts = net.p(2).groups[&gid].rmp.nack_attempts_of(ProcessorId(1));
        peak = peak.max(attempts);
    }
    let rx = net.p(2).groups[&gid].rmp.contiguous_of(ProcessorId(1));
    assert!(rx >= 780, "repair keeps up: contiguous {rx} of 800");
    assert!(
        peak <= 2,
        "backoff restarted by each answer: peak {peak} attempts"
    );
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

/// A member that leaves the view, voluntarily or by conviction, and rejoins
/// under the same id starts fresh in every layer. Right after P1 orders the
/// AddProcessor, before the joiner's first header reaches it, P1 holds:
/// - ROMP: the horizon at the Add's stamp, no held evidence, a zero ack;
/// - PGMP: silence counted from the Add, no arrivals, no ack progress and
///   no suspicion;
/// - RMP: a log that expects sequence number 1, and no retention (here
///   stability has reclaimed the old stream before the Add; that the view
///   change's reset drops what is left is not what this run checks).
///
/// In particular the fault detector may suspect the joiner only once its
/// new incarnation's ack has stood still for `ack_stall_timeout`. The old
/// incarnation's watermark — lagging, as it always is in a group that
/// heartbeats, and by the rejoin older than the timeout — would otherwise
/// have P1 suspect the joiner at the first sweep after the Add.
#[test]
fn a_rejoined_member_gets_a_fresh_ack_stall_clock() {
    for convict in [false, true] {
        rejoin_starts_fresh(convict);
    }
}

fn rejoin_starts_fresh(convict: bool) {
    type Keep<'a> = &'a dyn Fn(u32, u32, &Bytes) -> bool;
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(42);
    let stall = cfg.ack_stall_timeout;
    let mut net = MiniNet::new(3, cfg);
    net.bootstrap_group(gid, McastAddr(100));
    let p3 = ProcessorId(3);
    // One 1 ms step: P1 sends when `send`, everyone ticks, and the wire
    // carries what `keep(from, to, datagram)` lets through (loopback
    // always).
    let mut now = SimTime(0);
    let mut run = |net: &mut MiniNet, ms: u64, send: bool, keep: Keep| {
        for _ in 0..ms {
            now += SimDuration::from_millis(1);
            if send {
                let _ = net.p(1).multicast_request(
                    now,
                    conn_ab(),
                    RequestNum(now.as_micros()),
                    Bytes::from_static(b"req"),
                );
            }
            for p in &mut net.procs {
                p.tick(now);
            }
            loop {
                let mut packets = Vec::new();
                for (i, p) in net.procs.iter_mut().enumerate() {
                    for a in p.drain_actions() {
                        if let Action::Send { addr, payload } = a {
                            packets.push((i as u32 + 1, addr, payload));
                        }
                    }
                }
                if packets.is_empty() {
                    break;
                }
                for (src, addr, payload) in packets {
                    for (j, p) in net.procs.iter_mut().enumerate() {
                        let dst = j as u32 + 1;
                        if dst == src || keep(src, dst, &payload) {
                            p.handle_packet(now, &Packet::new(src, addr, payload.clone()));
                        }
                    }
                }
            }
        }
        now
    };
    let all = |_: u32, _: u32, _: &Bytes| true;
    // P1's data stops reaching P3, repairs included; P3 still hears the
    // heartbeats, keeps its own, and its ack stands still.
    let data_lost = |_: u32, to: u32, d: &Bytes| {
        to != 3
            || FtmpMessage::decode_shared(d).map_or(true, |m| m.msg_type() != FtmpMsgType::Regular)
    };
    // P1 has suspected P3, or already convicted it.
    let suspects_p3 = |net: &MiniNet| {
        let g = &net.procs[0].groups[&gid];
        g.pgmp.suspects().any(|q| q == p3) || !g.pgmp.membership.contains(&p3)
    };
    let p3_unheard = |from: u32, to: u32, _: &Bytes| from != 3 || to == 3;
    run(&mut net, 50, true, &all);
    if convict {
        // P3 falls silent to the others, who convict it; it still hears
        // them, learns of its exclusion and leaves.
        run(&mut net, 400, true, &p3_unheard);
    } else {
        // P3 stops hearing P2 for a while, so its ack falls behind; it
        // leaves while it lags.
        let at = run(&mut net, 60, true, &|from, to, _| !(from == 2 && to == 3));
        net.p(3).remove_processor(at, gid, p3);
        run(&mut net, 50, false, &all);
    }
    assert!(net.p(3).membership(gid).is_none(), "P3 left");
    assert_eq!(net.p(1).membership(gid).unwrap().len(), 2);
    // Away for longer than the stall timeout, then sponsored back in while
    // its packets do not reach P1 yet.
    let back = run(&mut net, stall.as_millis() + 100, false, &all);
    net.p(3).expect_join(gid, McastAddr(100));
    net.p(1).add_processor(back, gid, p3);
    let p3_unheard_by_p1 = |from: u32, to: u32, _: &Bytes| !(from == 3 && to == 1);
    let readded = (0..50).find_map(|_| {
        let t = run(&mut net, 1, false, &p3_unheard_by_p1);
        net.procs[0].groups[&gid]
            .pgmp
            .membership
            .contains(&p3)
            .then_some(t)
    });
    let readded = readded.expect("P1 re-added P3");
    let g = &net.procs[0].groups[&gid];
    let ord = g.romp.ordering();
    assert_eq!(
        ord.horizon_of(p3),
        Some(g.pgmp.membership_ts),
        "ROMP horizon"
    );
    assert_eq!(ord.held_of(p3), None, "ROMP held evidence");
    assert_eq!(ord.reported_ack_of(p3), Some(Timestamp::ZERO), "ROMP ack");
    let peer = &g.pgmp.peers[&p3];
    assert_eq!(peer.last_heard, readded, "PGMP last heard");
    assert_eq!(peer.arrivals, Interarrival::default(), "PGMP arrivals");
    assert!(peer.ack_progress.is_none(), "PGMP ack progress");
    assert!(peer.suspected.is_none(), "PGMP suspicion");
    assert_eq!(g.rmp.contiguous_of(p3), 0, "RMP window");
    assert_eq!(g.rmp.held_by(p3), 0, "RMP retention");
    for _ in 0..5 {
        let t = run(&mut net, 1, false, &p3_unheard_by_p1);
        assert!(!suspects_p3(&net), "P1 suspected the rejoined P3 at {t:?}");
    }
    let rejoined = run(&mut net, 20, false, &all);
    // The new incarnation stalls the same way.
    let mut first = None;
    for _ in 0..stall.as_millis() + 200 {
        let t = run(&mut net, 1, true, &data_lost);
        if first.is_none() && suspects_p3(&net) {
            first = Some(t);
        }
    }
    let first = first.expect("P1 suspects the stalled P3");
    assert!(
        first.saturating_since(rejoined) > stall,
        "P1 suspected P3 {:?} after the rejoin, inside the stall timeout",
        first.saturating_since(rejoined)
    );
}

/// A processor's own RetransmitRequest comes back to it like any multicast.
/// It asked because it lacked those messages, so it does not answer its own
/// request and has no any-holder coin to toss for it.
#[test]
fn an_own_retransmit_request_is_not_answered() {
    let (mut net, gid) = pair();
    let now = SimTime(1_000);
    for k in 0..20 {
        let giop = Bytes::from_static(b"req");
        let _ = net
            .p(1)
            .multicast_request(now, conn_ab(), RequestNum(k), giop);
    }
    net.flush(now);
    // By the time P2's request for P1's 1..=20 loops back, P2 holds them all.
    let request = FtmpMessage {
        retransmission: false,
        source: ProcessorId(2),
        group: gid,
        seq: SeqNum(0),
        ts: Timestamp(1),
        ack_ts: Timestamp(0),
        body: FtmpBody::RetransmitRequest {
            missing_from: ProcessorId(1),
            start_seq: 1,
            stop_seq: 20,
        },
    };
    let pkt = Packet::new(2, McastAddr(100), request.encode(ByteOrder::Big));
    let p2 = net.p(2);
    p2.handle_packet(now, &pkt);
    assert_eq!(p2.stats().retransmissions_sent, 0, "P2 answered itself");
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
    net.p(1).group_mut(gid).pgmp.gate = Some(Timestamp(1));
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

    /// `p`'s banked credit towards paid prompts in `gid`, and a setter.
    fn credit(net: &mut MiniNet, p: u32, gid: GroupId) -> u32 {
        net.p(p).groups[&gid].prompt_credit
    }
    fn set_credit(net: &mut MiniNet, p: u32, gid: GroupId, credit: u32) {
        net.p(p).group_mut(gid).prompt_credit = credit;
    }

    /// A Heartbeat datagram from `source` in `gid`, member or not, carrying
    /// nothing a receiver can act on (no sequence number, stamp 1).
    fn heartbeat_from(source: u32, gid: GroupId) -> Packet {
        let msg = FtmpMessage {
            retransmission: false,
            source: ProcessorId(source),
            group: gid,
            seq: SeqNum(0),
            ts: Timestamp(1),
            ack_ts: Timestamp(0),
            body: FtmpBody::Heartbeat,
        };
        Packet::new(source, McastAddr(100), msg.encode(ByteOrder::native()))
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
    fn a_blocker_inside_the_half_interval_prompts_iff_it_holds_a_token() {
        let (mut net, gid) = pair();
        let (pkt, _) = regular_from_p1(&mut net, SimTime(6_000), 1);
        net.p(2).handle_packet(SimTime(6_300), &pkt);
        assert_eq!(heartbeats(&drain(net.p(2)).0).len(), 1, "the free path");

        // 1 ms after its Heartbeat, past the floor: one credit short of a
        // token, P2 holds the Regular back …
        set_credit(&mut net, 2, gid, PROMPT_EARN - 2);
        net.p(1).clock.observe(Timestamp(1_000));
        let (pkt, regular_ts) = regular_from_p1(&mut net, SimTime(7_000), 2);
        net.p(2).handle_packet(SimTime(7_300), &pkt);
        let (sent, delivered) = drain(net.p(2));
        assert!(sent.is_empty() && !delivered, "no token: {sent:?}");
        assert_eq!(credit(&mut net, 2, gid), PROMPT_EARN - 1);
        // … and the next datagram, a duplicate, buys the token it spends.
        net.p(2).handle_packet(SimTime(7_400), &pkt);
        let (sent, delivered) = drain(net.p(2));
        let hb = heartbeats(&sent);
        assert_eq!((hb.len(), sent.len()), (1, 1), "{sent:?}");
        assert!(hb[0] > regular_ts && delivered);
        assert_eq!(net.p(2).stats().heartbeats_prompted, 2);
        assert_eq!(credit(&mut net, 2, gid), 0);

        // A full budget does not buy a prompt inside the floor; the timer
        // asks the same rule and pays once the floor has passed.
        set_credit(&mut net, 2, gid, PROMPT_CAP * PROMPT_EARN);
        net.p(1).clock.observe(Timestamp(2_000));
        let (pkt, _) = regular_from_p1(&mut net, SimTime(7_500), 3);
        net.p(2).handle_packet(SimTime(7_600), &pkt);
        assert!(drain(net.p(2)).0.is_empty(), "200 us after its last send");
        net.p(2).tick(SimTime(7_400) + PROMPT_FLOOR);
        assert!(drain(net.p(2)).0.is_empty(), "exactly the floor");
        net.p(2).tick(SimTime(7_401) + PROMPT_FLOOR);
        let (sent, delivered) = drain(net.p(2));
        assert_eq!(heartbeats(&sent).len(), 1, "{sent:?}");
        assert!(delivered);
        assert_eq!(credit(&mut net, 2, gid), (PROMPT_CAP - 1) * PROMPT_EARN);
        assert_eq!(net.p(2).stats().heartbeats_prompted, 3);
    }

    #[test]
    fn prompt_tokens_start_at_zero_accrue_per_datagram_and_stop_at_the_cap() {
        let gid = GroupId(1);
        let g2 = GroupId(2);
        let mut net = MiniNet::new(2, ProtocolConfig::with_seed(42));
        for g in [gid, g2] {
            net.p(2).create_group(
                SimTime(0),
                g,
                McastAddr(100),
                [ProcessorId(1), ProcessorId(2)],
            );
        }
        assert_eq!(credit(&mut net, 2, gid), 0);
        let hb = heartbeat_from(1, gid);
        for n in 1..=PROMPT_EARN {
            net.p(2).handle_packet(SimTime(1_000), &hb);
            assert_eq!(credit(&mut net, 2, gid), n);
        }
        assert_eq!(credit(&mut net, 2, gid) / PROMPT_EARN, 1, "one token");
        for _ in 0..10 * PROMPT_CAP * PROMPT_EARN {
            net.p(2).handle_packet(SimTime(1_000), &hb);
        }
        assert_eq!(credit(&mut net, 2, gid), PROMPT_CAP * PROMPT_EARN);
        assert_eq!(credit(&mut net, 2, g2), 0, "another group's datagrams");

        // A container earns once, for its first message's group, however
        // many messages and runs it holds.
        set_credit(&mut net, 2, gid, 0);
        let other = heartbeat_from(1, g2).payload;
        let container = wire::encode_packed(&[hb.payload.clone(), other, hb.payload.clone()], None);
        net.p(2)
            .handle_packet(SimTime(1_000), &Packet::new(1, McastAddr(100), container));
        assert_eq!((credit(&mut net, 2, gid), credit(&mut net, 2, g2)), (1, 0));
    }

    #[test]
    fn k_datagrams_buy_at_most_k_over_earn_plus_cap_early_prompts() {
        // P2 is kept blocking: every 600 us P1 (its clock pushed ahead)
        // multicasts a Regular stamped above P2's horizon. Between them P2
        // is flooded with datagrams that carry nothing — duplicates of that
        // Regular from a member and Heartbeats from a stranger, P9. Every
        // Heartbeat P2 sends less than half an interval after its previous
        // send is an early prompt, paid from the budget.
        const FLOOD: u32 = 64;
        let (mut net, gid) = pair();
        let half = ProtocolConfig::default().heartbeat_interval.as_micros() / 2;
        let stranger = heartbeat_from(9, gid);
        let (mut received, mut early, mut free) = (0u32, 0u32, 0u32);
        let mut t = 4_000;
        for n in 1..=200u64 {
            net.p(1).clock.observe(Timestamp(n * 1_000));
            let (regular, _) = regular_from_p1(&mut net, SimTime(t), n);
            for i in 0..=FLOOD {
                let at = SimTime(t + u64::from(i));
                let before = net.p(2).groups[&gid].last_sent;
                let pkt = if i % 2 == 0 { &regular } else { &stranger };
                net.p(2).handle_packet(at, pkt);
                net.p(2).tick(at);
                received += 1;
                for _ in heartbeats(&drain(net.p(2)).0) {
                    if at.saturating_since(before).as_micros() > half {
                        free += 1;
                    } else {
                        early += 1;
                    }
                }
            }
            t += 600;
        }
        assert!(
            early <= received / PROMPT_EARN + PROMPT_CAP,
            "{received} datagrams bought {early} early prompts"
        );
        assert!(early >= received / PROMPT_EARN - 1, "the budget is spent");
        assert_eq!(free, 0, "no silence reached the half interval");
        assert_eq!(
            net.p(2).stats().heartbeats_prompted,
            u64::from(early + free)
        );
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
        // With a full budget, a member that sent inside the floor is still
        // not prompted.
        set_credit(&mut net, 2, gid, PROMPT_CAP * PROMPT_EARN);
        net.p(2)
            .multicast_request(SimTime(23_000), conn_ab(), RequestNum(2), Bytes::new())
            .unwrap();
        drain(net.p(2));
        net.p(1).clock.observe(Timestamp(2_000));
        let (pkt, _) = regular_from_p1(&mut net, SimTime(23_400), 3);
        net.p(2).handle_packet(SimTime(23_400), &pkt);
        assert!(drain(net.p(2)).0.is_empty());
        assert_eq!(net.p(2).stats().heartbeats_prompted, 0);
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
        // proposal, which we withhold. A full budget buys nothing here.
        let gid = GroupId(1);
        let mut net = MiniNet::new(3, ProtocolConfig::with_seed(42));
        net.bootstrap_group(gid, McastAddr(100));
        net.p(2)
            .begin_or_extend_reconfig(SimTime(1_000), gid, [ProcessorId(3)].into());
        drain(net.p(2));
        set_credit(&mut net, 2, gid, PROMPT_CAP * PROMPT_EARN);
        assert!(net.p(2).groups[&gid].pgmp.reconfig.is_some());
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
        let g = net.p(2).group_mut(gid);
        assert!(matches!(g.pgmp.reconfig.take(), Some(Reconfig { .. })));
        net.p(2).tick(SimTime(8_001));
        assert_eq!(heartbeats(&drain(net.p(2)).0).len(), 1);

        // Tree mode: liveness travels as per-tick digests, never prompted.
        let cfg = ProtocolConfig::with_seed(42).overlay(OverlayPolicy::Tree { arity: 2 });
        let mut net = MiniNet::new(2, cfg);
        net.bootstrap_group(gid, McastAddr(100));
        set_credit(&mut net, 2, gid, PROMPT_CAP * PROMPT_EARN);
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
                "ftmp_stamps_dropped_implausible",
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
        inject_stamped(net, now, source, seq, (1, 0), body);
    }

    /// [`inject`] with the header's `(ts, ack_ts)` given.
    fn inject_stamped(
        net: &mut MiniNet,
        now: SimTime,
        source: u32,
        seq: u64,
        (ts, ack_ts): (u64, u64),
        body: FtmpBody,
    ) {
        let msg = FtmpMessage {
            retransmission: false,
            source: ProcessorId(source),
            group: GID,
            seq: SeqNum(seq),
            ts: Timestamp(ts),
            ack_ts: Timestamp(ack_ts),
            body,
        };
        let pkt = Packet::new(source, ADDR, msg.encode(ByteOrder::Big));
        for id in 1..=3 {
            net.p(id).handle_packet(now, &pkt);
        }
        net.flush(now);
    }

    /// `steps` ticks 5 ms apart of honest traffic: one multicast per member
    /// on every other tick up to the 16th, `hostile` run once at the 6th.
    /// Returns, for that tick and every one after it, its time and each
    /// member's `nacks_sent` once it ran.
    fn honest_run(
        net: &mut MiniNet,
        steps: u64,
        hostile: impl FnOnce(&mut MiniNet, SimTime),
    ) -> Vec<(SimTime, [u64; 3])> {
        let mut hostile = Some(hostile);
        let mut request = 0;
        let mut after = Vec::new();
        for step in 1..=steps {
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
            if step >= 6 {
                after.push((now, [1, 2, 3].map(|id| net.p(id).stats().nacks_sent)));
            }
        }
        for id in 1..=3 {
            let order = |id| -> Vec<(ProcessorId, SeqNum)> {
                let all = net.deliveries(id).iter();
                all.map(|d| (d.source, d.seq)).collect()
            };
            assert_eq!(order(id).len(), 24, "P{id} delivered everything");
            assert_eq!(order(id), order(1), "P{id} agrees with P1");
        }
        after
    }

    #[test]
    fn a_heartbeat_citing_an_absurd_sequence_number_costs_bounded_nacks() {
        // In a member's name (a corrupted or stale datagram) and in a
        // stranger's (a misconfigured group address).
        for (source, seq) in [(2, 1u64 << 60), (2, u64::MAX), (9, u64::MAX)] {
            let mut net = trio();
            let ticks = honest_run(&mut net, 20, |net, now| {
                inject(net, now, source, seq, FtmpBody::Heartbeat);
            })
            .len() as u64;
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

    /// A header stamped out of reach, in a member's name and in a
    /// stranger's. At the end of time: before admission dropped it,
    /// `Clock::observe` raised every receiver's clock to `u64::MAX` and its
    /// next send overflowed. Just under the 2^62 ceiling: admitted, it
    /// raised every clock so that every next stamp reached the ceiling and
    /// every peer dropped it — Heartbeats, Suspects and proposals included —
    /// leaving the group silent for good. Now every receiver drops both
    /// unobserved and counts them. One stamped `STAMP_REACH` ahead is
    /// admitted and the members' clocks rise past it. The honest run
    /// delivers all 24 messages in agreement in every case.
    #[test]
    fn a_header_stamped_out_of_reach_is_dropped_unobserved() {
        let end = u64::MAX;
        let under = STAMP_CEILING - 1;
        let cases = [
            ((end, end), 1),
            ((end, 0), 1),
            ((1, end), 1),
            ((under, under), 1),
            ((STAMP_REACH, STAMP_REACH), 0),
        ];
        for source in [2, 9] {
            for (stamps, dropped) in cases {
                let mut net = trio();
                honest_run(&mut net, 20, |net, now| {
                    inject_stamped(net, now, source, 0, stamps, FtmpBody::Heartbeat);
                });
                for id in 1..=3 {
                    let p = net.p(id);
                    let case = format!("P{id}, source {source}, stamps {stamps:?}");
                    assert_eq!(p.stats().stamps_dropped_implausible, dropped, "{case}");
                    if dropped == 0 {
                        assert!(p.clock.current() > Timestamp(stamps.0), "{case}");
                    }
                }
            }
        }
    }

    /// Hands `payload`, in P1's name, to P2 and P3 only.
    fn to_p2_and_p3(net: &mut MiniNet, now: SimTime, payload: Bytes) {
        for id in 2..=3 {
            net.p(id)
                .handle_packet(now, &Packet::new(1, ADDR, payload.clone()));
        }
        net.flush(now);
    }

    fn retained_bytes(net: &mut MiniNet, id: u32) -> usize {
        net.p(id).group_metrics(GID).unwrap().retention_bytes
    }

    /// The bytes after a header's declared size are no part of the message.
    /// Were they accepted, the whole buffer would be retained and counted,
    /// and every retransmission would resend it. The same message without
    /// them is the control: retained at its own size, then delivered.
    #[test]
    fn a_message_with_trailing_bytes_is_neither_retained_nor_delivered() {
        let mut net = trio();
        let exact = FtmpMessage {
            retransmission: false,
            source: ProcessorId(1),
            group: GID,
            seq: SeqNum(1),
            ts: Timestamp(1),
            ack_ts: Timestamp(0),
            body: FtmpBody::Regular {
                conn: conn_ab(),
                request_num: RequestNum(1),
                giop: Bytes::from_static(b"GIOP"),
            },
        }
        .encode(ByteOrder::Big);
        let mut junk = exact.to_vec();
        junk.extend_from_slice(&[0xA5; 4000]);
        to_p2_and_p3(&mut net, SimTime(1_000), Bytes::from(junk));
        for id in 2..=3 {
            assert_eq!(retained_bytes(&mut net, id), 0, "P{id}");
        }
        net.tick_all(SimTime(20_000));
        for id in 2..=3 {
            assert!(net.deliveries(id).is_empty(), "P{id}");
        }
        to_p2_and_p3(&mut net, SimTime(21_000), exact.clone());
        for id in 2..=3 {
            assert_eq!(retained_bytes(&mut net, id), exact.len(), "P{id}");
            assert_eq!(net.deliveries(id).len(), 1, "P{id} delivered the control");
        }
    }

    /// Admission reads the header alone. A container whose first message is
    /// stamped out of reach *and* carries a body that does not decode loses
    /// that message, unread, and its honest neighbour is delivered. Were
    /// the body read first, its error would reject the container whole.
    #[test]
    fn an_implausible_message_is_dropped_before_its_body_is_read() {
        let mut net = trio();
        let now = SimTime(1_000);
        net.p(2)
            .multicast_request(now, conn_ab(), RequestNum(1), Bytes::from_static(b"x"))
            .unwrap();
        let sent: Vec<Bytes> = net
            .p(2)
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1, "P2 sends only the Regular");
        // Stamped at the end of time, its GIOP length prefix wild.
        let mut corrupt = FtmpMessage {
            retransmission: false,
            source: ProcessorId(3),
            group: GID,
            seq: SeqNum(1),
            ts: Timestamp(u64::MAX),
            ack_ts: Timestamp(0),
            body: FtmpBody::Regular {
                conn: conn_ab(),
                request_num: RequestNum(1),
                giop: Bytes::from_static(b"GIOP"),
            },
        }
        .encode(ByteOrder::Big)
        .to_vec();
        let prefix = wire::FTMP_HEADER_LEN + 24;
        corrupt[prefix..prefix + 4].copy_from_slice(&[0xFF; 4]);
        let corrupt = Bytes::from(corrupt);
        assert!(FtmpHeader::decode(&corrupt).is_ok());
        assert!(FtmpMessage::decode_shared(&corrupt).is_err());
        let container = wire::encode_packed(&[corrupt, sent[0].clone()], None);
        for id in [1, 3] {
            net.p(id)
                .handle_packet(now, &Packet::new(2, ADDR, container.clone()));
        }
        net.flush(now);
        net.tick_all(SimTime(20_000));
        for id in 1..=3 {
            let p = net.p(id);
            assert_eq!(p.stats().retransmissions_sent, 0, "P{id}: nothing repaired");
            let delivered = net.deliveries(id);
            assert_eq!(delivered.len(), 1, "P{id} delivered the honest Regular");
            assert_eq!(delivered[0].source, ProcessorId(2));
        }
        for id in [1, 3] {
            let stats = net.p(id).stats();
            assert_eq!(stats.stamps_dropped_implausible, 1, "P{id}");
            assert_eq!(stats.packed_rejects, 0, "P{id}");
        }
    }

    /// The claim is still believed (ROADMAP item 1(b)), so the receivers
    /// keep asking for a second — but on `nack_retry_after`'s schedule: the
    /// retry doubles from `nack_retry` up to `fail_timeout`, then one round
    /// per `fail_timeout`, about twelve rounds where a fixed 8 ms retry
    /// sent a hundred.
    #[test]
    fn a_wild_headers_nack_storm_backs_off_to_one_round_per_fail_timeout() {
        let cfg = ProtocolConfig::with_seed(42);
        let tick = SimDuration::from_millis(5);
        for source in [2, 9] {
            let mut net = trio();
            let after = honest_run(&mut net, 6 + 200, |net, now| {
                inject(net, now, source, 1 << 60, FtmpBody::Heartbeat);
            });
            for id in (1..=3).filter(|&id| id != source) {
                // The honest run loses nothing: every request a receiver
                // sends is for the wild source. A round is one tick's worth.
                let mut rounds: Vec<(SimTime, u64)> = Vec::new();
                let mut before = 0;
                for &(at, nacks) in &after {
                    let sent = nacks[id as usize - 1];
                    if sent > before {
                        rounds.push((at, sent - before));
                    }
                    before = sent;
                }
                assert!(
                    (10..=14).contains(&rounds.len()),
                    "P{id}, source {source}: {} rounds in a second",
                    rounds.len()
                );
                assert!(rounds.iter().all(|&(_, n)| n <= MAX_NACK_RANGES as u64));
                for (k, pair) in rounds.windows(2).enumerate() {
                    let gap = pair[1].0.saturating_since(pair[0].0);
                    let due = adaptive::nack_retry_after(&cfg, &RttEstimator::default(), k as u32);
                    assert!(
                        due <= gap && gap < due + tick,
                        "P{id}, source {source}, retry {k}: {gap:?} after the last, due {due:?}"
                    );
                }
                let last = rounds[rounds.len() - 1]
                    .0
                    .saturating_since(rounds[rounds.len() - 2].0);
                assert_eq!(last, cfg.fail_timeout, "P{id}: one round per fail_timeout");
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
            honest_run(&mut net, 20, |net, now| {
                let body = FtmpBody::RetransmitRequest {
                    missing_from: ProcessorId(1),
                    start_seq,
                    stop_seq,
                };
                inject(net, now, 2, 0, body);
            });
            let answered = net.p(1).stats().retransmissions_sent;
            let span = MAX_NACK_SPAN;
            assert!(answered <= span, "{answered} answers to one request");
        }
    }
}

/// A member convicted with a gap open above its cut is asked for nothing
/// once the view that removes it installs, not even after it speaks again
/// (it may be alive on the far side of a partition): the survivors flushed
/// its stream to the cut and dropped what lay above, so no request for it
/// could be answered. Before, the gap stayed armed, or armed again at the
/// member's next header, and was asked for at every backoff, and
/// `nacks_pending` never cleared.
#[test]
fn a_convicted_member_with_a_gap_is_not_nacked_after_its_removal() {
    let gid = GroupId(1);
    let cfg = ProtocolConfig::with_seed(1).quorum(Quorum::Fixed(2));
    let fail_timeout = cfg.fail_timeout.as_micros();
    let mut net = MiniNet::new(2, cfg);
    // P3 is a member on paper only: it says one thing below, then nothing.
    let members = [ProcessorId(1), ProcessorId(2), ProcessorId(3)];
    for i in 1..=2u32 {
        net.p(i)
            .create_group(SimTime(0), gid, McastAddr(100), members);
        net.p(i).bind_connection(conn_ab(), gid);
    }
    net.flush(SimTime(0));
    // P3's Heartbeat claims seq 3, none of which arrives: a gap above
    // anything the survivors can flush to.
    let heartbeat = |seq| {
        let msg = FtmpMessage {
            retransmission: false,
            source: ProcessorId(3),
            group: gid,
            seq: SeqNum(seq),
            ts: Timestamp(5),
            ack_ts: Timestamp(0),
            body: FtmpBody::Heartbeat,
        };
        Packet::new(3, McastAddr(100), msg.encode(ByteOrder::Big))
    };
    let mut now = SimTime(1_000);
    for i in 1..=2 {
        net.p(i).handle_packet(now, &heartbeat(3));
    }
    net.flush(now);
    let removed = |net: &mut MiniNet| (1..=2).all(|i| net.p(i).membership(gid).unwrap().len() == 2);
    while !removed(&mut net) {
        now += SimDuration::from_millis(1);
        net.tick_all(now);
        assert!(now.as_micros() < 10 * fail_timeout, "P3 was never removed");
    }
    let installed = now;
    for i in 1..=2 {
        net.p(i).handle_packet(now, &heartbeat(6));
    }
    let mut asked = 0;
    while now.saturating_since(installed).as_micros() < 10 * fail_timeout {
        now += SimDuration::from_millis(1);
        for i in 1..=2 {
            net.p(i).tick(now);
        }
        net.flush_lossy(now, &mut |_, payload| {
            let request = FtmpMessage::decode_shared(payload).map(|m| m.body);
            if let Ok(FtmpBody::RetransmitRequest { missing_from, .. }) = request {
                asked += usize::from(missing_from == ProcessorId(3));
            }
            false
        });
    }
    assert_eq!(asked, 0, "RetransmitRequests for the removed P3");
    for i in 1..=2 {
        let g = &net.p(i).groups[&gid];
        assert!(!g.rmp.nacks_pending(), "P{i} still has a NACK pending");
    }
}
