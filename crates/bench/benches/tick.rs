//! `Processor::tick` on a quiet five-member group: an idle tick, and a
//! swept tick behind one packet (DESIGN.md §4, "Adaptive timers").
//!
//! The group is warmed up with one message from every member, fanned out
//! to everyone until quiescent, so every member holds a receive window for
//! every other. Time then stands still inside the heartbeat interval: no
//! timer is due, so `idle` is the tick with nothing to do, and `swept`
//! pays one received Heartbeat before each tick, which makes that tick
//! sweep every duty.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use ftmp_cdr::ByteOrder;
use ftmp_core::{
    Action, ClockMode, ConnectionId, FtmpBody, FtmpMessage, GroupId, ObjectGroupId, Processor,
    ProcessorId, ProtocolConfig, RequestNum, SeqNum, Timestamp,
};
use ftmp_net::{McastAddr, Packet, SimTime};
use std::hint::black_box;

const MEMBERS: u32 = 5;
const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

/// Deliver every Send to every member, loopback included, until quiet.
fn settle(procs: &mut [Processor], now: SimTime) {
    loop {
        let mut sent = Vec::new();
        for (i, p) in procs.iter_mut().enumerate() {
            for a in p.drain_actions() {
                if let Action::Send { addr, payload } = a {
                    sent.push(Packet::new(i as u32 + 1, addr, payload));
                }
            }
        }
        if sent.is_empty() {
            return;
        }
        for pkt in &sent {
            for p in procs.iter_mut() {
                p.handle_packet(now, pkt);
            }
        }
    }
}

/// A quiet group after one message from every member, and the time at
/// which it stands still: 2 ms after the last traffic, inside every timer.
fn quiet_group() -> (Vec<Processor>, SimTime) {
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
    let members: Vec<ProcessorId> = (1..=MEMBERS).map(ProcessorId).collect();
    let mut procs: Vec<Processor> = members
        .iter()
        .map(|&id| Processor::new(id, ProtocolConfig::with_seed(7), ClockMode::Lamport))
        .collect();
    for p in &mut procs {
        p.create_group(SimTime::ZERO, GROUP, ADDR, members.clone());
        p.bind_connection(conn, GROUP);
    }
    settle(&mut procs, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    for (k, i) in (0..procs.len()).enumerate() {
        now = SimTime(1_000 * (k as u64 + 1));
        let body = Bytes::from_static(&[0xAB; 64]);
        procs[i]
            .multicast_request(now, conn, RequestNum(k as u64 + 1), body)
            .expect("connected");
        settle(&mut procs, now);
        for p in &mut procs {
            p.tick(now);
        }
        settle(&mut procs, now);
    }
    (procs, SimTime(now.0 + 2_000))
}

fn bench_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("tick");

    let (mut procs, now) = quiet_group();
    let p = &mut procs[0];
    p.tick(now);
    g.bench_function("idle_5_members", |b| {
        b.iter(|| {
            p.tick(now);
            black_box(p.drain_actions().len())
        })
    });

    let (mut procs, now) = quiet_group();
    // A Heartbeat from member 2 carrying nothing new: the receiver only
    // notes that it heard from it, so every iteration repeats one state.
    let heartbeat = FtmpMessage {
        retransmission: false,
        source: ProcessorId(2),
        group: GROUP,
        seq: SeqNum(1),
        ts: Timestamp(1),
        ack_ts: Timestamp(1),
        body: FtmpBody::Heartbeat,
    };
    let pkt = Packet::new(2, ADDR, heartbeat.encode(ByteOrder::native()));
    let p = &mut procs[0];
    g.bench_function("swept_after_one_packet_5_members", |b| {
        b.iter(|| {
            p.handle_packet(now, &pkt);
            p.tick(now);
            black_box(p.drain_actions().len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tick);
criterion_main!(benches);
