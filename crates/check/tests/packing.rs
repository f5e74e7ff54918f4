//! Oracle × packing interplay, pinned alongside the golden trace-hash test:
//!
//! 1. Attaching the conformance checker must not perturb the wire — the
//!    timer-only-heartbeat run still produces the exact golden FNV trace
//!    hash recorded from the pre-packing protocol, and the default's
//!    prompted heartbeats (DESIGN.md §4) the second hash pinned beside it.
//! 2. Packed containers (type 0x50) with piggybacked ack vectors must
//!    satisfy the same oracles as the default one-message-per-datagram
//!    path, delivering the identical message count.

use bytes::Bytes;
use ftmp_core::config::{PackPolicy, Packing};
use ftmp_core::{
    wire, ClockMode, Command, ConnectionId, GroupId, Inbox, Node, ObjectGroupId, Processor,
    ProcessorId, ProtocolConfig, RequestNum,
};
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet, SimTime};

use ftmp_check::{trace_hash, Checker};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

/// The hash `ftmp-core`'s golden test pins for this exact scenario with
/// observation recording off.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

/// The hash `ftmp-core` pins for its paced scenario (one sender among quiet
/// members) under the default configuration, horizon on demand included.
const GOLDEN_PROMPTED: u64 = 0xB486_CABB_BC5F_89A5;

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// Which of `ftmp-core`'s two pinned scenarios to drive.
#[derive(Clone, Copy)]
enum Traffic {
    /// Every member bursts three multicasts at once, then 100 ms.
    Burst,
    /// Only member 1 multicasts, once every 7 ms for 98 ms.
    Paced,
}

/// The golden scenario from `ftmp-core`'s trace-hash test — three members,
/// each bursting three multicasts, 100 ms — byte-for-byte, with the
/// conformance checker attached to every node.
fn traced_run(cfg: ProtocolConfig) -> (SimNet<Node>, Checker) {
    traced_run_of(cfg, Traffic::Burst)
}

fn traced_run_of(cfg: ProtocolConfig, traffic: Traffic) -> (SimNet<Node>, Checker) {
    let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
    let mut net = SimNet::new(SimConfig::with_seed(7));
    net.set_classifier(wire::classify);
    net.set_message_counter(wire::message_count);
    for id in 1..=3u32 {
        let mut engine = Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport);
        engine.create_group(SimTime::ZERO, GROUP, ADDR, members.clone());
        net.add_node(id, Node::sim(engine, GROUP));
        net.with_node(id, |n, now, out| n.pump(now, out));
    }
    for id in 1..=3u32 {
        net.with_node(id, |n, _, _| {
            n.engine_mut().bind_connection(conn(), GROUP);
        });
    }
    let checker = Checker::new(GROUP, &members);
    checker.attach_all(&mut net, 1..=3);
    net.enable_trace(1 << 16);
    let send = |net: &mut SimNet<Node>, id: u32, nums: std::ops::Range<u64>| {
        net.with_node(id, |n, now, out| {
            for k in nums {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: conn(),
                    request: RequestNum(k),
                    giop: Bytes::from(vec![id as u8; 32]),
                }));
            }
            n.pump(now, out);
            assert!(matches!(n.host.published, Some(Ok(_))));
        });
    };
    match traffic {
        Traffic::Burst => {
            for id in 1u32..=3 {
                let first = u64::from(id) * 10;
                send(&mut net, id, first..first + 3);
            }
            net.run_for(SimDuration::from_millis(100));
        }
        Traffic::Paced => {
            for k in 0..14u64 {
                send(&mut net, 1, k..k + 1);
                net.run_for(SimDuration::from_millis(7));
            }
        }
    }
    checker.finish(1..=3);
    (net, checker)
}

#[test]
fn observers_do_not_perturb_the_golden_trace() {
    let (net, checker) = traced_run(ProtocolConfig::with_seed(7).prompt_horizon(false));
    let trace = net.trace().expect("trace enabled");
    assert_eq!(
        trace.of_kind(wire::PACKED_MSG_TYPE).count(),
        0,
        "no containers under the default config"
    );
    assert_eq!(
        trace_hash(trace),
        GOLDEN,
        "attaching conformance observers changed the wire trace"
    );
    checker.assert_clean("golden scenario, packing off");
    // 3 sources × 3 requests × 3 observers.
    assert_eq!(checker.delivered(), 27);
}

#[test]
fn observers_do_not_perturb_the_prompted_trace() {
    let (net, checker) = traced_run_of(ProtocolConfig::with_seed(7), Traffic::Paced);
    assert_eq!(
        trace_hash(net.trace().expect("trace enabled")),
        GOLDEN_PROMPTED,
        "attaching conformance observers changed the prompted wire trace"
    );
    checker.assert_clean("paced scenario, horizon on demand");
    // 14 requests × 3 observers.
    assert_eq!(checker.delivered(), 42);
}

#[test]
fn packed_containers_satisfy_the_same_oracles() {
    let (net, checker) = traced_run(ProtocolConfig::with_seed(7).packing(Packing::with(
        1400,
        PackPolicy::Deadline(SimDuration::from_micros(500)),
    )));
    let trace = net.trace().expect("trace enabled");
    assert!(
        trace.of_kind(wire::PACKED_MSG_TYPE).count() > 0,
        "packing produced no containers — the interplay is untested"
    );
    let s = net.stats();
    assert!(
        s.sent_packets < s.sent_messages,
        "some datagrams carried more than one message (packets {}, messages {})",
        s.sent_packets,
        s.sent_messages
    );
    checker.assert_clean("golden scenario, packing on");
    assert_eq!(
        checker.delivered(),
        27,
        "packing changed what was delivered"
    );
}
