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
use ftmp_core::{wire, ClockMode, Command, Inbox, ProtocolConfig, RequestNum};
use ftmp_net::{SimConfig, SimDuration};

use ftmp_check::{trace_hash, world_conn, Checker, FtmpWorld};

/// The hash `ftmp-core`'s golden test pins for this exact scenario with
/// observation recording off.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

/// The hash `ftmp-core` pins for its paced scenario (one sender among quiet
/// members) under the default configuration, horizon on demand included.
/// Re-pinned with it when every random draw became a keyed hash of what it decides (`ftmp_net::draw`).
const GOLDEN_PROMPTED: u64 = 0x39A7_D7A0_9214_81A9;

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
fn traced_run(cfg: ProtocolConfig) -> (FtmpWorld, Checker) {
    traced_run_of(cfg, Traffic::Burst)
}

fn traced_run_of(cfg: ProtocolConfig, traffic: Traffic) -> (FtmpWorld, Checker) {
    let mut w = FtmpWorld::new(3, SimConfig::with_seed(7), cfg, ClockMode::Lamport);
    let checker = w.attach_checker();
    w.net.enable_trace(1 << 16);
    let send = |w: &mut FtmpWorld, id: u32, nums: std::ops::Range<u64>| {
        w.net.with_node(id, |n, now, out| {
            for k in nums {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: world_conn(),
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
                send(&mut w, id, first..first + 3);
            }
            w.net.run_for(SimDuration::from_millis(100));
        }
        Traffic::Paced => {
            for k in 0..14u64 {
                send(&mut w, 1, k..k + 1);
                w.net.run_for(SimDuration::from_millis(7));
            }
        }
    }
    checker.finish(1..=3);
    (w, checker)
}

#[test]
fn observers_do_not_perturb_the_golden_trace() {
    let (w, checker) = traced_run(ProtocolConfig::with_seed(7).prompt_horizon(false));
    let trace = w.net.trace().expect("trace enabled");
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
    let (w, checker) = traced_run_of(ProtocolConfig::with_seed(7), Traffic::Paced);
    assert_eq!(
        trace_hash(w.net.trace().expect("trace enabled")),
        GOLDEN_PROMPTED,
        "attaching conformance observers changed the prompted wire trace"
    );
    checker.assert_clean("paced scenario, horizon on demand");
    // 14 requests × 3 observers.
    assert_eq!(checker.delivered(), 42);
}

#[test]
fn packed_containers_satisfy_the_same_oracles() {
    let (w, checker) = traced_run(ProtocolConfig::with_seed(7).packing(Packing::with(
        1400,
        PackPolicy::Deadline(SimDuration::from_micros(500)),
    )));
    let trace = w.net.trace().expect("trace enabled");
    assert!(
        trace.of_kind(wire::PACKED_MSG_TYPE).count() > 0,
        "packing produced no containers — the interplay is untested"
    );
    let s = w.net.stats();
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
