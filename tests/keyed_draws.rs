//! Integration: every random decision is a pure function of what it
//! decides (DESIGN.md §2 and §4, "Keyed draws"). Perturb one member of a
//! lossy run and compare with the run left alone, link by link and copy by
//! copy (the n-th copy offered to a link in one run against the n-th in
//! the other):
//!
//! - one extra datagram on link A → B, B a member: every later datagram on
//!   A → B meets the fate of the copy before it, so B and then everyone
//!   else act differently, yet under i.i.d. loss every link's n-th copy
//!   keeps its fate;
//! - under burst loss the Gilbert–Elliott state is per receiver, so with B
//!   a silent joiner the links into B move and no other link does;
//! - one extra engine decision at A that sends nothing (an any-holder coin
//!   for a message A does not hold) moves nothing at all: no member's
//!   jitter or coin, no datagram on the wire.
//!
//! With one random stream per network and per processor, each of these
//! perturbations reshuffles every later draw of the run.

use ftmp::cdr::ByteOrder;
use ftmp::check::{trace_hash, FtmpWorld};
use ftmp::core::{
    ClockMode, FtmpBody, FtmpMessage, GroupId, ProcessorId, ProtocolConfig, SeqNum, Timestamp,
};
use ftmp::net::{LossModel, McastAddr, NodeId, Packet, SimConfig, TraceEvent};
use std::collections::BTreeMap;

const A: NodeId = 1;
/// An address only the receiver subscribes to: a datagram A sends there
/// crosses the one link A → receiver.
const RECEIVER_ONLY: McastAddr = McastAddr(999);

#[derive(Clone, Copy)]
enum Perturb {
    None,
    /// One garbage datagram on A → receiver, which its decoder drops.
    Datagram,
    /// A RetransmitRequest handed to A alone, for a message it never held.
    Coin,
}

/// Per directed link, the fate of every copy offered to it, in order: true
/// when it arrived.
type Fates = BTreeMap<(NodeId, NodeId), Vec<bool>>;

/// Four members trading messages over `loss` for 300 ms; the perturbation
/// lands 40 ms in, on the link from A to `receiver` (member 2, or joiner 5,
/// which waits to be added and sends nothing). The per-link fates and the
/// whole wire trace's hash.
fn run(loss: LossModel, receiver: NodeId, perturb: Perturb) -> (Fates, u64) {
    let proto = ProtocolConfig::with_seed(0x18C);
    let sim = SimConfig::with_seed(0x18C).loss(loss);
    let mut w = FtmpWorld::new(4, sim, proto.clone(), ClockMode::Lamport);
    if receiver > 4 {
        w.joiner(receiver, proto);
    }
    w.net.enable_trace(1 << 20);
    w.net.subscribe(receiver, RECEIVER_ONLY);
    for step in 0..200u64 {
        if step == 40 {
            match perturb {
                Perturb::None => {}
                Perturb::Datagram => w.net.inject(Packet::new(A, RECEIVER_ONLY, vec![0xFF; 8])),
                Perturb::Coin => {
                    let request = FtmpMessage {
                        retransmission: false,
                        source: ProcessorId(3),
                        group: GroupId(1),
                        seq: SeqNum(0),
                        ts: Timestamp(1),
                        ack_ts: Timestamp(0),
                        body: FtmpBody::RetransmitRequest {
                            missing_from: ProcessorId(4),
                            start_seq: 1 << 40,
                            stop_seq: 1 << 40,
                        },
                    };
                    let pkt = Packet::new(3, McastAddr(100), request.encode(ByteOrder::Big));
                    w.net.with_node(A, |node, now, out| {
                        node.take_datagram(&pkt);
                        node.pump(now, out);
                    });
                }
            }
        }
        w.send((step % 4) as u32 + 1, 200);
        w.run_ms(1);
    }
    w.run_ms(100);
    let trace = w.net.trace().expect("trace enabled");
    assert_eq!(
        trace.total_captured(),
        trace.len() as u64,
        "the trace kept every record"
    );
    let mut fates = Fates::new();
    for r in trace.records() {
        let (to, arrived) = match r.event {
            TraceEvent::Deliver(to) => (to, true),
            TraceEvent::Lose(to) => (to, false),
            _ => continue,
        };
        if to != r.src {
            fates.entry((r.src, to)).or_default().push(arrived);
        }
    }
    (fates, trace_hash(trace))
}

/// The links whose copies, as far as both runs offered them, met different
/// fates.
fn moved(a: &Fates, b: &Fates) -> Vec<(NodeId, NodeId)> {
    a.iter()
        .filter(|(link, fa)| {
            let fb = &b[link];
            let n = fa.len().min(fb.len());
            fa[..n] != fb[..n]
        })
        .map(|(&link, _)| link)
        .collect()
}

/// The links whose fates the extra datagram on A → `receiver` moved, and
/// whether the run itself changed.
fn datagram_moves(loss: LossModel, receiver: NodeId) -> (Vec<(NodeId, NodeId)>, bool) {
    let (base, base_hash) = run(loss.clone(), receiver, Perturb::None);
    let (perturbed, perturbed_hash) = run(loss, receiver, Perturb::Datagram);
    (moved(&base, &perturbed), base_hash != perturbed_hash)
}

#[test]
fn an_extra_datagram_on_one_link_moves_no_links_draws() {
    let (moved, diverged) = datagram_moves(LossModel::Iid { p: 0.1 }, 2);
    assert!(diverged, "the extra datagram changed the run");
    assert_eq!(moved, [], "every link's n-th copy keeps its fate");
}

#[test]
fn under_burst_loss_only_links_into_the_receiver_move() {
    let burst = LossModel::Burst {
        p_good: 0.02,
        p_bad: 0.5,
        p_enter_bad: 0.05,
        p_exit_bad: 0.3,
    };
    let (moved, _) = datagram_moves(burst, 5);
    assert!(moved.contains(&(A, 5)), "{moved:?}");
    assert!(
        moved.iter().all(|&(_, to)| to == 5),
        "the Gilbert–Elliott state is the receiver's alone: {moved:?}"
    );
}

#[test]
fn an_extra_engine_decision_moves_nothing_else() {
    let loss = LossModel::Iid { p: 0.1 };
    let (base, base_hash) = run(loss.clone(), 2, Perturb::None);
    let (perturbed, perturbed_hash) = run(loss, 2, Perturb::Coin);
    assert_eq!(moved(&base, &perturbed), [], "no link's fates move");
    assert_eq!(
        base, perturbed,
        "every link offered the same copies, same fates"
    );
    assert_eq!(base_hash, perturbed_hash, "the wire trace is the same");
}
