//! Replay measurements: the datagrams tapped off the wire during the traced
//! window, fed through one layer's public functions at a time, standalone.
//! Each figure is the median of [`REPS`] passes over the same corpus.

use crate::measure::median;
use crate::Outcome;
use bytes::Bytes;
use ftmp_cdr::{ByteOrder, CdrWriter};
use ftmp_core::rmp::{RmpInput, RmpLayer, RmpOutput};
use ftmp_core::romp::{RompInput, RompLayer};
use ftmp_core::wire::{self, FtmpMessage, FtmpMsgType};
use ftmp_core::{PackPolicy, Packer, ProcessorId, RequestNum, Timestamp};
use ftmp_net::{McastAddr, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over [`REPS`] of `pass()`'s nanoseconds per `per` items.
fn ns_per(per: usize, mut pass: impl FnMut() -> std::time::Duration) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| pass().as_nanos() as f64 / per.max(1) as f64)
        .collect();
    median(&mut samples)
}

/// What ROMP is fed, in wire order: RMP's released messages interleaved
/// with the horizon evidence of the heartbeats between them.
enum RompFeed {
    Msg(FtmpMessage),
    Evidence(FtmpMessage),
}

/// `wire.*_ns_per_msg`, `pack.push_flush_ns_per_msg`, `rmp.handle_ns_per_msg`
/// and `romp.handle_ns_per_msg` over `corpus`.
pub fn wire_and_layers(out: &mut Outcome, corpus: &[Bytes], members: u32) {
    // wire: container split + decode, as `Processor::handle_packet` does it.
    let mut decoded: Vec<(FtmpMessage, Bytes)> = Vec::new();
    for datagram in corpus {
        if wire::is_packed(datagram) {
            if let Ok((slices, _)) = wire::unpack(datagram) {
                for s in slices {
                    if let Ok(m) = FtmpMessage::decode_shared(&s) {
                        decoded.push((m, s));
                    }
                }
            }
        } else if let Ok(m) = FtmpMessage::decode_shared(datagram) {
            decoded.push((m, datagram.clone()));
        }
    }
    let msgs = decoded.len();
    out.note("replay.corpus_datagrams", corpus.len() as f64, "count");
    out.note("replay.corpus_msgs", msgs as f64, "count");
    if msgs == 0 {
        return;
    }
    let decode = ns_per(msgs, || {
        let t = Instant::now();
        for datagram in corpus {
            if wire::is_packed(datagram) {
                if let Ok((slices, vector)) = wire::unpack(black_box(datagram)) {
                    for s in &slices {
                        black_box(FtmpMessage::decode_shared(s).ok());
                    }
                    black_box(vector);
                }
            } else {
                black_box(FtmpMessage::decode_shared(black_box(datagram)).ok());
            }
        }
        t.elapsed()
    });
    out.set("wire.decode_ns_per_msg", decode);

    let mut scratch = CdrWriter::new(ByteOrder::native());
    let encode = ns_per(msgs, || {
        let t = Instant::now();
        for (m, _) in &decoded {
            black_box(black_box(m).encode_with_scratch(ByteOrder::native(), &mut scratch));
        }
        t.elapsed()
    });
    out.set("wire.encode_ns_per_msg", encode);

    // pack: stage every message for one destination; containers leave as
    // the MTU fills, the rest at the final flush.
    let addr = McastAddr(100);
    let pack = ns_per(msgs, || {
        let mut packer = Packer::new(1400, PackPolicy::Deadline(SimDuration::from_micros(500)));
        let mut emit = |_: McastAddr, datagram: Bytes| {
            black_box(datagram);
        };
        let staged: Vec<Bytes> = decoded.iter().map(|(_, w)| w.clone()).collect();
        let t = Instant::now();
        for w in staged {
            packer.push(SimTime::ZERO, addr, w, &mut emit);
        }
        packer.flush_addr(addr, None, &mut emit);
        t.elapsed()
    });
    out.set("pack.push_flush_ns_per_msg", pack);

    // rmp: a bystander's layer receiving every reliable message off the wire,
    // its windows seeded where the corpus picks each source's stream up.
    let bystander = ProcessorId(members + 1);
    let mut first_seq: BTreeMap<ProcessorId, u64> = BTreeMap::new();
    for (m, _) in decoded
        .iter()
        .filter(|(m, _)| m.msg_type().is_reliable() && !m.retransmission)
    {
        first_seq.entry(m.source).or_insert(m.seq.0);
    }
    let fresh_rmp = || {
        let mut layer = RmpLayer::new(bystander);
        for (&source, &seq) in &first_seq {
            layer.seed_window(source, seq);
        }
        layer
    };
    let reliable = || {
        decoded
            .iter()
            .filter(|(m, _)| m.msg_type().is_reliable())
            .map(|(m, w)| RmpInput::Reliable {
                msg: m.clone(),
                wire: w.clone(),
                own: false,
            })
            .collect::<Vec<_>>()
    };
    let n_reliable = reliable().len();
    let rmp = ns_per(n_reliable, || {
        let mut layer = fresh_rmp();
        let inputs = reliable();
        let t = Instant::now();
        for input in inputs {
            black_box(layer.handle(input));
        }
        t.elapsed()
    });
    out.set("rmp.handle_ns_per_msg", rmp);

    // romp: what that layer released, with the heartbeats' evidence between.
    let mut feed = Vec::new();
    let mut layer = fresh_rmp();
    for (m, w) in &decoded {
        if m.msg_type().is_reliable() {
            let input = RmpInput::Reliable {
                msg: m.clone(),
                wire: w.clone(),
                own: false,
            };
            if let RmpOutput::Released(run) = layer.handle(input) {
                feed.extend(run.into_iter().map(RompFeed::Msg));
            }
        } else if m.msg_type() == FtmpMsgType::Heartbeat {
            feed.push(RompFeed::Evidence(m.clone()));
        }
    }
    let ordered = feed
        .iter()
        .filter(|f| matches!(f, RompFeed::Msg(_)))
        .count();
    let romp = ns_per(ordered, || {
        let mut layer = RompLayer::new((1..=members).map(ProcessorId), Timestamp(0));
        let inputs: Vec<RompInput> = feed
            .iter()
            .map(|f| match f {
                RompFeed::Msg(m) => RompInput::SourceOrdered(m.clone()),
                RompFeed::Evidence(m) => RompInput::Evidence {
                    source: m.source,
                    ts: m.ts,
                    ack_ts: m.ack_ts,
                    advance: true,
                },
            })
            .collect();
        let t = Instant::now();
        for input in inputs {
            black_box(layer.handle(input));
            black_box(layer.deliverable());
        }
        t.elapsed()
    });
    out.set("romp.handle_ns_per_msg", romp);
}

/// `giop.make_request_ns` and `giop.parse_ns` on the workload's request
/// shape (`add(1)` on `object_key`); covers `cdr`.
pub fn giop(out: &mut Outcome, object_key: &[u8]) {
    const N: usize = 20_000;
    let args = ftmp_orb::servant::encode_i64_arg(1);
    let make = ns_per(N, || {
        let t = Instant::now();
        for i in 0..N {
            black_box(ftmp_orb::giop_map::make_request(
                RequestNum(i as u64),
                black_box(object_key),
                "add",
                &args,
                true,
            ));
        }
        t.elapsed()
    });
    out.set("giop.make_request_ns", make);
    let request = ftmp_orb::giop_map::make_request(RequestNum(1), object_key, "add", &args, true);
    let parse = ns_per(N, || {
        let t = Instant::now();
        for _ in 0..N {
            black_box(ftmp_orb::giop_map::parse(black_box(&request)).ok());
        }
        t.elapsed()
    });
    out.set("giop.parse_ns", parse);
}
