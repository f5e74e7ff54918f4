//! Protocol hot paths: the ROMP ordering queue, RMP's per-source logs
//! (receive window and retention) and the duplicate detector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftmp_core::rmp::{RmpLayer, RxOutcome};
use ftmp_core::romp::{Ordering, RompInput, RompLayer};
use ftmp_core::wire::FtmpBody;
use ftmp_core::{
    ConnectionId, FtmpMessage, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use ftmp_net::{SimDuration, SimTime};
use ftmp_orb::DuplicateDetector;
use std::hint::black_box;

fn msg(src: u32, seq: u64, ts: u64) -> FtmpMessage {
    FtmpMessage {
        retransmission: false,
        source: ProcessorId(src),
        group: GroupId(1),
        seq: SeqNum(seq),
        ts: Timestamp(ts),
        ack_ts: Timestamp(ts.saturating_sub(5)),
        body: FtmpBody::Heartbeat,
    }
}

fn bench_ordering_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("romp_ordering");
    for members in [4u32, 16, 64] {
        g.throughput(Throughput::Elements(256));
        g.bench_with_input(
            BenchmarkId::new("enqueue_deliver_256", members),
            &members,
            |b, &n| {
                let mut out = Vec::new();
                b.iter(|| {
                    let mut ord = Ordering::new((1..=n).map(ProcessorId), Timestamp(0));
                    let mut delivered = 0usize;
                    for k in 0..256u64 {
                        let src = (k % u64::from(n)) as u32 + 1;
                        let ts = k + 1;
                        ord.advance_horizon(ProcessorId(src), Timestamp(ts));
                        ord.enqueue(msg(src, k / u64::from(n) + 1, ts));
                        // Everyone else heartbeats to the same ts.
                        for p in 1..=n {
                            ord.advance_horizon(ProcessorId(p), Timestamp(ts));
                        }
                        ord.deliver_into(&mut out);
                        delivered += out.len();
                        out.clear();
                    }
                    black_box(delivered)
                })
            },
        );
    }
    // `sim-fanin-64`'s shape: five members take turns to send a burst of
    // 64 B Regular messages, and each member's horizon is the stamp of the
    // last message heard from it, so the four other members' bursts stand
    // queued behind the one that trails. A pass delivers after every
    // message.
    const SOURCES: u32 = 5;
    const BURST: u64 = 8;
    const ROUNDS: u64 = 32;
    let conn = ConnectionId::new(ObjectGroupId::new(1, 7), ObjectGroupId::new(1, 8));
    let giop = bytes::Bytes::from(vec![0u8; 64]);
    let mut ts = 0u64;
    let stream: Vec<FtmpMessage> = (0..ROUNDS * u64::from(SOURCES))
        .flat_map(|turn| {
            let src = (turn % u64::from(SOURCES)) as u32 + 1;
            let first = turn / u64::from(SOURCES) * BURST + 1;
            (first..first + BURST)
                .map(|seq| {
                    ts += 1;
                    FtmpMessage {
                        body: FtmpBody::Regular {
                            conn,
                            request_num: RequestNum(seq),
                            giop: giop.clone(),
                        },
                        ..msg(src, seq, ts)
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_with_input(
        BenchmarkId::new("backlog", SOURCES),
        &stream,
        |b, stream| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut ord = Ordering::new((1..=SOURCES).map(ProcessorId), Timestamp(0));
                let mut delivered = 0usize;
                for m in stream {
                    ord.advance_horizon(m.source, m.ts);
                    ord.enqueue(m.clone());
                    ord.deliver_into(&mut out);
                    delivered += out.len();
                    out.clear();
                }
                black_box(delivered)
            })
        },
    );
    // `sim-fanin-64`'s hold: four members send in turn while the fifth is
    // quiet, so the head waits on one member and a pass after a message
    // delivers nothing. Per message: the layer's `handle`, then one pass.
    let held: Vec<FtmpMessage> = stream
        .iter()
        .filter(|m| m.source != ProcessorId(SOURCES))
        .take(256)
        .cloned()
        .collect();
    g.throughput(Throughput::Elements(held.len() as u64));
    g.bench_with_input(BenchmarkId::new("held_head", SOURCES), &held, |b, held| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut romp = RompLayer::new((1..=SOURCES).map(ProcessorId), Timestamp(0));
            for m in held {
                black_box(romp.handle(RompInput::SourceOrdered(m.clone())));
                romp.deliver_into(&mut out);
            }
            black_box(out.len())
        })
    });
    g.finish();
}

/// `src`'s message `seq`, stamped `ts`, with its wire bytes.
fn frame(src: u32, seq: u64, ts: u64) -> (FtmpMessage, bytes::Bytes) {
    let m = msg(src, seq, ts);
    let w = m.encode(ftmp_cdr::ByteOrder::native());
    (m, w)
}

/// Offer a frame to `layer` as a peer's message.
fn receive(layer: &mut RmpLayer, (m, w): &(FtmpMessage, bytes::Bytes)) -> RxOutcome {
    layer.receive(m.clone(), w.clone(), false).0
}

fn bench_rmp_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("rmp_window");
    g.throughput(Throughput::Elements(1024));
    let frames: Vec<_> = (1..=1024u64).map(|seq| frame(1, seq, seq)).collect();
    g.bench_function("in_order_1024", |b| {
        b.iter(|| {
            let mut layer = RmpLayer::new(ProcessorId(9));
            for f in &frames {
                black_box(receive(&mut layer, f));
            }
        })
    });
    g.bench_function("reversed_1024", |b| {
        b.iter(|| {
            let mut layer = RmpLayer::new(ProcessorId(9));
            for f in frames.iter().rev() {
                black_box(receive(&mut layer, f));
            }
        })
    });
    // A NACK pass over one source's sparse stream: with no jitter and no
    // retry delay every pass asks for the missing ranges again.
    g.bench_function("missing_ranges_sparse", |b| {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for seq in (1..2048u64).step_by(3) {
            receive(&mut layer, &frame(1, seq, seq));
        }
        layer.note_header(ProcessorId(1), SeqNum(2048));
        let zero = || SimDuration::from_micros(0);
        let mut next = SimTime(u64::MAX);
        layer.nack_requests(SimTime(0), 64, zero, |_| zero(), &mut next);
        b.iter(|| black_box(layer.nack_requests(SimTime(0), 64, zero, |_| zero(), &mut next)))
    });
    g.finish();
}

fn bench_retention(c: &mut Criterion) {
    let mut g = c.benchmark_group("retention");
    g.bench_function("insert_reclaim_1024", |b| {
        // Eight sources in turn, each stream in order.
        let frames: Vec<_> = (0..1024u64)
            .map(|i| frame((i % 8) as u32 + 1, i / 8 + 1, i + 1))
            .collect();
        b.iter(|| {
            let mut layer = RmpLayer::new(ProcessorId(9));
            for f in &frames {
                receive(&mut layer, f);
            }
            black_box(layer.reclaim_stable(Timestamp(512)));
            black_box(layer.retained_len())
        })
    });
    // A reclaim at a stability point that has not moved since the last one,
    // over five sources of 2 000 retained messages: what every packet asked
    // for while a member's ack stands still.
    g.bench_function("reclaim_unmoved_5x2000", |b| {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for seq in 1..=2_000u64 {
            for src in 1..=5u32 {
                receive(&mut layer, &frame(src, seq, 100 + seq));
            }
        }
        layer.reclaim_stable(Timestamp(100));
        b.iter(|| black_box(layer.reclaim_stable(black_box(Timestamp(100)))))
    });
    g.bench_function("take_for_retransmit", |b| {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for seq in 1..=1024u64 {
            receive(&mut layer, &frame(1, seq, seq));
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 10_000;
            black_box(layer.answer_retransmit(
                ProcessorId(1),
                t % 1024 + 1,
                SimTime(t),
                SimDuration::from_millis(4),
            ))
        })
    });
    // What the receive path does per message with a backlog standing (a
    // lagging member pins retention): one arrival, one reclaim that
    // reclaims one, one `held_by`. Flat across depths; linear in the depth
    // when retention was one map swept by `retain`.
    for depth in [64u64, 1024, 16384] {
        g.bench_with_input(
            BenchmarkId::new("steady_state", depth),
            &depth,
            |b, &depth| {
                let wire = frame(1, 1, 1).1;
                let mut layer = RmpLayer::new(ProcessorId(9));
                let mut next = 0u64;
                let mut step = |layer: &mut RmpLayer| {
                    let source = (next % 5) as u32 + 1;
                    next += 1;
                    let m = msg(source, next.div_ceil(5), next);
                    layer.receive(m, wire.clone(), false);
                    let reclaimed = layer.reclaim_stable(Timestamp(next.saturating_sub(depth)));
                    (reclaimed, layer.held_by(ProcessorId(source)))
                };
                for _ in 0..depth {
                    step(&mut layer);
                }
                b.iter(|| black_box(step(&mut layer)))
            },
        );
    }
    g.finish();
}

fn bench_dup_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("dup_detector");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("first_sightings_1000", |b| {
        b.iter(|| {
            let mut d = DuplicateDetector::default();
            for n in 1..=1000u64 {
                black_box(d.first_sighting(ftmp_core::RequestNum(n)));
            }
        })
    });
    g.bench_function("duplicate_probes_1000", |b| {
        let mut d = DuplicateDetector::default();
        for n in 1..=1000u64 {
            d.first_sighting(ftmp_core::RequestNum(n));
        }
        b.iter(|| {
            for n in 1..=1000u64 {
                black_box(d.seen(ftmp_core::RequestNum(n)));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ordering_queue,
    bench_rmp_window,
    bench_retention,
    bench_dup_detector
);
criterion_main!(benches);
