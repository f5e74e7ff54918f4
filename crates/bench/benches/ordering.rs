//! Protocol hot paths: the ROMP ordering queue, RMP receive window,
//! retention store and duplicate detector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftmp_core::rmp::{RetentionStore, SourceRx};
use ftmp_core::romp::Ordering;
use ftmp_core::wire::FtmpBody;
use ftmp_core::{FtmpMessage, GroupId, ProcessorId, SeqNum, Timestamp};
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
                        delivered += ord.deliverable().len();
                    }
                    black_box(delivered)
                })
            },
        );
    }
    g.finish();
}

fn bench_rmp_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("rmp_window");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("in_order_1024", |b| {
        b.iter(|| {
            let mut rx = SourceRx::starting_at(1);
            for seq in 1..=1024u64 {
                black_box(rx.on_reliable(msg(1, seq, seq)));
            }
        })
    });
    g.bench_function("reversed_1024", |b| {
        b.iter(|| {
            let mut rx = SourceRx::starting_at(1);
            for seq in (1..=1024u64).rev() {
                black_box(rx.on_reliable(msg(1, seq, seq)));
            }
        })
    });
    g.bench_function("missing_ranges_sparse", |b| {
        let mut rx = SourceRx::starting_at(1);
        for seq in (1..2048u64).step_by(3) {
            rx.on_reliable(msg(1, seq, seq));
        }
        rx.note_header_seq(SeqNum(2048));
        b.iter(|| black_box(rx.missing_ranges(64)))
    });
    g.finish();
}

fn bench_retention(c: &mut Criterion) {
    let mut g = c.benchmark_group("retention");
    let wire = |m: &FtmpMessage| m.encode(ftmp_cdr::ByteOrder::native());
    let retain = |store: &mut RetentionStore, m: &FtmpMessage, w: &bytes::Bytes| {
        store.insert(m.source, m.seq.0, m.ts, w.clone())
    };
    g.bench_function("insert_reclaim_1024", |b| {
        let frames: Vec<_> = (1..=1024u64)
            .map(|seq| {
                let m = msg((seq % 8) as u32 + 1, seq, seq);
                let w = wire(&m);
                (m, w)
            })
            .collect();
        b.iter(|| {
            let mut store = RetentionStore::default();
            for (m, w) in &frames {
                retain(&mut store, m, w);
            }
            black_box(store.reclaim_stable(Timestamp(512)));
            black_box(store.len())
        })
    });
    g.bench_function("take_for_retransmit", |b| {
        let mut store = RetentionStore::default();
        for seq in 1..=1024u64 {
            let m = msg(1, seq, seq);
            retain(&mut store, &m, &wire(&m));
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 10_000;
            black_box(store.take_for_retransmit(
                ProcessorId(1),
                t % 1024 + 1,
                SimTime(t),
                SimDuration::from_millis(4),
            ))
        })
    });
    // What the receive path does per message with a backlog standing (a
    // lagging member pins retention): one insert, one reclaim that reclaims
    // one, one `held_by`. Flat across depths; linear in the depth when the
    // store was one map swept by `retain`.
    for depth in [64u64, 1024, 16384] {
        g.bench_with_input(
            BenchmarkId::new("steady_state", depth),
            &depth,
            |b, &depth| {
                let frame = wire(&msg(1, 1, 1));
                let mut store = RetentionStore::default();
                let mut next = 0u64;
                let mut step = |store: &mut RetentionStore| {
                    next += 1;
                    let source = ProcessorId((next % 5) as u32 + 1);
                    store.insert(source, next, Timestamp(next), frame.clone());
                    let reclaimed = store.reclaim_stable(Timestamp(next.saturating_sub(depth)));
                    (reclaimed, store.held_by(source))
                };
                for _ in 0..depth {
                    step(&mut store);
                }
                b.iter(|| black_box(step(&mut store)))
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
