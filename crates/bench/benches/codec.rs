//! Marshalling microbenches: CDR, GIOP, FTMP wire codecs (the per-message
//! CPU cost of the Fig. 2 encapsulation).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftmp_cdr::{ByteOrder, CdrReader, CdrWriter};
use ftmp_check::FtmpWorld;
use ftmp_core::wire::{self, classify, AckVector, FtmpBody, FtmpMessage};
use ftmp_core::{
    ClockMode, ConnectionId, GroupId, ObjectGroupId, PackPolicy, Packing, ProcessorId,
    ProtocolConfig, RequestNum, SeqNum, Timestamp,
};
use ftmp_giop::{GiopMessage, RequestHeader};
use ftmp_net::{SimConfig, SimDuration};
use std::hint::black_box;

fn giop_request(payload: usize) -> Vec<u8> {
    GiopMessage::Request {
        header: RequestHeader {
            service_context: vec![],
            request_id: 7,
            response_expected: true,
            object_key: b"bank/account/1".to_vec(),
            operation: "deposit".into(),
            requesting_principal: vec![],
        },
        body: vec![0xAB; payload],
    }
    .encode(ByteOrder::native())
}

fn ftmp_regular(payload: usize) -> FtmpMessage {
    FtmpMessage {
        retransmission: false,
        source: ProcessorId(3),
        group: GroupId(1),
        seq: SeqNum(99),
        ts: Timestamp(12_345),
        ack_ts: Timestamp(12_000),
        body: FtmpBody::Regular {
            conn: ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2)),
            request_num: RequestNum(41),
            giop: Bytes::from(giop_request(payload)),
        },
    }
}

fn bench_cdr(c: &mut Criterion) {
    let mut g = c.benchmark_group("cdr");
    g.bench_function("write_mixed_stream", |b| {
        b.iter(|| {
            let mut w = CdrWriter::new(ByteOrder::native());
            for i in 0..32u32 {
                w.write_u8(i as u8);
                w.write_u32(i);
                w.write_u64(u64::from(i) << 32);
                w.write_string("operation_name");
            }
            black_box(w.into_bytes())
        })
    });
    let bytes = {
        let mut w = CdrWriter::new(ByteOrder::native());
        for i in 0..32u32 {
            w.write_u8(i as u8);
            w.write_u32(i);
            w.write_u64(u64::from(i) << 32);
            w.write_string("operation_name");
        }
        w.into_bytes()
    };
    g.bench_function("read_mixed_stream", |b| {
        b.iter(|| {
            let mut r = CdrReader::new(&bytes, ByteOrder::native());
            for _ in 0..32 {
                black_box(r.read_u8().unwrap());
                black_box(r.read_u32().unwrap());
                black_box(r.read_u64().unwrap());
                black_box(r.read_string().unwrap());
            }
        })
    });
    g.finish();
}

fn bench_giop(c: &mut Criterion) {
    let mut g = c.benchmark_group("giop");
    for payload in [0usize, 256, 4096] {
        g.throughput(Throughput::Bytes(payload as u64));
        g.bench_with_input(
            BenchmarkId::new("encode_request", payload),
            &payload,
            |b, &p| b.iter(|| black_box(giop_request(p))),
        );
        let encoded = giop_request(payload);
        g.bench_with_input(
            BenchmarkId::new("decode_request", payload),
            &encoded,
            |b, e| b.iter(|| black_box(GiopMessage::decode(e).unwrap())),
        );
    }
    g.finish();
}

fn bench_ftmp_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftmp_wire");
    for payload in [0usize, 256, 4096] {
        let msg = ftmp_regular(payload);
        g.throughput(Throughput::Bytes(payload as u64));
        g.bench_with_input(BenchmarkId::new("encode_regular", payload), &msg, |b, m| {
            b.iter(|| black_box(m.encode(ByteOrder::native())))
        });
        let bytes = msg.encode(ByteOrder::native());
        g.bench_with_input(
            BenchmarkId::new("decode_regular", payload),
            &bytes,
            |b, e| b.iter(|| black_box(FtmpMessage::decode_shared(e).unwrap())),
        );
    }
    let hb = FtmpMessage {
        body: FtmpBody::Heartbeat,
        ..ftmp_regular(0)
    };
    g.bench_function("encode_heartbeat", |b| {
        b.iter(|| black_box(hb.encode(ByteOrder::native())))
    });
    let bytes = ftmp_regular(256).encode(ByteOrder::native());
    g.bench_function("classify", |b| b.iter(|| black_box(classify(&bytes))));
    g.finish();
}

fn bench_packed_container(c: &mut Criterion) {
    let mut g = c.benchmark_group("packed_container");
    let trailer = wire::encode_ack_vector(&AckVector {
        group: GroupId(1),
        entries: (1..=5)
            .map(|i| (ProcessorId(i), Timestamp(1_000)))
            .collect(),
    });
    for count in [2usize, 8, 24] {
        let msgs: Vec<Bytes> = (0..count)
            .map(|i| {
                FtmpMessage {
                    seq: SeqNum(i as u64),
                    ..ftmp_regular(32)
                }
                .encode(ByteOrder::native())
            })
            .collect();
        let total: u64 = msgs.iter().map(|m| m.len() as u64).sum();
        g.throughput(Throughput::Bytes(total));
        g.bench_with_input(BenchmarkId::new("encode", count), &msgs, |b, m| {
            b.iter(|| black_box(wire::encode_packed(m, Some(&trailer))))
        });
        let container = wire::encode_packed(&msgs, Some(&trailer));
        g.bench_with_input(BenchmarkId::new("unpack", count), &container, |b, d| {
            b.iter(|| black_box(wire::unpack(d).unwrap()))
        });
        // Unpack + zero-copy decode of every inner message: the complete
        // receive-side codec cost of a packed datagram.
        g.bench_with_input(
            BenchmarkId::new("unpack_decode_all", count),
            &container,
            |b, d| {
                b.iter(|| {
                    let (slices, v) = wire::unpack(d).unwrap();
                    for s in &slices {
                        black_box(FtmpMessage::decode_shared(s).unwrap());
                    }
                    black_box(v)
                })
            },
        );
    }
    // Buffer-reusing encode vs the allocating one.
    let msg = ftmp_regular(256);
    g.bench_function("encode_reused_scratch", |b| {
        let mut scratch = CdrWriter::new(ByteOrder::native());
        b.iter(|| black_box(msg.encode_with_scratch(ByteOrder::native(), &mut scratch)))
    });
    g.finish();
}

/// End-to-end: a three-member group pushing bursty traffic through the
/// simulator, packing off vs on (Deadline 500 µs). Criterion measures the
/// wall-clock CPU cost of the same delivered workload; the datagram
/// reduction itself is reported by experiment E12.
fn bench_packed_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("packed_end_to_end");
    g.sample_size(12);
    let run = |packing: Option<Packing>| -> usize {
        let mut proto = ProtocolConfig::with_seed(21);
        if let Some(p) = packing {
            proto = proto.packing(p);
        }
        let mut w = FtmpWorld::new(3, SimConfig::with_seed(21), proto, ClockMode::Lamport);
        for round in 0..20 {
            let from = round % 3 + 1;
            for _ in 0..4 {
                w.send(from, 64);
            }
            w.run_us(2_000);
        }
        w.run_ms(50);
        let res = w.collect();
        assert!(res.all_agree());
        res.delivered()
    };
    g.bench_function("unpacked", |b| b.iter(|| black_box(run(None))));
    g.bench_function("packed_deadline_500us", |b| {
        b.iter(|| {
            black_box(run(Some(Packing::with(
                1400,
                PackPolicy::Deadline(SimDuration::from_micros(500)),
            ))))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cdr,
    bench_giop,
    bench_ftmp_wire,
    bench_packed_container,
    bench_packed_end_to_end
);
criterion_main!(benches);
