//! The disk edge in three micro-rows (DESIGN.md §12): the frame checksum,
//! the buffered append at three flush cadences, and the recovery scan —
//! beside the benchmark ledger's `store.*` rows, which time the same three
//! pieces inside a whole run.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use ftmp_store::record::{crc32, encode_frame};
use ftmp_store::{scan, scratch_dir, DeliveredRecord, DurableLog, LogConfig, LogRecord};
use std::hint::black_box;

fn delivered(n: u64, body: &Bytes) -> LogRecord {
    LogRecord::Delivered(DeliveredRecord {
        group: GroupId(1),
        conn: ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2)),
        request_num: RequestNum(n),
        source: ProcessorId((n % 3) as u32 + 1),
        seq: SeqNum(n),
        ts: Timestamp(n),
        giop: body.clone(),
    })
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/crc32");
    for len in [64usize, 1 << 10, 8 << 10] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, data| {
            b.iter(|| crc32(black_box(data)))
        });
    }
    g.finish();
}

/// One 1 KiB append per iteration, the buffer written out every `every`
/// records: 1 is the old one-`write`-per-record writer, 16 about one engine
/// turn of the socket runtime, `u64::MAX` the byte threshold alone.
fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/append_1k");
    let body = Bytes::from(vec![0xAB; 1 << 10]);
    for (cadence, every) in [
        ("flush_every_1", 1),
        ("flush_every_16", 16),
        ("threshold", u64::MAX),
    ] {
        let dir = scratch_dir("bench-append");
        let mut log = DurableLog::open(&dir, LogConfig::default()).expect("open log");
        let mut n = 0u64;
        g.bench_function(cadence, |b| {
            b.iter(|| {
                n += 1;
                log.append(&delivered(n, &body)).expect("append");
                if n.is_multiple_of(every) {
                    log.flush().expect("flush");
                }
            })
        });
        drop(log);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let dir = scratch_dir("bench-scan");
    let mut log = DurableLog::open(&dir, LogConfig::default()).expect("open log");
    let body = Bytes::from(vec![0xCD; 1 << 10]);
    let mut frame = Vec::new();
    encode_frame(&delivered(0, &body), &mut frame);
    let frame = frame.len() as u64;
    let records = (16u64 << 20) / frame;
    for n in 0..records {
        log.append(&delivered(n, &body)).expect("append");
    }
    log.sync().expect("sync");
    drop(log);

    let mut g = c.benchmark_group("store/scan");
    g.throughput(Throughput::Bytes(records * frame));
    g.bench_function("16MiB_of_1k_records", |b| {
        b.iter(|| {
            let mut seen = 0u64;
            scan(&dir, |r| {
                black_box(&r);
                seen += 1;
            })
            .expect("scan");
            assert_eq!(seen, records);
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(benches, bench_crc32, bench_append, bench_scan);
criterion_main!(benches);
