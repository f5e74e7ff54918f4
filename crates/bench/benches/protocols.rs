//! Whole-protocol simulation benches: wall-clock CPU cost of pushing one
//! round of totally-ordered traffic through each protocol on the
//! deterministic simulator (FTMP vs the §8 baselines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftmp_baselines::sequencer::{SequencerConfig, SequencerNode};
use ftmp_baselines::token_ring::{RingConfig, TokenRingNode};
use ftmp_check::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_harness::worlds::BaselineWorld;
use ftmp_net::{McastAddr, SimConfig};
use std::hint::black_box;

const MSGS: u64 = 60;

fn ftmp_round(n: u32) -> usize {
    let mut w = FtmpWorld::new(
        n,
        SimConfig::with_seed(1),
        ProtocolConfig::with_seed(1),
        ClockMode::Lamport,
    );
    for k in 0..MSGS {
        w.send((k % u64::from(n)) as u32 + 1, 128);
        w.run_ms(1);
    }
    w.run_ms(100);
    w.collect().delivered()
}

fn sequencer_round(n: u32) -> usize {
    let addr = McastAddr(1);
    let mut w = BaselineWorld::new_with(n, SimConfig::with_seed(1), addr, |id, members| {
        SequencerNode::new(id, SequencerConfig::new(addr, members))
    });
    for k in 0..MSGS {
        w.submit((k % u64::from(n)) as u32 + 1, 128);
    }
    let res = w.run_collect(200, 5);
    res.sequences[0].len()
}

fn ring_round(n: u32) -> usize {
    let addr = McastAddr(2);
    let mut w = BaselineWorld::new_with(n, SimConfig::with_seed(1), addr, |id, members| {
        TokenRingNode::new(id, RingConfig::new(addr, members))
    });
    for k in 0..MSGS {
        w.submit((k % u64::from(n)) as u32 + 1, 128);
    }
    let res = w.run_collect(400, 5);
    res.sequences[0].len()
}

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_sim_round");
    g.sample_size(20);
    for n in [3u32, 8] {
        g.throughput(Throughput::Elements(MSGS));
        g.bench_with_input(BenchmarkId::new("ftmp", n), &n, |b, &n| {
            b.iter(|| black_box(ftmp_round(n)))
        });
        g.bench_with_input(BenchmarkId::new("sequencer", n), &n, |b, &n| {
            b.iter(|| black_box(sequencer_round(n)))
        });
        g.bench_with_input(BenchmarkId::new("token_ring", n), &n, |b, &n| {
            b.iter(|| black_box(ring_round(n)))
        });
    }
    g.finish();
}

fn bench_loss_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftmp_loss_recovery");
    g.sample_size(15);
    for loss_pct in [0u32, 10] {
        g.bench_with_input(BenchmarkId::new("60_msgs", loss_pct), &loss_pct, |b, &p| {
            b.iter(|| {
                let sim = SimConfig::with_seed(2).loss(ftmp_net::LossModel::Iid {
                    p: f64::from(p) / 100.0,
                });
                let mut w =
                    FtmpWorld::new(4, sim, ProtocolConfig::with_seed(2), ClockMode::Lamport);
                for k in 0..MSGS {
                    w.send((k % 4) as u32 + 1, 128);
                    w.run_ms(1);
                }
                w.run_ms(500);
                black_box(w.collect().delivered())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_protocols, bench_loss_recovery);
criterion_main!(benches);
