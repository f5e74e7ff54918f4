//! The channel under the socket runtime's inbox, deliveries and events
//! (DESIGN.md §14), per item handed over: a send and a `try_recv` on one
//! thread, where no receiver is ever parked, and bursts from a producer to
//! a consumer thread that drains them and parks whenever it catches up —
//! a stream reader and the engine thread.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use crossbeam::channel::unbounded;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Items a producer sends before it waits for the consumer to take them.
const BURST: u64 = 64;

fn bench_inbox_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime/inbox_channel");
    let (tx, rx) = unbounded::<u64>();
    g.bench_function("send_try_recv", |b| {
        b.iter(|| {
            tx.send(black_box(1)).expect("receiver alive");
            rx.try_recv().expect("just sent")
        })
    });
    g.throughput(Throughput::Elements(BURST));
    g.bench_function("cross_thread_burst_64", |b| {
        let (tx, rx) = unbounded::<u64>();
        let taken = Arc::new(AtomicU64::new(0));
        let consumer = {
            let taken = Arc::clone(&taken);
            thread::spawn(move || {
                for item in rx.iter() {
                    black_box(item);
                    taken.fetch_add(1, Ordering::Release);
                }
            })
        };
        let mut sent = 0;
        b.iter(|| {
            for _ in 0..BURST {
                tx.send(black_box(1)).expect("consumer alive");
            }
            sent += BURST;
            while taken.load(Ordering::Acquire) < sent {
                thread::yield_now();
            }
        });
        drop(tx);
        consumer.join().expect("consumer");
    });
    g.finish();
}

criterion_group!(benches, bench_inbox_channel);
criterion_main!(benches);
