//! End-to-end benches: a complete replicated CORBA invocation (connection
//! already established) through ORB → FTMP → simulator and back, and the
//! ORB-layer CPU cost in isolation: a server serving a request and
//! suppressing its duplicate, a client consuming a reply and suppressing
//! its duplicate, and a client logging a request it does not execute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftmp_check::{orb_conn, OrbWorld};
use ftmp_core::ProtocolConfig;
use ftmp_net::{SimConfig, SimDuration};
use ftmp_orb::servant::encode_i64_arg;
use ftmp_orb::{giop_map, OrbEndpoint};
use std::hint::black_box;

fn bench_invocation_rtt(c: &mut Criterion) {
    let mut g = c.benchmark_group("orb_invocation");
    g.sample_size(15);
    for (k, m) in [(1u32, 3u32), (3, 3)] {
        g.bench_with_input(
            BenchmarkId::new("rtt", format!("{k}x{m}")),
            &(k, m),
            |b, &(k, m)| {
                // Build once; each iteration performs one full invocation in
                // simulated time (the CPU cost is the protocol machinery).
                let mut w = OrbWorld::new(
                    k,
                    m,
                    SimConfig::with_seed(9),
                    ProtocolConfig::with_seed(9).heartbeat(SimDuration::from_millis(2)),
                    || Box::new(ftmp_orb::Counter::default()),
                );
                b.iter(|| {
                    w.invoke_all("add", 1);
                    loop {
                        w.net.run_for(SimDuration::from_micros(500));
                        let (done, _) = w.drain_completions();
                        if !done.is_empty() {
                            break black_box(done.len());
                        }
                    }
                })
            },
        );
    }
    g.finish();
}

fn bench_orb_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("orb_layer");
    let conn = orb_conn();
    let og = conn.server;
    g.bench_function("serve_request", |b| {
        let mut server = OrbEndpoint::new();
        server.host_replica(og, b"obj".to_vec(), Box::new(ftmp_orb::Counter::default()));
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let giop = giop_map::make_request(
                ftmp_core::RequestNum(n),
                b"obj",
                "add",
                &encode_i64_arg(1),
                true,
            );
            server.on_delivery(&ftmp_core::Delivery {
                group: ftmp_core::GroupId(1),
                conn,
                request_num: ftmp_core::RequestNum(n),
                source: ftmp_core::ProcessorId(1),
                seq: ftmp_core::SeqNum(n),
                ts: ftmp_core::Timestamp(n),
                giop: bytes::Bytes::from(giop),
            });
            black_box(server.drain_outbound().len())
        })
    });
    g.bench_function("suppress_duplicate", |b| {
        let mut server = OrbEndpoint::new();
        server.host_replica(og, b"obj".to_vec(), Box::new(ftmp_orb::Counter::default()));
        let giop = giop_map::make_request(
            ftmp_core::RequestNum(1),
            b"obj",
            "add",
            &encode_i64_arg(1),
            true,
        );
        let d = ftmp_core::Delivery {
            group: ftmp_core::GroupId(1),
            conn,
            request_num: ftmp_core::RequestNum(1),
            source: ftmp_core::ProcessorId(1),
            seq: ftmp_core::SeqNum(1),
            ts: ftmp_core::Timestamp(1),
            giop: bytes::Bytes::from(giop),
        };
        server.on_delivery(&d);
        server.drain_outbound();
        b.iter(|| {
            server.on_delivery(black_box(&d));
        })
    });
    let reply = bytes::Bytes::from(giop_map::make_reply(
        ftmp_core::RequestNum(1),
        &encode_i64_arg(1),
    ));
    let from_server = |n: u64, giop: &bytes::Bytes| ftmp_core::Delivery {
        group: ftmp_core::GroupId(1),
        conn,
        request_num: ftmp_core::RequestNum(n),
        source: ftmp_core::ProcessorId(10),
        seq: ftmp_core::SeqNum(n),
        ts: ftmp_core::Timestamp(n),
        giop: giop.clone(),
    };
    // One invocation, then the first copy of its reply: the copy that
    // completes it.
    g.bench_function("consume_reply", |b| {
        let mut client = OrbEndpoint::new();
        client.register_client(conn);
        let mut out = Vec::new();
        b.iter(|| {
            let n = client.invoke(conn, b"obj", "add", &encode_i64_arg(1));
            client.drain_outbound_into(&mut out);
            out.clear();
            client.on_delivery(&from_server(n.0, &reply));
            black_box(client.drain_completions().len())
        })
    });
    // A second server replica's copy of a reply already consumed.
    g.bench_function("suppress_duplicate_reply", |b| {
        let mut client = OrbEndpoint::new();
        client.register_client(conn);
        client.invoke(conn, b"obj", "add", &encode_i64_arg(1));
        client.drain_outbound();
        let d = from_server(1, &reply);
        client.on_delivery(&d);
        client.drain_completions();
        b.iter(|| {
            client.on_delivery(black_box(&d));
        })
    });
    // A client replica's delivery of a request: logged, not executed.
    g.bench_function("log_foreign_request", |b| {
        let mut client = OrbEndpoint::new();
        client.register_client(conn);
        let request = bytes::Bytes::from(giop_map::make_request(
            ftmp_core::RequestNum(1),
            b"obj",
            "add",
            &encode_i64_arg(1),
            true,
        ));
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let mut d = from_server(n, &request);
            d.source = ftmp_core::ProcessorId(1);
            client.on_delivery(black_box(&d));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_invocation_rtt, bench_orb_layer);
criterion_main!(benches);
