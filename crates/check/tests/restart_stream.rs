//! A member that crashes, is convicted, and rejoins under the same id
//! starts a fresh sequence stream. The survivors must deliver that new
//! stream — their receive window for the id must reset at the rejoin,
//! or every post-rejoin message from the restarted member is dropped as
//! a stale duplicate of its previous incarnation.
//!
//! Found by the real-socket cluster harness (E18): the simulator's
//! crash-restart sweep kept its workload light enough after the rejoin
//! that the gap was never observed there.

use bytes::Bytes;
use ftmp_check::{world_conn, FtmpWorld};
use ftmp_core::config::ProtocolConfig;
use ftmp_core::ids::{ProcessorId, RequestNum};
use ftmp_core::{ClockMode, Command};
use ftmp_net::{SimConfig, SimDuration};

/// `id` multicasts `giop` on the world's connection; the engine must take
/// it.
fn publish(w: &mut FtmpWorld, id: u32, request: u64, giop: Vec<u8>) {
    w.net.with_node(id, |n, now, out| {
        let publish = Command::Publish {
            conn: world_conn(),
            request: RequestNum(request),
            giop: Bytes::from(giop),
        };
        n.command(now, publish, out);
        assert!(matches!(n.host.published, Some(Ok(_))));
    });
}

#[test]
fn survivors_deliver_the_rejoined_members_fresh_stream() {
    let proto = ProtocolConfig::with_seed(7);
    let mut w = FtmpWorld::new(
        3,
        SimConfig::with_seed(7),
        proto.clone(),
        ClockMode::Lamport,
    );
    w.attach_checker();
    let group = w.group();

    // Pre-crash traffic so P3's old stream has a real sequence history.
    for k in 0..20u64 {
        let id = 1 + (k % 3) as u32;
        publish(&mut w, id, 1 + k, vec![7u8; 32]);
        w.net.run_for(SimDuration::from_millis(5));
    }

    // Crash P3; survivors convict it and install the two-member view.
    w.crash(3);
    w.net.run_for(SimDuration::from_millis(800));
    w.net.with_node(1, |n, _, _| {
        assert_eq!(
            n.engine().membership(group),
            Some(vec![ProcessorId(1), ProcessorId(2)]),
            "survivors must convict the crashed member"
        );
    });

    // Restart P3 under the same id: fresh engine, fresh sequence stream.
    w.joiner(3, proto);
    w.sponsor(1, 3);
    w.net.run_for(SimDuration::from_millis(500));
    w.net.with_node(1, |n, _, _| {
        assert_eq!(
            n.engine().membership(group),
            Some(vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)]),
            "rejoin must complete"
        );
    });

    // The restarted member publishes on its fresh stream (fresh request
    // numbers — an FT-CORBA retry-id epoch — so ORB dedupe is not in play).
    for k in 0..5u64 {
        publish(&mut w, 3, 1_000 + k, vec![9u8; 32]);
        w.net.run_for(SimDuration::from_millis(10));
    }
    w.net.run_for(SimDuration::from_secs(2));

    let checker = w.checker();
    checker.finish([1u32, 2, 3]);
    assert_eq!(
        checker.violation_count(),
        0,
        "{}",
        checker
            .with_suite(|s| s.first_counterexample())
            .unwrap_or_default()
    );
    // The property the cluster harness tripped over: the survivors must
    // actually deliver the new incarnation's requests.
    for id in [1u32, 2] {
        let mut fresh = 0usize;
        w.net.with_node(id, |n, _, _| {
            fresh = n
                .host
                .deliveries
                .iter()
                .filter(|(_, d)| (1_000..1_005).contains(&d.request_num.0))
                .count();
        });
        assert_eq!(
            fresh, 5,
            "survivor P{id} must deliver all 5 post-rejoin requests from P3"
        );
    }
}
