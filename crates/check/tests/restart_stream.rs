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
use ftmp_check::Checker;
use ftmp_core::config::ProtocolConfig;
use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_core::{ClockMode, Command, Node, Processor};
use ftmp_net::SimTime;
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(0x4654_4D50);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

/// `id` multicasts `giop` on the test connection; the engine must take it.
fn publish(net: &mut SimNet<Node>, id: u32, request: u64, giop: Vec<u8>) {
    net.with_node(id, |n, now, out| {
        let publish = Command::Publish {
            conn: conn(),
            request: RequestNum(request),
            giop: Bytes::from(giop),
        };
        n.command(now, publish, out);
        assert!(matches!(n.host.published, Some(Ok(_))));
    });
}

#[test]
fn survivors_deliver_the_rejoined_members_fresh_stream() {
    let founders: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
    let proto = ProtocolConfig::with_seed(7);
    let mut net = SimNet::new(SimConfig::with_seed(7));
    let checker = Checker::new(GROUP, &founders);
    for id in 1u32..=3 {
        let mut e = Processor::new(ProcessorId(id), proto.clone(), ClockMode::Lamport);
        e.create_group(SimTime::ZERO, GROUP, ADDR, founders.clone());
        e.bind_connection(conn(), GROUP);
        net.add_node(id, Node::sim(e, GROUP));
        checker.attach(&mut net, id);
        net.with_node(id, |n, now, out| n.pump(now, out));
    }

    // Pre-crash traffic so P3's old stream has a real sequence history.
    for k in 0..20u64 {
        let id = 1 + (k % 3) as u32;
        publish(&mut net, id, 1 + k, vec![7u8; 32]);
        net.run_for(SimDuration::from_millis(5));
    }

    // Crash P3; survivors convict it and install the two-member view.
    net.crash(3);
    checker.retire(3);
    net.run_for(SimDuration::from_millis(800));
    net.with_node(1, |n, _, _| {
        assert_eq!(
            n.engine().membership(GROUP),
            Some(vec![ProcessorId(1), ProcessorId(2)]),
            "survivors must convict the crashed member"
        );
    });

    // Restart P3 under the same id: fresh engine, fresh sequence stream.
    let mut e = Processor::new(ProcessorId(3), proto.clone(), ClockMode::Lamport);
    e.expect_join(GROUP, ADDR);
    e.bind_connection(conn(), GROUP);
    net.revive(3, Node::sim(e, GROUP));
    checker.attach(&mut net, 3);
    checker.rejoin(3);
    net.with_node(3, |n, now, out| n.pump(now, out));
    let add = Command::AddMember(ProcessorId(3));
    net.with_node(1, |n, now, out| n.command(now, add, out));
    net.run_for(SimDuration::from_millis(500));
    net.with_node(1, |n, _, _| {
        assert_eq!(
            n.engine().membership(GROUP),
            Some(vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)]),
            "rejoin must complete"
        );
    });

    // The restarted member publishes on its fresh stream (fresh request
    // numbers — an FT-CORBA retry-id epoch — so ORB dedupe is not in play).
    for k in 0..5u64 {
        publish(&mut net, 3, 1_000 + k, vec![9u8; 32]);
        net.run_for(SimDuration::from_millis(10));
    }
    net.run_for(SimDuration::from_secs(2));

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
        net.with_node(id, |n, _, _| {
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
