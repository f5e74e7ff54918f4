//! Integration: the full §7.2 recovery story — a server replica crashes,
//! the survivors convict it and reconfigure, and the fault tolerance
//! infrastructure activates a replacement replica on a fresh processor from
//! a donor's snapshot plus log replay. The replacement then serves
//! identically to the survivors.

use ftmp::core::{ProcessorId, ProtocolConfig, ProtocolEvent};
use ftmp::harness::worlds::{OrbWorld, ORB_GROUP_ADDR};
use ftmp::net::SimConfig;
use ftmp::orb::servant::decode_i64_result;
use ftmp::orb::{OrbEndpoint, OrbNode, Transfer};

fn counter() -> Box<dyn ftmp::orb::Servant> {
    Box::new(ftmp::orb::Counter::default())
}

fn counter_value(w: &OrbWorld, id: u32) -> i64 {
    let snap = w
        .net
        .node(id)
        .unwrap()
        .orb()
        .servant(w.conn().server)
        .unwrap()
        .snapshot();
    decode_i64_result(&snap).unwrap()
}

#[test]
fn crashed_replica_replaced_via_snapshot_and_log_replay() {
    let mut w = OrbWorld::new(
        1,
        3,
        SimConfig::with_seed(71),
        ProtocolConfig::with_seed(71),
        counter,
    );
    let conn = w.conn();
    let og = conn.server;
    let group = w
        .net
        .node(1)
        .unwrap()
        .proc()
        .connection_group(conn)
        .expect("established");

    // Phase 1: 10 invocations, then capture a snapshot at the donor (P2,
    // the first server).
    for _ in 0..10 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    w.run_ms(100);
    let donor = w.servers[0];
    let donor_orb = w.net.node(donor).unwrap().orb();
    donor_orb.log.tip(conn).expect("log has entries");
    let snapshot = donor_orb.checkpoint(conn);

    // Phase 2: 10 more invocations (these will be replayed from the log),
    // then a server replica crashes and the survivors reconfigure.
    for _ in 0..10 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    w.run_ms(100);
    let victim = *w.servers.last().unwrap();
    w.net.crash(victim);
    w.run_ms(1_000);
    let events = w.net.node_mut(donor).unwrap().take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ProtocolEvent::FaultReport { processor, .. } if processor.0 == victim
        )),
        "fault reported"
    );

    // Phase 3: activate a replacement on fresh processor P9 — restore the
    // donor's snapshot, replay the donor's log after the snapshot point,
    // and join the processor group sponsored by the donor.
    let replay = w
        .net
        .node(donor)
        .unwrap()
        .orb()
        .log
        .transfer(conn, snapshot.ts);
    assert!(
        !replay.entries.is_empty(),
        "phase-2 traffic is in the donor's log"
    );

    let new_id = 9u32;
    let mut proc = ftmp::core::Processor::new(
        ProcessorId(new_id),
        ProtocolConfig::with_seed(71),
        ftmp::core::ClockMode::Lamport,
    );
    proc.expect_join(group, ORB_GROUP_ADDR);
    proc.bind_connection(conn, group);
    let mut orb = OrbEndpoint::new();
    orb.activate_replica(
        og,
        b"obj".to_vec(),
        counter(),
        conn,
        [Transfer::from(snapshot), replay],
    );
    w.net.add_node(new_id, OrbNode::new(proc, orb));
    w.net.with_node(new_id, |n, now, out| n.pump(now, out));
    // The replayed state already equals the donors'.
    let snap = w
        .net
        .node(new_id)
        .unwrap()
        .orb()
        .servant(og)
        .unwrap()
        .snapshot();
    assert_eq!(decode_i64_result(&snap), Some(20), "snapshot + replay = 20");

    // The donor sponsors the join.
    w.net.with_node(donor, move |n, now, out| {
        n.proc_mut().add_processor(now, group, ProcessorId(new_id));
        n.pump(now, out);
    });
    w.run_ms(500);
    let members = w.net.node(donor).unwrap().proc().membership(group).unwrap();
    assert!(
        members.contains(&ProcessorId(new_id)),
        "replacement joined: {members:?}"
    );

    // Phase 4: more invocations; the replacement applies them like everyone.
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(40);
    }
    w.run_ms(500);
    for &id in &[w.servers[0], w.servers[1]] {
        assert_eq!(counter_value(&w, id), 25, "survivor P{id}");
    }
    let snap = w
        .net
        .node(new_id)
        .unwrap()
        .orb()
        .servant(og)
        .unwrap()
        .snapshot();
    assert_eq!(
        decode_i64_result(&snap),
        Some(25),
        "the replacement replica tracks the group"
    );
    // And the client saw every invocation complete exactly once.
    let (done, _) = w.drain_completions();
    assert_eq!(done.len(), 25);
}
