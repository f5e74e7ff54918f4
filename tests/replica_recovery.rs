//! Integration: the full §7.2 recovery story — a server replica crashes,
//! the survivors convict it and reconfigure, and the fault tolerance
//! infrastructure activates a replacement replica on a fresh processor from
//! a donor's snapshot plus log replay. The replacement then serves
//! identically to the survivors.

use ftmp::check::{orb_conn, OrbWorld, ORB_POOL_GROUP};
use ftmp::core::{ProcessorId, ProtocolConfig, ProtocolEvent};
use ftmp::net::SimConfig;
use ftmp::orb::{Counter, Transfer};

fn counter() -> Box<dyn ftmp::orb::Servant> {
    Box::new(Counter::default())
}

/// `id` is in `at`'s view of the server pool's group.
fn joined(w: &OrbWorld, at: u32, id: u32) -> bool {
    let proc = w.net.node(at).unwrap().proc();
    proc.membership(ORB_POOL_GROUP)
        .is_some_and(|m| m.contains(&ProcessorId(id)))
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
    let conn = orb_conn();

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
    w.crash(victim);
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
    w.activate(new_id, [Transfer::from(snapshot), replay], None, donor);
    // The replayed state already equals the donors'.
    assert_eq!(
        w.state::<Counter>(new_id).value(),
        20,
        "snapshot + replay = 20"
    );

    // The donor's add completes.
    w.run_ms(500);
    assert!(joined(&w, donor, new_id), "the replacement joined");

    // Phase 4: more invocations; the replacement applies them like everyone.
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(40);
    }
    w.run_ms(500);
    for &id in &[w.servers[0], w.servers[1]] {
        assert_eq!(w.state::<Counter>(id).value(), 25, "survivor P{id}");
    }
    assert_eq!(
        w.state::<Counter>(new_id).value(),
        25,
        "the replacement replica tracks the group"
    );
    // And the client saw every invocation complete exactly once.
    let (done, _) = w.drain_completions();
    assert_eq!(done.len(), 25);
}

/// A replica activated again under its old id the instant it crashed: the
/// donor's add lands while the old incarnation is still listed, so it waits
/// out the conviction and is retried (§7.1) instead of being lost.
#[test]
fn a_replica_sponsored_back_as_it_crashes_rejoins_and_tracks_the_group() {
    let mut w = OrbWorld::new(
        1,
        3,
        SimConfig::with_seed(73),
        ProtocolConfig::with_seed(73),
        counter,
    );
    for _ in 0..10 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    w.run_ms(100);
    let (donor, victim) = (w.servers[0], w.servers[2]);
    w.crash(victim);
    let snapshot = w.net.node(donor).unwrap().orb().checkpoint(orb_conn());
    w.activate(victim, [Transfer::from(snapshot)], None, donor);
    assert_eq!(
        w.state::<Counter>(victim).value(),
        10,
        "the snapshot's state"
    );
    w.run_ms(3_000);
    assert!(joined(&w, donor, victim), "the new incarnation rejoined");
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(40);
    }
    w.run_ms(500);
    for id in w.servers.clone() {
        assert_eq!(w.state::<Counter>(id).value(), 15, "server P{id}");
    }
    assert_eq!(w.drain_completions().0.len(), 15);
}
