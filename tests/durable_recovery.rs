//! Integration: the DESIGN.md §12 durability story.
//!
//! 1. Attaching a real on-disk [`DurableLog`] to every member must not
//!    perturb the wire — the run still produces the exact golden FNV trace
//!    hash pinned since the pre-packing protocol, and the log holds every
//!    ordered delivery.
//! 2. Crash → restart → rejoin with *delta* state transfer: a server
//!    replica with a durable log crashes, restarts from its own log (no
//!    donor snapshot), fetches only the donor's suffix past its persisted
//!    horizon, rejoins under the **same** processor id, and serves
//!    identically to the survivors.
//! 3. The durability point: what is on disk when, relative to the host
//!    taking the engine's actions.

use bytes::Bytes;
use ftmp::core::{
    wire, Action, ClockMode, ConnectionId, GroupId, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum, SimProcessor,
};
use ftmp::harness::worlds::{OrbWorld, ORB_GROUP_ADDR};
use ftmp::net::{McastAddr, Outbox, Packet, SimConfig, SimDuration, SimNet, SimTime};
use ftmp::orb::log::LogEntry;
use ftmp::orb::servant::decode_i64_result;
use ftmp::orb::{OrbEndpoint, OrbNode};
use ftmp::store::{recover, scratch_dir, DurableLog, LogConfig, LogRecord, RecoveredState};
use ftmp_check::trace_hash;

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

/// The hash `ftmp-core`'s golden test pins for this exact scenario.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

#[test]
fn durable_log_does_not_perturb_the_golden_trace() {
    // The golden scenario from `ftmp-core`'s trace-hash test — three
    // members, each bursting three multicasts, 100 ms — byte-for-byte,
    // with a real on-disk log attached to every node.
    let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
    let mut net = SimNet::new(SimConfig::with_seed(7));
    net.set_classifier(wire::classify);
    net.set_message_counter(wire::message_count);
    let dirs: Vec<std::path::PathBuf> = (1..=3).map(|_| scratch_dir("golden-dlog")).collect();
    for id in 1..=3u32 {
        let mut engine = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(7),
            ClockMode::Lamport,
        );
        engine.create_group(SimTime::ZERO, GROUP, ADDR, members.clone());
        let log = DurableLog::open(&dirs[id as usize - 1], LogConfig::default()).unwrap();
        engine.set_delivery_log(Box::new(log));
        let mut node = SimProcessor::new(engine);
        let mut out = Outbox::default();
        node.pump(&mut out);
        net.add_node(id, node);
        net.subscribe(id, ADDR);
    }
    for id in 1..=3u32 {
        net.with_node(id, |n, _, _| {
            n.engine_mut().bind_connection(conn(), GROUP);
        });
    }
    net.enable_trace(1 << 16);
    for id in 1u32..=3 {
        net.with_node(id, |n, now, out| {
            for k in 0..3u64 {
                n.engine_mut()
                    .multicast_request(
                        now,
                        conn(),
                        RequestNum(u64::from(id) * 10 + k),
                        Bytes::from(vec![id as u8; 32]),
                    )
                    .unwrap();
            }
            n.pump(out);
        });
    }
    net.run_for(SimDuration::from_millis(100));
    assert_eq!(
        trace_hash(net.trace().expect("trace enabled")),
        GOLDEN,
        "attaching a durable delivery log changed the wire trace"
    );
    // The logs are real: every node persisted all nine deliveries.
    drop(net);
    for dir in &dirs {
        let rec = recover(dir).unwrap();
        let delivered = rec
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Delivered(_)))
            .count();
        assert_eq!(delivered, 9, "3 sources x 3 requests at every member");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Deliveries and views in the log at `dir`, as a restart would find them.
fn on_disk(dir: &std::path::Path) -> (usize, usize) {
    let records = recover(dir).unwrap().records;
    let delivered = records
        .iter()
        .filter(|r| matches!(r, LogRecord::Delivered(_)))
        .count();
    (delivered, records.len() - delivered)
}

/// The durability point (DESIGN.md §12), through a real engine driven by
/// hand so that *this test* decides when the host takes its actions: no
/// host is ever handed a delivery the OS has not been handed, and nothing
/// stronger. `host` logs; `peer` only talks to it.
#[test]
fn the_durability_point_is_the_turn_boundary() {
    let dir = scratch_dir("durability-point");
    let founders = [ProcessorId(1), ProcessorId(2)];
    let engine = |id: u32| {
        let mut p = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(5),
            ClockMode::Lamport,
        );
        p.create_group(SimTime::ZERO, GROUP, ADDR, founders);
        p.bind_connection(conn(), GROUP);
        p
    };
    let (mut peer, mut host) = (engine(1), engine(2));
    host.set_delivery_log(Box::new(
        DurableLog::open(&dir, LogConfig::default()).unwrap(),
    ));
    let mut now = SimTime::ZERO;
    let mut next_req = 0;
    // Part of a turn at `host`: `n` fresh requests from the peer and a few
    // of its heartbeats (so they order), every datagram handled — and the
    // host's actions left where they are. Returns the deliveries so far.
    let mut feed = |peer: &mut Processor, host: &mut Processor, n: u64, add: Option<u32>| {
        for _ in 0..n {
            next_req += 1;
            let body = Bytes::from(vec![next_req as u8; 100]);
            peer.multicast_request(now, conn(), RequestNum(next_req), body)
                .unwrap();
        }
        if let Some(id) = add {
            peer.add_processor(now, GROUP, ProcessorId(id));
        }
        for _ in 0..3 {
            now = SimTime(now.0 + 10_000);
            peer.tick(now);
            for a in peer.drain_actions() {
                if let Action::Send { addr, payload } = a {
                    host.handle_packet(now, &Packet::new(1, addr, payload));
                }
            }
            host.tick(now);
        }
        host.layer_totals().romp.delivered
    };
    let drained = |host: &mut Processor| -> usize {
        host.drain_actions()
            .iter()
            .filter(|a| matches!(a, Action::Deliver(_)))
            .count()
    };

    // Delivered inside the engine, not yet taken by the host: the log may
    // still be holding them (it is — three small frames are far under its
    // byte threshold).
    let delivered = feed(&mut peer, &mut host, 3, None);
    assert_eq!(delivered, 3, "three ordered deliveries");
    assert_eq!(on_disk(&dir), (0, 0), "nothing was handed to the host yet");
    // The host takes the turn's actions: every delivery it now holds is in
    // the file, with no `sync` and the log still open.
    assert_eq!(drained(&mut host), 3);
    assert_eq!(on_disk(&dir), (3, 0));

    // A view install does not wait for the turn: it is on disk at once,
    // behind the deliveries that preceded it.
    feed(&mut peer, &mut host, 2, None);
    assert_eq!(on_disk(&dir), (3, 0));
    feed(&mut peer, &mut host, 0, Some(3));
    assert!(
        host.membership(GROUP).unwrap().contains(&ProcessorId(3)),
        "the host installed the three-member view"
    );
    assert_eq!(
        on_disk(&dir),
        (5, 1),
        "view and what preceded it, undrained"
    );
    assert_eq!(drained(&mut host), 2);

    // A log dropped mid-turn is a crashed log: it loses that turn, and
    // only that turn.
    feed(&mut peer, &mut host, 2, None);
    drop(host);
    assert_eq!(on_disk(&dir), (5, 1), "the undrained turn is gone, no more");
    std::fs::remove_dir_all(&dir).unwrap();
}

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

/// Recovered Delivered records for `conn`, classified back into replayable
/// log entries (requests and replies; control GIOP drops out).
fn own_entries(records: &[LogRecord], conn: ConnectionId) -> Vec<LogEntry> {
    records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Delivered(d) if d.conn == conn => {
                LogEntry::classify(d.request_num, d.source, d.ts, d.giop.clone())
            }
            _ => None,
        })
        .collect()
}

#[test]
fn crashed_server_restarts_from_durable_log_with_delta_transfer() {
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

    // The victim server persists its deliveries from here on; a small
    // segment size makes the run span several segments.
    let victim = *w.servers.last().unwrap();
    let dir = scratch_dir("orb-delta");
    let log = DurableLog::open(
        &dir,
        LogConfig {
            segment_bytes: 2048,
        },
    )
    .unwrap();
    w.net.with_node(victim, move |n, _, _| {
        n.proc_mut().set_delivery_log(Box::new(log));
    });

    // Phase 1: 20 invocations reach all three servers.
    for _ in 0..20 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    w.run_ms(100);
    assert_eq!(counter_value(&w, victim), 20);

    // Phase 2: the victim crashes; the survivors convict and reconfigure.
    w.net.crash(victim);
    w.run_ms(1_000);
    let donor = w.servers[0];
    let events = w.net.node_mut(donor).unwrap().take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ProtocolEvent::FaultReport { processor, .. } if processor.0 == victim
        )),
        "fault reported"
    );

    // Phase 3: 5 invocations the victim never sees — the delta it must
    // fetch from a donor.
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    w.run_ms(100);

    // Phase 4: restart from the durable log. Own replay rebuilds the
    // pre-crash state — no donor snapshot — and re-derives the horizon;
    // the donor contributes only the suffix past it.
    let recovered = recover(&dir).unwrap();
    assert_eq!(recovered.stats.records_quarantined, 0, "clean crash");
    let state = RecoveredState::from_records(&recovered.records);
    let horizon = state.horizon_of(group);
    assert!(horizon.0 > 0, "the victim persisted a delivery horizon");
    let own = own_entries(&recovered.records, conn);
    assert!(own.len() >= 20, "all 20 requests persisted: {}", own.len());

    let donor_node = w.net.node(donor).unwrap();
    let full = donor_node.orb().log.entries(conn).len();
    let delta: Vec<LogEntry> = donor_node
        .orb()
        .log
        .replay_after(conn, horizon)
        .cloned()
        .collect();
    assert!(!delta.is_empty(), "phase-3 traffic is past the horizon");
    assert!(
        delta.len() < full,
        "delta transfer ({} entries) must be smaller than the donor's full log ({full})",
        delta.len()
    );

    let mut proc = Processor::new(
        ProcessorId(victim),
        ProtocolConfig::with_seed(72),
        ClockMode::Lamport,
    );
    proc.expect_join(group, ORB_GROUP_ADDR);
    proc.bind_connection(conn, group);
    let relog = DurableLog::open(
        &dir,
        LogConfig {
            segment_bytes: 2048,
        },
    )
    .unwrap();
    proc.set_delivery_log(Box::new(relog));
    let mut orb = OrbEndpoint::new();
    orb.activate_replica_delta(og, b"obj".to_vec(), counter(), conn, &own, &delta);
    w.net.revive(victim, OrbNode::new(proc, orb));
    w.net.with_node(victim, |n, now, out| n.pump(now, out));
    // Own replay (20) plus the donor delta (5) already equals the donors'.
    assert_eq!(counter_value(&w, victim), 25, "own replay + delta = 25");

    // The donor sponsors the rejoin under the old processor id.
    w.net.with_node(donor, move |n, now, out| {
        n.proc_mut().add_processor(now, group, ProcessorId(victim));
        n.pump(now, out);
    });
    w.run_ms(500);
    let members = w.net.node(donor).unwrap().proc().membership(group).unwrap();
    assert!(
        members.contains(&ProcessorId(victim)),
        "restarted member rejoined: {members:?}"
    );

    // Phase 5: more invocations; the restarted replica tracks the group.
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(40);
    }
    w.run_ms(500);
    for &id in &[w.servers[0], w.servers[1], victim] {
        assert_eq!(counter_value(&w, id), 30, "server P{id}");
    }
    // The client saw every invocation complete exactly once.
    let (done, _) = w.drain_completions();
    assert_eq!(done.len(), 30);

    // The second incarnation kept persisting: recovery now sees both
    // incarnations' segments as one history.
    drop(w);
    let again = recover(&dir).unwrap();
    assert!(
        again.records.len() > recovered.records.len(),
        "post-restart deliveries were persisted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
