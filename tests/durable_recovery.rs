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
use ftmp::check::{orb_conn, OrbWorld, ORB_POOL_GROUP};
use ftmp::core::{
    Action, ClockMode, Command, ConnectionId, GroupId, Inbox, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum,
};
use ftmp::net::{McastAddr, Packet, SimConfig, SimTime};
use ftmp::orb::log::LogEntry;
use ftmp::orb::{Counter, Transfer};
use ftmp::store::{recover, scratch_dir, DurableLog, LogConfig, LogRecord, RecoveredState};
use ftmp_check::{trace_hash, world_conn, FtmpWorld};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

/// The hash `ftmp-core`'s golden test pins for this exact scenario.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

#[test]
fn durable_log_does_not_perturb_the_golden_trace() {
    // The golden scenario from `ftmp-core`'s trace-hash test — three
    // members, each bursting three multicasts, 100 ms — byte-for-byte,
    // with a real on-disk log attached to every node.
    let mut w = FtmpWorld::new(
        3,
        SimConfig::with_seed(7),
        ProtocolConfig::with_seed(7),
        ClockMode::Lamport,
    );
    let dirs: Vec<std::path::PathBuf> = (1..=3).map(|_| scratch_dir("golden-dlog")).collect();
    for id in 1..=3u32 {
        let log = DurableLog::open(&dirs[id as usize - 1], LogConfig::default()).unwrap();
        w.net.with_node(id, move |n, _, _| {
            n.engine_mut().set_delivery_log(Box::new(log));
        });
    }
    w.net.enable_trace(1 << 16);
    for id in 1u32..=3 {
        w.net.with_node(id, |n, now, out| {
            for k in 0..3u64 {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: world_conn(),
                    request: RequestNum(u64::from(id) * 10 + k),
                    giop: Bytes::from(vec![id as u8; 32]),
                }));
            }
            n.pump(now, out);
            assert!(matches!(n.host.published, Some(Ok(_))));
        });
    }
    w.run_ms(100);
    assert_eq!(
        trace_hash(w.net.trace().expect("trace enabled")),
        GOLDEN,
        "attaching a durable delivery log changed the wire trace"
    );
    // The logs are real: every node persisted all nine deliveries.
    drop(w);
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
        p.bind_connection(world_conn(), GROUP);
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
            peer.multicast_request(now, world_conn(), RequestNum(next_req), body)
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
    Box::new(Counter::default())
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
    let conn = orb_conn();

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
    assert_eq!(w.state::<Counter>(victim).value(), 20);

    // Phase 2: the victim crashes; the survivors convict and reconfigure.
    w.crash(victim);
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
    let horizon = state.horizon_of(ORB_POOL_GROUP);
    assert!(horizon.0 > 0, "the victim persisted a delivery horizon");
    let own = own_entries(&recovered.records, conn);
    assert!(own.len() >= 20, "all 20 requests persisted: {}", own.len());

    let donor_node = w.net.node(donor).unwrap();
    let full = donor_node.orb().log.entries(conn).len();
    let delta = donor_node.orb().log.transfer(conn, horizon);
    assert!(
        !delta.entries.is_empty(),
        "phase-3 traffic is past the horizon"
    );
    assert!(
        delta.entries.len() < full,
        "delta transfer ({} entries) must be smaller than the donor's full log ({full})",
        delta.entries.len()
    );

    // A new incarnation under the old processor id, logging to the same
    // directory, sponsored back in by the donor.
    w.activate(victim, [Transfer::from(own), delta], Some(&dir), donor);
    // Own replay (20) plus the donor delta (5) already equals the donors'.
    assert_eq!(
        w.state::<Counter>(victim).value(),
        25,
        "own replay + delta = 25"
    );
    w.run_ms(500);
    let donor_node = w.net.node(donor).unwrap();
    let members = donor_node.proc().membership(ORB_POOL_GROUP).unwrap();
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
        assert_eq!(w.state::<Counter>(id).value(), 30, "server P{id}");
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
