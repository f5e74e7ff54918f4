//! Trace-file replay: parsing, violation detection, crash-restart
//! boundaries, and sim-vs-replay parity.
//!
//! The negative test matters most: a replay path that parses but never
//! fires an oracle would make every cluster run look clean. The spliced
//! duplicate-delivery fixture proves the oracles actually see the events.

use bytes::Bytes;
use ftmp_check::replay::{read_trace_dir, read_trace_file, replay_traces};
use ftmp_check::suite::OracleSuite;
use ftmp_check::Event;
use ftmp_core::config::ProtocolConfig;
use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_core::{ClockMode, Command, Inbox, Node, Processor};
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet, SimTime};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(0x4654_4D50);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

fn write_fixture(dir: &Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

#[test]
fn reads_header_events_end_marker_and_torn_tail() {
    let dir = ftmp_store::scratch_dir("replay-read");
    let clean = write_fixture(
        &dir,
        "clean.trc",
        "ftmp-trace v1 node=3 inc=0\n\
         o 100 Sent g=1 q=1 t=10\n\
         o 200 Delivered g=1 c=1.10-1.20 r=7 s=3 q=1 t=10\n\
         end 300\n",
    );
    let f = read_trace_file(&clean).expect("parse clean");
    assert_eq!(f.node, ProcessorId(3));
    assert_eq!(f.incarnation, 0);
    assert_eq!(f.events.len(), 2);
    assert!(f.clean_end);
    assert!(!f.torn_tail);
    assert_eq!(f.events[0].0, SimTime(100));

    // A kill -9 can cut the final line mid-write: tolerated, flagged.
    let torn = write_fixture(
        &dir,
        "torn.trc",
        "ftmp-trace v1 node=2 inc=0\n\
         o 100 Sent g=1 q=1 t=10\n\
         o 150 Delivered g=1 c=1.10",
    );
    let f = read_trace_file(&torn).expect("parse torn");
    assert_eq!(f.events.len(), 1);
    assert!(!f.clean_end);
    assert!(f.torn_tail);

    // Garbage anywhere else is an error, not silently skipped.
    let bad = write_fixture(
        &dir,
        "bad.trc",
        "ftmp-trace v1 node=2 inc=0\n\
         o 100 Nonsense g=1\n\
         o 150 Sent g=1 q=1 t=10\n\
         end 200\n",
    );
    assert!(read_trace_file(&bad).is_err());
    assert!(read_trace_file(&write_fixture(&dir, "nothdr.trc", "not a trace\n")).is_err());

    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite requirement: a recorded-trace fixture that trips exactly one
/// oracle. The splice re-delivers request 3 under a fresh (seq, ts) — so
/// source order, causal order, total order and reliability all stay
/// satisfied — but `(conn, request)` repeats, which is precisely the
/// duplicate-suppression property.
#[test]
fn spliced_duplicate_delivery_trips_exactly_the_dedupe_oracle() {
    let dir = ftmp_store::scratch_dir("replay-dup");
    let path = write_fixture(
        &dir,
        "trace-P2-i0.trc",
        "ftmp-trace v1 node=2 inc=0\n\
         o 100 Delivered g=1 c=1.10-1.20 r=1 s=2 q=1 t=100\n\
         o 200 Delivered g=1 c=1.10-1.20 r=2 s=2 q=2 t=200\n\
         o 300 Delivered g=1 c=1.10-1.20 r=3 s=2 q=3 t=300\n\
         o 400 Delivered g=1 c=1.10-1.20 r=3 s=2 q=4 t=400\n\
         end 500\n",
    );
    let files = vec![read_trace_file(&path).expect("parse")];
    let node2 = [ProcessorId(2)];
    let report = replay_traces(GROUP, &node2, &files, &node2);
    assert!(!report.clean(), "the spliced duplicate must be detected");
    assert_eq!(report.violations, 1, "exactly one violation");
    assert_eq!(report.by_oracle, vec![("duplicate-suppression", 1)]);
    assert_eq!(report.delivered, 4);
    let cex = report.first_counterexample.expect("counterexample");
    assert!(
        cex.contains("duplicate-suppression"),
        "counterexample names the oracle: {cex}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A node with two incarnations (inc 0 truncated by the crash, inc 1 clean)
/// crosses one retire+rejoin boundary and is not flagged as unexpectedly
/// truncated; replay order across nodes follows timestamps.
#[test]
fn crash_restart_incarnations_cross_one_rejoin_boundary() {
    let dir = ftmp_store::scratch_dir("replay-restart");
    write_fixture(
        &dir,
        "trace-P1-i0.trc",
        "ftmp-trace v1 node=1 inc=0\n\
         o 100 Delivered g=1 c=1.10-1.20 r=1 s=1 q=1 t=100\n\
         o 500 Delivered g=1 c=1.10-1.20 r=2 s=1 q=2 t=500\n\
         end 900\n",
    );
    // inc 0 dies without an end marker...
    write_fixture(
        &dir,
        "trace-P2-i0.trc",
        "ftmp-trace v1 node=2 inc=0\n\
         o 150 Delivered g=1 c=1.10-1.20 r=1 s=1 q=1 t=100\n",
    );
    // ...and inc 1 supersedes it.
    write_fixture(
        &dir,
        "trace-P2-i1.trc",
        "ftmp-trace v1 node=2 inc=1\n\
         o 600 Delivered g=1 c=1.10-1.20 r=2 s=1 q=2 t=500\n\
         end 900\n",
    );
    let files = read_trace_dir(&dir).expect("read dir");
    assert_eq!(files.len(), 3);
    let members = [ProcessorId(1), ProcessorId(2)];
    let report = replay_traces(GROUP, &members, &files, &members);
    assert!(
        report.clean(),
        "violations: {:?}",
        report.first_counterexample
    );
    assert_eq!(report.rejoins, 1);
    assert!(!report.unexpected_truncation);
    assert_eq!(report.nodes, vec![ProcessorId(1), ProcessorId(2)]);
    assert_eq!(report.observed, 4);

    // Without the restart file, the truncation is unexpected.
    std::fs::remove_file(dir.join("trace-P2-i1.trc")).unwrap();
    let files = read_trace_dir(&dir).expect("read dir");
    let report = replay_traces(GROUP, &members, &files, &[ProcessorId(1)]);
    assert!(report.unexpected_truncation);
    let _ = std::fs::remove_dir_all(dir);
}

/// Parity: a simulator run checked live and the same run's observation
/// stream serialized to trace files and replayed must agree exactly —
/// same event count, same delivered count, same (zero) verdict. This is
/// the bridge that lets real-socket traces claim "checked by the same
/// oracles as the simulator".
#[test]
fn sim_run_replayed_from_trace_files_matches_live_checking() {
    let founders: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
    let live_suite = Rc::new(RefCell::new(OracleSuite::standard(GROUP, &founders)));
    let texts: Vec<Rc<RefCell<String>>> = (0..3)
        .map(|i| {
            Rc::new(RefCell::new(format!(
                "ftmp-trace v1 node={} inc=0\n",
                i + 1
            )))
        })
        .collect();

    let mut net = SimNet::new(SimConfig::with_seed(11));
    for id in 1u32..=3 {
        let mut e = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(11),
            ClockMode::Lamport,
        );
        e.create_group(SimTime::ZERO, GROUP, ADDR, founders.clone());
        e.bind_connection(conn(), GROUP);
        net.add_node(id, Node::sim(e, GROUP));
        let text = Rc::clone(&texts[id as usize - 1]);
        let suite = Rc::clone(&live_suite);
        let node = ProcessorId(id);
        net.node_mut(id).unwrap().set_observer(move |at, obs| {
            use std::fmt::Write as _;
            let _ = writeln!(text.borrow_mut(), "o {} {}", at.0, obs.encode_line());
            suite.borrow_mut().ingest(Event { at, node, obs });
        });
        net.with_node(id, |n, now, out| n.pump(now, out));
    }
    for id in 1u32..=3 {
        net.with_node(id, |n, now, out| {
            for k in 0..4u64 {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: conn(),
                    request: RequestNum(u64::from(id) * 100 + k),
                    giop: Bytes::from(vec![id as u8; 48]),
                }));
            }
            n.pump(now, out);
            assert!(matches!(n.host.published, Some(Ok(_))));
        });
    }
    net.run_for(SimDuration::from_millis(300));
    live_suite.borrow_mut().finish(&founders);

    let dir = ftmp_store::scratch_dir("replay-parity");
    for (i, text) in texts.iter().enumerate() {
        let mut t = text.borrow().clone();
        t.push_str("end 300000\n");
        write_fixture(&dir, &format!("trace-P{}-i0.trc", i + 1), &t);
    }
    let files = read_trace_dir(&dir).expect("read dir");
    let report = replay_traces(GROUP, &founders, &files, &founders);

    let live = live_suite.borrow();
    assert_eq!(report.observed, live.observed(), "event counts match");
    assert_eq!(report.delivered, live.delivered(), "delivery counts match");
    assert_eq!(report.violations, live.violation_count());
    assert!(
        report.clean(),
        "violations: {:?}",
        report.first_counterexample
    );
    assert!(report.delivered >= 36, "3 nodes x 12 requests delivered");
    let _ = std::fs::remove_dir_all(dir);
}
