//! Trace-log replay: reading, violation detection, crash-restart
//! boundaries, sim-vs-replay parity, and what a flipped bit or garbage in
//! a trace does to the reader.
//!
//! The negative test matters most: a replay path that reads but never
//! fires an oracle would make every cluster run look clean. The spliced
//! duplicate-delivery fixture proves the oracles actually see the events.

use bytes::Bytes;
use ftmp_check::replay::{read_trace_dir, read_trace_file, replay_traces, TraceFile};
use ftmp_check::suite::OracleSuite;
use ftmp_check::{world_conn, Event, FtmpWorld};
use ftmp_core::config::ProtocolConfig;
use ftmp_core::ids::{
    ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use ftmp_core::observe::Observation;
use ftmp_core::{ClockMode, Command, Inbox};
use ftmp_net::{SimConfig, SimTime};
use ftmp_store::log::{list_segments, segment_name, SEGMENT_HEADER, SEGMENT_MAGIC};
use ftmp_store::record::FRAME_HEADER;
use ftmp_store::trace::TraceWriter;
use ftmp_store::{DurableLog, LogConfig};
use proptest::prelude::*;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

const GROUP: GroupId = GroupId(1);

/// Write the trace log `dir/name` of `node`'s incarnation `inc` through
/// the runtime's writer: `events` in order, then the close record at
/// `close`, or none (a crashed incarnation).
fn write_trace(
    dir: &Path,
    name: &str,
    (node, inc): (u32, u32),
    events: &[(u64, Observation)],
    close: Option<u64>,
) -> PathBuf {
    let path = dir.join(name);
    let mut w = TraceWriter::create(&path, node, inc).expect("create trace");
    for (at, obs) in events {
        w.record(*at, obs).expect("record");
    }
    match close {
        Some(at) => assert_eq!(w.finish(at).expect("close"), path),
        None => w.flush().expect("flush"),
    }
    path
}

/// The one segment a short trace fills.
fn segment(path: &Path) -> PathBuf {
    let segs = list_segments(path).unwrap();
    assert_eq!(segs.len(), 1);
    segs[0].1.clone()
}

fn delivered(request: u64, source: u32, seq: u64, ts: u64) -> Observation {
    Observation::Delivered {
        group: GROUP,
        conn: ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20)),
        request: RequestNum(request),
        source: ProcessorId(source),
        seq: SeqNum(seq),
        ts: Timestamp(ts),
    }
}

fn sent(seq: u64, ts: u64) -> Observation {
    Observation::Sent {
        group: GROUP,
        seq: SeqNum(seq),
        ts: Timestamp(ts),
    }
}

#[test]
fn reads_open_events_close_and_torn_tail() {
    let dir = ftmp_store::scratch_dir("replay-read");
    let events = [(100, sent(1, 10)), (200, delivered(7, 3, 1, 10))];
    let clean = write_trace(&dir, "clean.trc", (3, 0), &events, Some(300));
    let f = read_trace_file(&clean).expect("read clean");
    assert_eq!(f.node, ProcessorId(3));
    assert_eq!(f.incarnation, 0);
    assert_eq!(f.events.len(), 2);
    assert!(f.clean_end);
    assert!(!f.torn_tail);
    assert_eq!(f.events[0], (SimTime(100), sent(1, 10)));

    // A kill -9 can cut the last frame mid-write: tolerated, flagged, and
    // left as it is on disk.
    let torn = write_trace(&dir, "torn.trc", (2, 0), &events, None);
    let seg = segment(&torn);
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 5)
        .unwrap();
    let f = read_trace_file(&torn).expect("read torn");
    assert_eq!(f.events, [(SimTime(100), sent(1, 10))]);
    assert!(!f.clean_end);
    assert!(f.torn_tail);
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        len - 5,
        "replay healed"
    );

    // A kill -9 can land between creating the next segment and writing its
    // header: an empty last segment, or part of a header, is a torn tail.
    for cut in [0, 5] {
        let rotated = write_trace(&dir, &format!("rotated-{cut}.trc"), (4, 0), &events, None);
        let next = rotated.join(segment_name(list_segments(&rotated).unwrap()[0].0 + 1));
        std::fs::write(&next, &SEGMENT_MAGIC[..cut]).unwrap();
        let f = read_trace_file(&rotated).expect("read a cut-off header");
        assert_eq!(f.events.len(), 2);
        assert!(f.torn_tail && !f.clean_end, "cut at {cut}");
        assert_eq!(
            std::fs::read(&next).unwrap(),
            &SEGMENT_MAGIC[..cut],
            "replay healed"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corruption_and_a_bad_or_missing_open_record_are_errors() {
    let dir = ftmp_store::scratch_dir("replay-bad");
    let events = [(100, sent(1, 10)), (150, sent(2, 11))];
    let invalid = |path: &Path| {
        let e = read_trace_file(path).expect_err("not a trace to trust");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    };

    // A bad frame before good ones is an error, not a skipped record.
    let bad = write_trace(&dir, "bad.trc", (2, 0), &events, Some(200));
    let seg = segment(&bad);
    let mut bytes = std::fs::read(&seg).unwrap();
    let open_frame = FRAME_HEADER + 9;
    let first_obs = SEGMENT_HEADER + open_frame;
    bytes[first_obs + FRAME_HEADER + 3] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();
    invalid(&bad);
    assert_eq!(std::fs::read(&seg).unwrap(), bytes, "replay quarantined");

    // Without its open record the stream is nobody's.
    let headless = write_trace(&dir, "headless.trc", (2, 0), &events, Some(200));
    let seg = segment(&headless);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.drain(SEGMENT_HEADER..first_obs);
    std::fs::write(&seg, &bytes).unwrap();
    invalid(&headless);

    // A segment with no record at all, and a delivery log's record where
    // the open record belongs.
    let empty = dir.join("empty.trc");
    DurableLog::open(&empty, LogConfig::default()).unwrap();
    invalid(&empty);
    let dlog = dir.join("dlog.trc");
    let mut log = DurableLog::open(&dlog, LogConfig::default()).unwrap();
    log.append(&ftmp_store::LogRecord::ViewChange(ftmp_store::ViewRecord {
        group: GROUP,
        members: vec![ProcessorId(1)],
        ts: Timestamp(1),
    }))
    .unwrap();
    invalid(&dlog);
    assert!(read_trace_file(&dir.join("absent.trc")).is_err());
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
    let events = [
        (100, delivered(1, 2, 1, 100)),
        (200, delivered(2, 2, 2, 200)),
        (300, delivered(3, 2, 3, 300)),
        (400, delivered(3, 2, 4, 400)),
    ];
    let path = write_trace(&dir, "trace-P2-i0.trc", (2, 0), &events, Some(500));
    let files = vec![read_trace_file(&path).expect("read")];
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
    let p1 = [
        (100, delivered(1, 1, 1, 100)),
        (500, delivered(2, 1, 2, 500)),
    ];
    write_trace(&dir, "trace-P1-i0.trc", (1, 0), &p1, Some(900));
    // inc 0 dies without a close record...
    let p2 = [(150, delivered(1, 1, 1, 100))];
    write_trace(&dir, "trace-P2-i0.trc", (2, 0), &p2, None);
    // ...and inc 1 supersedes it.
    let p2 = [(600, delivered(2, 1, 2, 500))];
    write_trace(&dir, "trace-P2-i1.trc", (2, 1), &p2, Some(900));
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
    std::fs::remove_dir_all(dir.join("trace-P2-i1.trc")).unwrap();
    let files = read_trace_dir(&dir).expect("read dir");
    let report = replay_traces(GROUP, &members, &files, &[ProcessorId(1)]);
    assert!(report.unexpected_truncation);
    let _ = std::fs::remove_dir_all(dir);
}

/// Parity: a simulator run checked live and the same run's observation
/// stream written to trace logs and replayed must agree exactly —
/// same event count, same delivered count, same (zero) verdict. This is
/// the bridge that lets real-socket traces claim "checked by the same
/// oracles as the simulator".
#[test]
fn sim_run_replayed_from_trace_files_matches_live_checking() {
    let founders: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
    let live_suite = Rc::new(RefCell::new(OracleSuite::standard(GROUP, &founders)));
    // Each node's stream, written through the trace writer after the run.
    type Stream = Rc<RefCell<Vec<(u64, Observation)>>>;
    let streams: Vec<Stream> = (0..3).map(|_| Rc::default()).collect();

    let mut w = FtmpWorld::new(
        3,
        SimConfig::with_seed(11),
        ProtocolConfig::with_seed(11),
        ClockMode::Lamport,
    );
    for id in 1u32..=3 {
        let stream = Rc::clone(&streams[id as usize - 1]);
        let suite = Rc::clone(&live_suite);
        let node = ProcessorId(id);
        w.net.node_mut(id).unwrap().set_observer(move |at, obs| {
            stream.borrow_mut().push((at.0, obs.clone()));
            suite.borrow_mut().ingest(Event { at, node, obs });
        });
    }
    for id in 1u32..=3 {
        w.net.with_node(id, |n, now, out| {
            for k in 0..4u64 {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: world_conn(),
                    request: RequestNum(u64::from(id) * 100 + k),
                    giop: Bytes::from(vec![id as u8; 48]),
                }));
            }
            n.pump(now, out);
            assert!(matches!(n.host.published, Some(Ok(_))));
        });
    }
    w.run_ms(300);
    live_suite.borrow_mut().finish(&founders);

    let dir = ftmp_store::scratch_dir("replay-parity");
    for (i, stream) in streams.iter().enumerate() {
        let name = format!("trace-P{}-i0.trc", i + 1);
        let node = (i as u32 + 1, 0);
        write_trace(&dir, &name, node, &stream.borrow(), Some(300_000));
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

/// Every kind of observation once, at rising times: what the proptests
/// damage.
fn sample_events() -> Vec<(u64, Observation)> {
    let g = GROUP;
    let obs = [
        Observation::ViewInstalled {
            group: g,
            members: vec![ProcessorId(1), ProcessorId(4)],
            ts: Timestamp(1),
        },
        sent(1, 10),
        Observation::Retained {
            group: g,
            source: ProcessorId(1),
            seq: SeqNum(1),
            ts: Timestamp(9),
        },
        delivered(5, 1, 1, 9),
        Observation::Acked {
            group: g,
            member: ProcessorId(1),
            ts: Timestamp(10),
        },
        Observation::Reclaimed {
            group: g,
            stable_ts: Timestamp(9),
            count: 1,
        },
        Observation::Suspected {
            group: g,
            suspect: ProcessorId(1),
        },
        Observation::Convicted {
            group: g,
            convicted: ProcessorId(1),
        },
    ];
    obs.into_iter()
        .enumerate()
        .map(|(i, o)| (100 * i as u64 + 100, o))
        .collect()
}

fn as_read(events: &[(u64, Observation)]) -> Vec<(SimTime, Observation)> {
    events
        .iter()
        .map(|(at, o)| (SimTime(*at), o.clone()))
        .collect()
}

/// What a damaged trace may read as, short of an error: a prefix of what
/// was written, the whole of it only where the damage missed every frame,
/// and flagged torn where it lost any.
fn a_prefix_of_the_written(f: &TraceFile, closed: bool) -> bool {
    let want = as_read(&sample_events());
    let whole = f.events == want && f.clean_end == closed && !f.torn_tail;
    want.starts_with(&f.events)
        && (f.node, f.incarnation) == (ProcessorId(4), 1)
        && (whole || (f.torn_tail && !f.clean_end))
}

/// One flipped bit anywhere in a trace's segment, every bit in turn: an
/// error, or a prefix of what was written; never a panic, never a record
/// nobody wrote, and never a write to the trace.
#[test]
fn a_flipped_bit_is_an_error_or_a_flagged_prefix() {
    let dir = ftmp_store::scratch_dir("replay-flip");
    for closed in [false, true] {
        let path = write_trace(
            &dir,
            "t.trc",
            (4, 1),
            &sample_events(),
            closed.then_some(9_000),
        );
        let seg = segment(&path);
        let clean = std::fs::read(&seg).unwrap();
        for bit in 0..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&seg, &bytes).unwrap();
            if let Ok(f) = read_trace_file(&path) {
                assert!(a_prefix_of_the_written(&f, closed), "bit {bit}: {f:?}");
            }
            assert_eq!(std::fs::read(&seg).unwrap(), bytes, "bit {bit}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Garbage after the records: an error, or (a cut-off frame) every
    /// record flagged torn.
    #[test]
    fn prop_garbage_after_the_records_is_an_error_or_a_torn_tail(
        garbage in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let dir = ftmp_store::scratch_dir("replay-garbage");
        let path = write_trace(&dir, "t.trc", (4, 1), &sample_events(), None);
        let seg = segment(&path);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&seg, &bytes).unwrap();
        if let Ok(f) = read_trace_file(&path) {
            prop_assert_eq!(&f.events, &as_read(&sample_events()));
            prop_assert!(f.torn_tail && !f.clean_end);
        }
        prop_assert_eq!(std::fs::read(&seg).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
