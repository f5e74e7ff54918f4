//! Property tests for the durable log: replay is idempotent and
//! prefix-stable. Replaying a log twice, or writing any prefix then the
//! rest across a writer restart, yields byte-identical recovered state
//! (same records, same canonical-encoding fingerprint, same derived
//! [`RecoveredState`]).

use bytes::Bytes;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use ftmp_store::{
    fingerprint, recover, scratch_dir, DeliveredRecord, DurableLog, LogConfig, LogRecord,
    RecoveredState, ViewRecord,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    let delivered = (
        1u32..4,
        0u32..3,
        1u64..500,
        1u32..6,
        1u64..200,
        1u64..5_000,
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(g, c, num, src, seq, ts, giop)| {
            LogRecord::Delivered(DeliveredRecord {
                group: GroupId(g),
                conn: ConnectionId::new(ObjectGroupId::new(1, c), ObjectGroupId::new(2, c)),
                request_num: RequestNum(num),
                source: ProcessorId(src),
                seq: SeqNum(seq),
                ts: Timestamp(ts),
                giop: Bytes::from(giop),
            })
        });
    let view = (
        1u32..4,
        1u64..5_000,
        proptest::collection::vec(1u32..8, 1..6),
    )
        .prop_map(|(g, ts, m)| {
            LogRecord::ViewChange(ViewRecord {
                group: GroupId(g),
                members: m.into_iter().map(ProcessorId).collect(),
                ts: Timestamp(ts),
            })
        });
    prop_oneof![delivered, view]
}

fn write_all(dir: &std::path::Path, records: &[LogRecord], segment_bytes: u64) {
    let mut log = DurableLog::open(dir, LogConfig { segment_bytes }).unwrap();
    for r in records {
        log.append(r).unwrap();
    }
    // A dropped writer loses its buffer; these logs are read back whole.
    log.flush().unwrap();
}

proptest! {
    #[test]
    fn prop_replay_twice_is_byte_identical(
        records in proptest::collection::vec(record_strategy(), 0..120),
        segment_bytes in 64u64..4096,
    ) {
        let dir = scratch_dir("prop-idem");
        write_all(&dir, &records, segment_bytes);
        let first = recover(&dir).unwrap();
        let second = recover(&dir).unwrap();
        prop_assert_eq!(&first.records, &records);
        prop_assert_eq!(&first.records, &second.records);
        prop_assert_eq!(fingerprint(&first.records), fingerprint(&second.records));
        prop_assert_eq!(
            RecoveredState::from_records(&first.records),
            RecoveredState::from_records(&second.records)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prop_prefix_then_rest_matches_one_shot(
        records in proptest::collection::vec(record_strategy(), 1..120),
        cut_ppm in 0u64..1_000,
        segment_bytes in 64u64..4096,
    ) {
        let cut = (records.len() as u64 * cut_ppm / 1_000) as usize;
        // One-shot reference.
        let one = scratch_dir("prop-one");
        write_all(&one, &records, segment_bytes);
        let reference = recover(&one).unwrap();
        // Prefix, writer restart (new segment), then the rest.
        let split = scratch_dir("prop-split");
        write_all(&split, &records[..cut], segment_bytes);
        write_all(&split, &records[cut..], segment_bytes);
        let stitched = recover(&split).unwrap();
        prop_assert_eq!(&stitched.records, &reference.records);
        prop_assert_eq!(
            fingerprint(&stitched.records),
            fingerprint(&reference.records)
        );
        prop_assert_eq!(
            RecoveredState::from_records(&stitched.records),
            RecoveredState::from_records(&reference.records)
        );
        std::fs::remove_dir_all(&one).unwrap();
        std::fs::remove_dir_all(&split).unwrap();
    }

    #[test]
    fn prop_torn_tail_recovers_longest_valid_prefix(
        records in proptest::collection::vec(record_strategy(), 2..60),
        chop in 1usize..24,
    ) {
        let dir = scratch_dir("prop-torn");
        write_all(&dir, &records, u64::MAX >> 1);
        // Tear the tail mid-record (never a whole frame: the last record's
        // frame is at least FRAME_HEADER + 1 byte of payload).
        let segs = ftmp_store::log::list_segments(&dir).unwrap();
        let (_, path) = segs.last().unwrap();
        let len = std::fs::metadata(path).unwrap().len();
        let chop = (chop as u64).min(ftmp_store::record::FRAME_HEADER as u64);
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(len - chop)
            .unwrap();
        let rec = recover(&dir).unwrap();
        // The torn record is gone; everything before it survived intact.
        prop_assert_eq!(&rec.records, &records[..records.len() - 1]);
        prop_assert!(rec.stats.bytes_truncated > 0);
        // And a second recovery is clean and identical.
        let again = recover(&dir).unwrap();
        prop_assert_eq!(&again.records, &rec.records);
        prop_assert_eq!(again.stats.bytes_truncated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
