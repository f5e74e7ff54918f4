//! The on-disk format pin. `fixtures/parent-log/` holds two segments
//! written by the commit *before* the writer learned to buffer and the
//! checksum went word-at-a-time (one `write_all` per record, one table
//! look-up per byte). This build must read them back to the same records
//! and, given those records, write the same bytes: same magic, same
//! frames, same CRC values, same rotation points.

use std::path::{Path, PathBuf};

use bytes::Bytes;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use ftmp_store::log::list_segments;
use ftmp_store::{
    fingerprint, recover, scratch_dir, DeliveredRecord, DurableLog, LogConfig, LogRecord,
    RecoveredState, ViewRecord,
};

/// Segment budget the fixture was written under: small, so it rotates once.
const SEGMENT_BYTES: u64 = 2048;

/// `fingerprint` of the fixture's records, as the writing commit printed it.
const FINGERPRINT: u64 = 0x8467_F8F1_CDD3_3502;

/// The records the fixture holds — the generator the writing commit ran.
/// Body lengths straddle the checksum's eight-byte step.
fn fixture_records() -> Vec<LogRecord> {
    let lens = [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 1024, 3];
    let mut records = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let n = i as u64 + 1;
        if i % 5 == 0 {
            records.push(LogRecord::ViewChange(ViewRecord {
                group: GroupId(1),
                members: (1..=(i as u32 % 4) + 2).map(ProcessorId).collect(),
                ts: Timestamp(n * 100),
            }));
        }
        let giop: Vec<u8> = (0..len).map(|b| (b as u64 * 31 + n * 17) as u8).collect();
        records.push(LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1 + (i as u32 % 2)),
            conn: ConnectionId::new(
                ObjectGroupId::new(1, i as u32 % 3),
                ObjectGroupId::new(2, 7),
            ),
            request_num: RequestNum(n * 1_000_003),
            source: ProcessorId(i as u32 % 3 + 1),
            seq: SeqNum(n),
            ts: Timestamp(n * 100 + 1),
            giop: Bytes::from(giop),
        }));
    }
    records
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-log")
}

fn segment_bytes_of(dir: &Path) -> Vec<(u32, Vec<u8>)> {
    list_segments(dir)
        .unwrap()
        .into_iter()
        .map(|(seq, path)| (seq, std::fs::read(path).unwrap()))
        .collect()
}

#[test]
fn parent_written_segments_decode_to_the_same_records() {
    // Recovery heals in place; never point it at the committed files.
    let dir = scratch_dir("format-pin-read");
    for (_, path) in list_segments(&fixture_dir()).unwrap() {
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let rec = recover(&dir).unwrap();
    assert_eq!(rec.stats.segments_scanned, 2);
    assert_eq!(rec.stats.bytes_truncated + rec.stats.bytes_quarantined, 0);
    assert_eq!(rec.records, fixture_records());
    assert_eq!(fingerprint(&rec.records), FINGERPRINT);
    // The fold over the scan sees the stream the collector does.
    let (state, stats) = RecoveredState::from_log(&dir).unwrap();
    assert_eq!(state, RecoveredState::from_records(&rec.records));
    assert_eq!(stats, rec.stats);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn this_build_writes_the_parent_s_bytes() {
    let dir = scratch_dir("format-pin-write");
    let mut log = DurableLog::open(
        &dir,
        LogConfig {
            segment_bytes: SEGMENT_BYTES,
        },
    )
    .unwrap();
    for r in &fixture_records() {
        log.append(r).unwrap();
    }
    log.flush().unwrap();
    assert_eq!(segment_bytes_of(&dir), segment_bytes_of(&fixture_dir()));
    std::fs::remove_dir_all(&dir).unwrap();
}
