//! Crash recovery: replay the longest valid prefix, truncate torn tails,
//! quarantine corruption.
//!
//! Recovery scans segments in sequence order and accepts records until the
//! first anomaly. Two classes of anomaly are distinguished:
//!
//! - **Torn tail** — the final segment ends mid-frame (short header, or a
//!   frame length that runs past end-of-file). This is the expected residue
//!   of dying mid-`write`; the tail carries no information and is truncated
//!   in place, counted in [`RecoverStats::bytes_truncated`].
//! - **Corruption** — a CRC mismatch, an undecodable payload, an implausible
//!   length, a bad segment header, or *any* anomaly followed by more data
//!   (same segment or later segments). The log's append-only contract means
//!   nothing after the first bad byte can be trusted, but the bytes may
//!   matter forensically, so they are moved to `quarantine/` (never deleted)
//!   and counted in [`RecoverStats::records_quarantined`] /
//!   [`RecoverStats::bytes_quarantined`].
//!
//! Either way the on-disk state after recovery is exactly the recovered
//! prefix — running recovery twice is idempotent, which the proptests pin.
//!
//! There is one frame walk per segment, `scan_segment`: it reads the
//! frames of one segment's buffer, checks each CRC and hands every payload
//! a codec accepts to a caller's closure, and it changes nothing on disk.
//! [`scan`] runs it under the delivery log's codec and heals the directory
//! as above, a delivered record's body being a slice of the segment's
//! buffer (no per-record allocation or copy). [`recover`] is the collector
//! over it; [`RecoveredState::from_log`](crate::state::RecoveredState::from_log)
//! folds the same stream without ever holding the records. An observation
//! trace is read by the same walk under its own codec
//! ([`trace::read`](crate::trace::read)), and never healed: it belongs to
//! another process, so its reader reports an anomaly instead.

use std::fs;
use std::io;
use std::path::Path;

use bytes::Bytes;

use crate::log::{list_segments, segment_name, SEGMENT_HEADER, SEGMENT_MAGIC};
use crate::record::{crc32, decode_payload, Cursor, LogRecord, FRAME_HEADER, MAX_RECORD};

/// What recovery found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoverStats {
    /// Segment files scanned (including quarantined ones).
    pub segments_scanned: u32,
    /// Records in the recovered prefix.
    pub records_recovered: u64,
    /// Torn-tail bytes truncated from the final segment.
    pub bytes_truncated: u64,
    /// Structurally frame-like records found past the first corruption
    /// (best effort — corruption can destroy framing itself).
    pub records_quarantined: u64,
    /// Bytes moved to the quarantine directory.
    pub bytes_quarantined: u64,
}

/// The recovered prefix plus what happened to the rest.
#[derive(Debug)]
pub struct Recovered {
    /// Records of the longest valid prefix, in append order.
    pub records: Vec<LogRecord>,
    /// Scan statistics.
    pub stats: RecoverStats,
}

/// Where a segment's valid prefix ends.
pub(crate) enum Anomaly {
    /// Clean end of segment.
    None,
    /// Partial frame at end of file (offset where it starts).
    Torn(usize),
    /// Unreadable record at offset.
    Corrupt(usize),
}

/// Scan one segment, handing each record `decode` makes of a valid frame's
/// payload to `each`; a payload it rejects is corruption. Reads nothing
/// outside `data` and changes nothing on disk.
pub(crate) fn scan_segment<T>(
    data: &Bytes,
    decode: impl Fn(&Bytes) -> Option<T>,
    mut each: impl FnMut(T),
) -> Anomaly {
    if data.len() < SEGMENT_HEADER || data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Anomaly::Corrupt(0);
    }
    let mut at = SEGMENT_HEADER;
    while at < data.len() {
        let mut header = Cursor::new(&data[at..]);
        let (Some(len), Some(crc)) = (header.u32(), header.u32()) else {
            return Anomaly::Torn(at);
        };
        if len > MAX_RECORD {
            return Anomaly::Corrupt(at);
        }
        let end = at + FRAME_HEADER + len as usize;
        if end > data.len() {
            return Anomaly::Torn(at);
        }
        let payload = data.slice(at + FRAME_HEADER..end);
        if crc32(&payload) != crc {
            return Anomaly::Corrupt(at);
        }
        match decode(&payload) {
            Some(rec) => each(rec),
            None => return Anomaly::Corrupt(at),
        }
        at = end;
    }
    Anomaly::None
}

/// Best-effort count of frame-shaped records in a quarantined region.
fn count_framelike(mut data: &[u8]) -> u64 {
    let mut n = 0;
    while let Some(len) = Cursor::new(data).u32() {
        let end = FRAME_HEADER + len as usize;
        if len > MAX_RECORD || data.len() < end {
            break;
        }
        n += 1;
        data = &data[end..];
    }
    n
}

fn quarantine(dir: &Path, name: &str, offset: usize, bytes: &[u8]) -> io::Result<()> {
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    fs::write(qdir.join(format!("{name}.at-{offset}.bin")), bytes)
}

/// Recover the longest valid record prefix from the log at `dir`.
///
/// Missing directory recovers as empty (a first boot). On return the
/// segment files hold exactly the recovered prefix; anything else has been
/// truncated (torn tails) or moved into `dir/quarantine/` (corruption).
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    let mut records = Vec::new();
    let stats = scan(dir, |r| records.push(r))?;
    Ok(Recovered { records, stats })
}

/// Stream the longest valid record prefix of the log at `dir` through
/// `each`, in append order, healing the directory exactly as [`recover`]
/// documents. Each segment is read into one buffer that its records'
/// `giop` bodies slice; a caller that keeps a record keeps that segment's
/// buffer alive, one that only folds it holds one segment at a time.
pub fn scan(dir: &Path, mut each: impl FnMut(LogRecord)) -> io::Result<RecoverStats> {
    let mut stats = RecoverStats::default();
    if !dir.exists() {
        return Ok(stats);
    }
    let segments = list_segments(dir)?;
    let mut poisoned = false;
    for (i, (seq, path)) in segments.iter().enumerate() {
        stats.segments_scanned += 1;
        let name = segment_name(*seq);
        if poisoned {
            // Everything after the first anomaly is untrusted: move the
            // whole segment aside.
            let data = fs::read(path)?;
            stats.bytes_quarantined += data.len() as u64;
            stats.records_quarantined += count_framelike(data.get(SEGMENT_HEADER..).unwrap_or(&[]));
            quarantine(dir, &name, 0, &data)?;
            fs::remove_file(path)?;
            continue;
        }
        let data = Bytes::from(fs::read(path)?);
        let anomaly = scan_segment(&data, decode_payload, |r| {
            stats.records_recovered += 1;
            each(r);
        });
        let last = i + 1 == segments.len();
        match anomaly {
            Anomaly::None => {}
            Anomaly::Torn(at) if last => {
                // Expected crash residue: cut it off.
                stats.bytes_truncated += (data.len() - at) as u64;
                fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(at as u64)?;
                poisoned = true;
            }
            Anomaly::Torn(at) | Anomaly::Corrupt(at) => {
                // Corruption, or a torn tail with segments *after* it —
                // either way the remainder is suspect, not residue.
                let tail = &data[at..];
                stats.bytes_quarantined += tail.len() as u64;
                stats.records_quarantined += count_framelike(tail);
                quarantine(dir, &name, at, tail)?;
                if at < SEGMENT_HEADER {
                    // Even the header was bad: nothing in this file to keep.
                    fs::remove_file(path)?;
                } else {
                    fs::OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len(at as u64)?;
                }
                poisoned = true;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DurableLog, LogConfig};
    use crate::record::{DeliveredRecord, ViewRecord};
    use crate::scratch_dir;
    use bytes::Bytes;
    use ftmp_core::{
        ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
    };

    fn delivered(n: u64) -> LogRecord {
        LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1),
            conn: ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2)),
            request_num: RequestNum(n),
            source: ProcessorId((n % 3) as u32 + 1),
            seq: SeqNum(n),
            ts: Timestamp(n * 7),
            giop: Bytes::from(vec![n as u8; 24]),
        })
    }

    fn write_log(dir: &Path, n: u64, segment_bytes: u64) -> Vec<LogRecord> {
        let mut log = DurableLog::open(dir, LogConfig { segment_bytes }).unwrap();
        let mut written = Vec::new();
        for i in 0..n {
            let r = if i % 10 == 9 {
                LogRecord::ViewChange(ViewRecord {
                    group: GroupId(1),
                    members: vec![ProcessorId(1), ProcessorId(2)],
                    ts: Timestamp(i * 7),
                })
            } else {
                delivered(i)
            };
            log.append(&r).unwrap();
            written.push(r);
        }
        // Dropping the writer writes nothing: hand the tail over first.
        log.flush().unwrap();
        written
    }

    #[test]
    fn clean_log_recovers_fully_across_segments() {
        let dir = scratch_dir("clean");
        let written = write_log(&dir, 50, 256);
        assert!(list_segments(&dir).unwrap().len() > 1);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, written);
        assert_eq!(rec.stats.records_recovered, 50);
        assert_eq!(rec.stats.bytes_truncated, 0);
        assert_eq!(rec.stats.bytes_quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_empty_log() {
        let dir = scratch_dir("missing").join("never-created");
        let rec = recover(&dir).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.stats.segments_scanned, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = scratch_dir("torn");
        let written = write_log(&dir, 20, u64::MAX >> 1);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // Cut mid-record: drop the last 5 bytes.
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, written[..19], "last record lost, rest intact");
        assert!(rec.stats.bytes_truncated > 0);
        assert_eq!(rec.stats.bytes_quarantined, 0);
        // Second recovery sees a clean log.
        let again = recover(&dir).unwrap();
        assert_eq!(again.records, rec.records);
        assert_eq!(again.stats.bytes_truncated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_quarantines_the_rest() {
        let dir = scratch_dir("crc");
        let written = write_log(&dir, 20, u64::MAX >> 1);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        // Flip a CRC byte of the 11th record: walk 10 frames in.
        let mut at = SEGMENT_HEADER;
        for _ in 0..10 {
            let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
            at += FRAME_HEADER + len;
        }
        data[at + 4] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, written[..10], "longest valid prefix");
        assert!(rec.stats.records_quarantined >= 1, "the bad record counted");
        assert!(rec.stats.bytes_quarantined > 0);
        assert!(dir.join("quarantine").exists(), "evidence preserved");
        // The segment itself was healed to the prefix.
        let again = recover(&dir).unwrap();
        assert_eq!(again.records, rec.records);
        assert_eq!(again.stats.bytes_quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_flipped_payload_byte_anywhere_in_a_long_record_is_quarantined() {
        // A record long enough for the folding kernel; the offsets sit on
        // either side of its 64-byte fold steps and on the last byte.
        let long = LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1),
            conn: ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2)),
            request_num: RequestNum(1),
            source: ProcessorId(1),
            seq: SeqNum(1),
            ts: Timestamp(7),
            giop: Bytes::from((0..2100u32).map(|i| (i * 13) as u8).collect::<Vec<_>>()),
        });
        let dir = scratch_dir("flip");
        let mut log = DurableLog::open(&dir, LogConfig::default()).unwrap();
        log.append(&delivered(0)).unwrap();
        log.append(&long).unwrap();
        log.flush().unwrap();
        drop(log);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let clean = fs::read(&path).unwrap();
        let at = SEGMENT_HEADER;
        let first = u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as usize;
        let payload_at = at + FRAME_HEADER + first + FRAME_HEADER;
        let len = clean.len() - payload_at;
        assert!(len >= 2048);
        for offset in [0, 63, 64, 127, 128, len - 1] {
            let mut data = clean.clone();
            data[payload_at + offset] ^= 0x01;
            fs::write(&path, &data).unwrap();
            let rec = recover(&dir).unwrap();
            assert_eq!(rec.records, [delivered(0)], "offset {offset}");
            assert_eq!(rec.stats.records_quarantined, 1, "offset {offset}");
            fs::write(&path, &clean).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_an_early_segment_quarantines_later_segments() {
        let dir = scratch_dir("early");
        let written = write_log(&dir, 40, 256);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3, "need several segments");
        // Corrupt the first record of the second segment.
        let (_, path) = &segs[1];
        let mut data = fs::read(path).unwrap();
        data[SEGMENT_HEADER + 4] ^= 0xFF;
        fs::write(path, &data).unwrap();
        let rec = recover(&dir).unwrap();
        // Prefix = everything in segment 0.
        assert!(!rec.records.is_empty() && rec.records.len() < written.len());
        assert_eq!(rec.records[..], written[..rec.records.len()]);
        assert!(rec.stats.bytes_quarantined > 0);
        // Later segments were moved wholesale.
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
