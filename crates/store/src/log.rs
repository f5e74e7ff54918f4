//! The append-only segment writer: the delivery log's, and under the
//! observation record codec the trace's ([`trace`](crate::trace)).
//!
//! A log is a directory of segment files named `seg-NNNNNNNN.log`. Each
//! segment opens with a 12-byte header (`FTMPSEG\x01` magic + its sequence
//! number) and then holds a run of CRC-framed records. When the current
//! segment passes [`LogConfig::segment_bytes`] the writer rotates to the
//! next sequence number; rotation is what bounds the blast radius of a torn
//! tail and gives recovery a natural scan order.
//!
//! Opening a directory that already holds segments always starts a *new*
//! segment (max existing sequence + 1): a restarted process never appends
//! into a file whose tail it has not verified.
//!
//! Appends encode into a buffer; the buffer reaches the file in one
//! `write` at each of five points — when the host takes the engine turn's
//! actions ([`DeliveryLog::flush`]), when [`FLUSH_BYTES`] have accumulated,
//! before a rotation, at a view-change record, and in
//! [`sync`](DurableLog::sync). The first is the durability point
//! (DESIGN.md §12): *no host is ever handed a delivery the OS has not been
//! handed*. Buffering moves no byte: segment boundaries fall where they
//! would with one write per record.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ftmp_core::durable::DeliveryLog;
use ftmp_core::{Delivery, GroupId, ProcessorId, Timestamp};

use crate::record::{encode_payload, frame, DeliveredRecord, LogRecord, ViewRecord};

/// Segment-file magic: seven ASCII bytes + a format version.
pub const SEGMENT_MAGIC: [u8; 8] = *b"FTMPSEG\x01";

/// Segment header size: magic + little-endian sequence number.
pub const SEGMENT_HEADER: usize = SEGMENT_MAGIC.len() + 4;

/// Buffered frames are written out once this many bytes have accumulated,
/// whether or not the host has reached a turn boundary: the bound on what
/// a crash can take from a host that never calls [`DeliveryLog::flush`].
pub const FLUSH_BYTES: usize = 64 << 10;

/// Writer configuration.
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (header included). Records never split across segments.
    pub segment_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20,
        }
    }
}

/// File name of segment `seq`.
pub fn segment_name(seq: u32) -> String {
    format!("seg-{seq:08}.log")
}

/// The header that opens segment `seq`.
pub(crate) fn segment_header(seq: u32) -> [u8; SEGMENT_HEADER] {
    let mut header = [0u8; SEGMENT_HEADER];
    header[..SEGMENT_MAGIC.len()].copy_from_slice(&SEGMENT_MAGIC);
    header[SEGMENT_MAGIC.len()..].copy_from_slice(&seq.to_le_bytes());
    header
}

/// Parse a segment file name back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    (rest.len() == 8).then(|| rest.parse().ok()).flatten()
}

/// Sequence-sorted list of segment paths under `dir`.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u32, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_segment_name) {
            segs.push((seq, entry.path()));
        }
    }
    segs.sort_by_key(|(seq, _)| *seq);
    Ok(segs)
}

/// The append-only durable log writer. See the module docs for the layout
/// and the flush points.
///
/// `Drop` deliberately writes nothing: a dropped log is a crashed log and
/// loses at most its buffer, so a host that wants the tail calls
/// [`flush`](DurableLog::flush) or [`sync`](DurableLog::sync) first. (A
/// flush on drop would also write behind the back of a recovery that has
/// already read the directory.)
pub struct DurableLog {
    dir: PathBuf,
    cfg: LogConfig,
    file: File,
    seg_seq: u32,
    /// Logical length of the current segment: file bytes plus `buf`.
    seg_len: u64,
    appended: u64,
    io_errors: u64,
    /// Encoded frames the file has not been handed yet, and their count.
    buf: Vec<u8>,
    buffered: u64,
    /// A write into the current segment failed: rotate before appending.
    torn: bool,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("seg_seq", &self.seg_seq)
            .field("appended", &self.appended)
            .finish()
    }
}

impl DurableLog {
    /// Open (creating `dir` if needed) and start a fresh segment after any
    /// existing ones.
    pub fn open(dir: impl Into<PathBuf>, cfg: LogConfig) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next = list_segments(&dir)?
            .last()
            .map(|(seq, _)| seq + 1)
            .unwrap_or(0);
        let file = Self::new_segment(&dir, next)?;
        Ok(DurableLog {
            dir,
            cfg,
            file,
            seg_seq: next,
            seg_len: SEGMENT_HEADER as u64,
            appended: 0,
            io_errors: 0,
            buf: Vec::new(),
            buffered: 0,
            torn: false,
        })
    }

    /// Create segment `seq` and write its header. A file whose header could
    /// not be written is removed again, so a later attempt can reuse `seq`.
    fn new_segment(dir: &Path, seq: u32) -> io::Result<File> {
        let path = dir.join(segment_name(seq));
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        if let Err(e) = file.write_all(&segment_header(seq)) {
            let _ = fs::remove_file(&path);
            return Err(e);
        }
        Ok(file)
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records this writer took and has not lost: written out or still in
    /// its buffer.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records lost to I/O errors (the sink hooks are infallible; a host
    /// that cares reads this).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Sequence number of the segment currently being written.
    pub fn current_segment(&self) -> u32 {
        self.seg_seq
    }

    /// Append one record to the buffer, rotating first if the current
    /// segment is full or torn, and writing the buffer out if it has
    /// reached [`FLUSH_BYTES`] or `r` is a view change. An error means
    /// records were lost; [`io_errors`](Self::io_errors) has counted them.
    pub fn append(&mut self, r: &LogRecord) -> io::Result<()> {
        let result = self.append_with(|out| encode_payload(r, out));
        if matches!(r, LogRecord::ViewChange(_)) {
            return result.and(self.flush());
        }
        result
    }

    /// [`append`](Self::append) for any record codec: the frame around the
    /// payload `payload` appends, without the view-change flush point.
    pub(crate) fn append_with(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let mut result = Ok(());
        if self.seg_len >= self.cfg.segment_bytes || self.torn {
            result = self.flush();
            match Self::new_segment(&self.dir, self.seg_seq + 1) {
                Ok(file) => {
                    self.file = file;
                    self.seg_seq += 1;
                    self.seg_len = SEGMENT_HEADER as u64;
                    self.torn = false;
                }
                Err(e) => {
                    // Nowhere to put the record. The segment is still full
                    // or torn, so the next append tries again.
                    self.io_errors += 1;
                    return Err(e);
                }
            }
        }
        let start = self.buf.len();
        frame(&mut self.buf, payload);
        self.seg_len += (self.buf.len() - start) as u64;
        self.buffered += 1;
        self.appended += 1;
        if self.buf.len() >= FLUSH_BYTES {
            result = result.and(self.flush());
        }
        result
    }

    /// Hand every buffered frame to the file in one `write`.
    ///
    /// On an error the buffer is dropped and each record in it counted in
    /// [`io_errors`](Self::io_errors); the segment is cut back to its last
    /// whole frame (best effort) and abandoned — the next append opens a
    /// fresh one — so a torn frame can only ever be a segment's tail, never
    /// sit in front of good records.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let result = self.file.write_all(&self.buf);
        if result.is_err() {
            self.abandon_segment();
        }
        self.buf.clear();
        self.buffered = 0;
        result
    }

    /// A write of the buffer failed part-way: count the buffer lost, cut
    /// the file back to the frames it held before, and mark it for rotation.
    fn abandon_segment(&mut self) {
        self.io_errors += self.buffered;
        self.appended -= self.buffered;
        self.seg_len -= self.buf.len() as u64;
        let _ = self.file.set_len(self.seg_len);
        self.torn = true;
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_all()
    }
}

impl DeliveryLog for DurableLog {
    fn on_delivery(&mut self, d: &Delivery) {
        let rec = LogRecord::Delivered(DeliveredRecord {
            group: d.group,
            conn: d.conn,
            request_num: d.request_num,
            source: d.source,
            seq: d.seq,
            ts: d.ts,
            giop: d.giop.clone(),
        });
        // Infallible hook: `append` has counted what an error lost.
        let _ = self.append(&rec);
    }

    fn on_view_change(&mut self, group: GroupId, members: &[ProcessorId], ts: Timestamp) {
        let rec = LogRecord::ViewChange(ViewRecord {
            group,
            members: members.to_vec(),
            ts,
        });
        let _ = self.append(&rec);
    }

    fn flush(&mut self) {
        let _ = DurableLog::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn view(ts: u64) -> LogRecord {
        LogRecord::ViewChange(ViewRecord {
            group: GroupId(1),
            members: vec![ProcessorId(1)],
            ts: Timestamp(ts),
        })
    }

    #[test]
    fn rotation_respects_segment_bytes() {
        let dir = scratch_dir("rotate");
        let mut log = DurableLog::open(&dir, LogConfig { segment_bytes: 64 }).unwrap();
        for ts in 0..20 {
            log.append(&view(ts)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "small segment budget forces rotation");
        assert_eq!(segs.last().unwrap().0, log.current_segment());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_starts_a_fresh_segment() {
        let dir = scratch_dir("reopen");
        let mut log = DurableLog::open(&dir, LogConfig::default()).unwrap();
        log.append(&view(1)).unwrap();
        drop(log);
        let log2 = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log2.current_segment(), 1, "never appends into an old tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn delivered(n: u64, body: usize) -> LogRecord {
        LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1),
            conn: ftmp_core::ConnectionId::new(
                ftmp_core::ObjectGroupId::new(1, 1),
                ftmp_core::ObjectGroupId::new(1, 2),
            ),
            request_num: ftmp_core::RequestNum(n),
            source: ProcessorId(1),
            seq: ftmp_core::SeqNum(n),
            ts: Timestamp(n),
            giop: bytes::Bytes::from(vec![n as u8; body]),
        })
    }

    fn file_len(log: &DurableLog) -> u64 {
        fs::metadata(log.dir.join(segment_name(log.seg_seq)))
            .unwrap()
            .len()
    }

    #[test]
    fn frames_reach_the_file_at_the_flush_points() {
        let dir = scratch_dir("flush-points");
        let mut log = DurableLog::open(&dir, LogConfig::default()).unwrap();
        // Deliveries wait in the buffer ...
        log.append(&delivered(1, 100)).unwrap();
        log.append(&delivered(2, 100)).unwrap();
        assert_eq!(file_len(&log), SEGMENT_HEADER as u64);
        // ... until the turn boundary,
        log.flush().unwrap();
        assert_eq!(file_len(&log), log.seg_len);
        // a view change (on disk at once, with what was queued before it),
        log.append(&delivered(3, 100)).unwrap();
        log.append(&view(4)).unwrap();
        assert_eq!(file_len(&log), log.seg_len);
        // or the byte threshold.
        let mut n = 5;
        while log.buf.len() + 1100 < FLUSH_BYTES {
            log.append(&delivered(n, 1024)).unwrap();
            n += 1;
        }
        assert!(file_len(&log) < log.seg_len, "still under the threshold");
        log.append(&delivered(n, 1024)).unwrap();
        assert_eq!(file_len(&log), log.seg_len, "threshold wrote the buffer");
        // A dropped log is a crashed log: its buffer is gone.
        log.append(&delivered(n + 1, 100)).unwrap();
        drop(log);
        let rec = crate::recover(&dir).unwrap();
        assert_eq!(rec.stats.records_recovered, n);
        assert_eq!(
            rec.stats.bytes_truncated, 0,
            "only whole frames are written"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_drops_the_buffer_counts_it_and_rotates() {
        let dir = scratch_dir("write-error");
        let mut log = DurableLog::open(&dir, LogConfig::default()).unwrap();
        log.append(&delivered(1, 32)).unwrap();
        log.flush().unwrap();
        // The next write fails: a read-only descriptor in the writer's place.
        log.file = File::open(dir.join(segment_name(0))).unwrap();
        log.append(&delivered(2, 32)).unwrap();
        log.append(&delivered(3, 32)).unwrap();
        assert!(log.flush().is_err());
        assert_eq!(log.io_errors(), 2, "each lost record counted");
        assert_eq!(log.appended(), 1);
        // The log carries on in a fresh segment.
        log.append(&delivered(4, 32)).unwrap();
        log.flush().unwrap();
        assert_eq!(log.current_segment(), 1);
        assert_eq!(log.appended(), 2);
        drop(log);
        let rec = crate::recover(&dir).unwrap();
        assert_eq!(rec.records, vec![delivered(1, 32), delivered(4, 32)]);
        assert_eq!(rec.stats.bytes_quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_partial_write_never_sits_in_front_of_good_records() {
        let dir = scratch_dir("partial-write");
        let mut log = DurableLog::open(&dir, LogConfig::default()).unwrap();
        log.append(&delivered(1, 32)).unwrap();
        log.flush().unwrap();
        // A `write_all` that got half of a two-frame buffer out and then
        // failed (ENOSPC, say): what the error path in `flush` sees.
        log.append(&delivered(2, 32)).unwrap();
        log.append(&delivered(3, 32)).unwrap();
        let half = log.buf.len() / 2 + 7;
        log.file.write_all(&log.buf[..half]).unwrap();
        log.abandon_segment();
        log.buf.clear();
        log.buffered = 0;
        assert_eq!(log.io_errors(), 2);
        // Later records land in the next segment, and recovery — which
        // quarantines everything behind a torn frame — finds none.
        for n in 4..8 {
            log.append(&delivered(n, 32)).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(log.current_segment(), 1);
        drop(log);
        let rec = crate::recover(&dir).unwrap();
        let kept: Vec<LogRecord> = [1, 4, 5, 6, 7].map(|n| delivered(n, 32)).to_vec();
        assert_eq!(rec.records, kept);
        assert_eq!(rec.stats.bytes_quarantined + rec.stats.bytes_truncated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_name("seg-0000002a.log"), None);
        assert_eq!(parse_segment_name("other.log"), None);
    }
}
