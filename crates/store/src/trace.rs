//! The observation trace: one process's [`Observation`] stream on disk, a
//! log of this crate's segments and frames under a second record codec
//! (DESIGN.md §9, §12).
//!
//! A trace is a log directory like the delivery log's — the same segment
//! header, CRC frame, writer and flush points — whose payloads are
//! [`TraceRecord`]s instead of [`LogRecord`](crate::LogRecord)s:
//!
//! ```text
//!   open      [0x10] [node: u32] [incarnation: u32]
//!   observed  [0x20 + variant] [at: u64] [group: u32] [the variant's fields]
//!   close     [0x11] [at: u64]
//! ```
//!
//! little-endian and fixed-width like the delivery log's, `at` in
//! microseconds. The open record comes first, then one record per
//! observation in exact local emission order, then — on clean shutdown
//! only — the close record. A trace without one belongs to a crashed
//! incarnation.
//!
//! The writer buffers; its host hands a whole engine turn's observations
//! to the file in one `write` ([`TraceWriter::flush`]), so a killed
//! process's trace survives up to its last completed turn, like the
//! delivery log. [`read`] walks the segments with the recovery scan's frame
//! walk but never heals them: the trace is another process's evidence. A
//! frame cut off at the end of the last segment, or a last segment whose
//! header was cut off, is a crash's residue (reported, not fatal); any
//! other anomaly — a CRC mismatch, a payload this codec rejects, a record
//! before the open record or after the close record — is an error.

use std::fs;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use ftmp_core::observe::Observation;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};

use crate::log::{list_segments, segment_header, DurableLog, LogConfig};
use crate::record::{put_u32, put_u64, Cursor};
use crate::recover::{scan_segment, Anomaly};

const KIND_OPEN: u8 = 0x10;
const KIND_CLOSE: u8 = 0x11;

/// One record of a trace log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// Whose stream this is, the first record: the recording processor and
    /// its incarnation (0 fresh; one more per crash-restart).
    Open(ProcessorId, u32),
    /// One observation and when the host recorded it, in microseconds.
    Observed(u64, Observation),
    /// The clean-shutdown record and when it was written: the last record.
    Close(u64),
}

/// One field of an observation record.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Option<Self>;
}

/// The id newtypes are their integer.
macro_rules! newtype_fields {
    ($($t:ident($put:ident, $get:ident)),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, self.0);
            }
            fn get(c: &mut Cursor<'_>) -> Option<Self> {
                c.$get().map($t)
            }
        }
    )*};
}

newtype_fields!(
    GroupId(put_u32, u32),
    ProcessorId(put_u32, u32),
    RequestNum(put_u64, u64),
    SeqNum(put_u64, u64),
    Timestamp(put_u64, u64)
);

impl Field for ConnectionId {
    fn put(&self, out: &mut Vec<u8>) {
        let (client, server) = (self.client, self.server);
        for v in [client.domain.0, client.group, server.domain.0, server.group] {
            put_u32(out, v);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let client = ObjectGroupId::new(c.u32()?, c.u32()?);
        let server = ObjectGroupId::new(c.u32()?, c.u32()?);
        Some(ConnectionId::new(client, server))
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        usize::try_from(c.u64()?).ok()
    }
}

/// A member list: its count, then the ids, which must fill the rest of the
/// payload (so it is a record's last field, and a wild count allocates
/// nothing).
impl Field for Vec<ProcessorId> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for p in self {
            p.put(out);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let n = c.u32()? as usize;
        c.ids(n)
    }
}

/// The observation records, one line a variant: its kind byte and its
/// fields in record order, after the kind and `at`. Encoder and decoder
/// are both made from the line, so they cannot disagree.
macro_rules! observations {
    ($($kind:literal $variant:ident { $($field:ident),* })*) => {
        /// Append the payload of the record of `obs`, recorded at `at`.
        pub fn encode_observed(at: u64, obs: &Observation, out: &mut Vec<u8>) {
            match obs {$(
                Observation::$variant { $($field),* } => {
                    out.push($kind);
                    put_u64(out, at);
                    $($field.put(out);)*
                }
            )*}
        }

        /// The observation of kind `kind` whose fields `c` holds.
        fn decode_observation(kind: u8, c: &mut Cursor<'_>) -> Option<Observation> {
            Some(match kind {
                $($kind => Observation::$variant { $($field: Field::get(c)?),* },)*
                _ => return None,
            })
        }
    };
}

observations! {
    0x20 Delivered { group, conn, request, source, seq, ts }
    0x21 ViewInstalled { group, ts, members }
    0x22 Sent { group, seq, ts }
    0x23 Acked { group, member, ts }
    0x24 Retained { group, source, seq, ts }
    0x25 Reclaimed { group, stable_ts, count }
    0x26 Suspected { group, suspect }
    0x27 Convicted { group, convicted }
}

/// Decode one trace payload. `None` means it is corrupt: an unknown kind,
/// short fields, or bytes left over. Allocates only a view's member list,
/// and only once the payload holds every id it claims.
pub fn decode_payload(payload: &[u8]) -> Option<TraceRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        KIND_OPEN => TraceRecord::Open(Field::get(&mut c)?, c.u32()?),
        KIND_CLOSE => TraceRecord::Close(c.u64()?),
        kind => {
            let at = c.u64()?;
            TraceRecord::Observed(at, decode_observation(kind, &mut c)?)
        }
    };
    c.done().then_some(rec)
}

/// Writes one incarnation's observation stream as a trace log.
///
/// A [`DurableLog`] underneath, so like one it writes nothing on `Drop`: a
/// dropped writer is a crashed process, and loses at most what was
/// recorded since the last [`flush`](Self::flush).
pub struct TraceWriter {
    w: DurableLog,
}

impl TraceWriter {
    /// Start the trace of `node`'s incarnation `incarnation` in the log
    /// directory `dir`, created if needed. The segments of an earlier trace
    /// there are removed first; the open record is on disk on return.
    pub fn create(dir: impl Into<PathBuf>, node: u32, incarnation: u32) -> io::Result<Self> {
        let dir = dir.into();
        if dir.is_dir() {
            for (_, old) in list_segments(&dir)? {
                fs::remove_file(old)?;
            }
        }
        let mut w = DurableLog::open(dir, LogConfig::default())?;
        w.append_with(|out| {
            out.push(KIND_OPEN);
            put_u32(out, node);
            put_u32(out, incarnation);
        })?;
        w.flush()?;
        Ok(TraceWriter { w })
    }

    /// Append the record of `obs`, recorded at `at` microseconds, to the
    /// buffer.
    pub fn record(&mut self, at: u64, obs: &Observation) -> io::Result<()> {
        self.w.append_with(|out| encode_observed(at, obs, out))
    }

    /// Hand what was recorded since the last flush to the file in one
    /// `write`: a host calls it at the end of each turn.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Append the close record, written at `at`, force the trace to stable
    /// storage and return its directory.
    pub fn finish(mut self, at: u64) -> io::Result<PathBuf> {
        self.w.append_with(|out| {
            out.push(KIND_CLOSE);
            put_u64(out, at);
        })?;
        self.w.sync()?;
        Ok(self.w.dir().to_path_buf())
    }
}

/// What a trace says of itself besides its observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    /// The recording processor.
    pub node: ProcessorId,
    /// Its incarnation.
    pub incarnation: u32,
    /// The close record is there: the incarnation shut down cleanly.
    pub clean_end: bool,
    /// The last segment ends in a cut-off frame: the process died
    /// mid-`write`.
    pub torn_tail: bool,
}

/// Read the trace log at `dir`, handing each observation and the time it
/// was recorded at to `each`, in recording order. Changes nothing on disk.
/// An error (`InvalidData` for what the module docs call one) means the
/// trace cannot be trusted; what `each` was handed before it is then
/// worthless.
pub fn read(dir: &Path, mut each: impl FnMut(u64, Observation)) -> io::Result<TraceInfo> {
    let bad = |what: &str| io::Error::new(ErrorKind::InvalidData, format!("{dir:?}: {what}"));
    let segments = list_segments(dir)?;
    let (mut open, mut clean_end, mut torn_tail, mut misplaced) = (None, false, false, false);
    for (i, (seq, path)) in segments.iter().enumerate() {
        let data = Bytes::from(fs::read(path)?);
        let anomaly = scan_segment(
            &data,
            |p| decode_payload(p),
            |rec| match (rec, open.is_some() && !clean_end) {
                (TraceRecord::Open(node, inc), _) if open.is_none() => open = Some((node, inc)),
                (TraceRecord::Observed(at, obs), true) => each(at, obs),
                (TraceRecord::Close(_), true) => clean_end = true,
                _ => misplaced = true,
            },
        );
        let last = i + 1 == segments.len();
        match anomaly {
            Anomaly::None => {}
            Anomaly::Torn(_) if last => torn_tail = true,
            // Killed between creating the last segment and writing its
            // header out: a torn tail too.
            Anomaly::Corrupt(0) if last && segment_header(*seq).starts_with(&data) => {
                torn_tail = true;
            }
            Anomaly::Torn(at) | Anomaly::Corrupt(at) => {
                return Err(bad(&format!("segment {seq} is corrupt at byte {at}")));
            }
        }
    }
    match open {
        Some((node, incarnation)) if !misplaced => Ok(TraceInfo {
            node,
            incarnation,
            clean_end,
            torn_tail,
        }),
        Some(_) => Err(bad("a record before the open or after the close record")),
        None => Err(bad("no open record")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    /// One of every variant, the view twice (with and without members).
    fn samples() -> Vec<Observation> {
        let conn = ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(2, 20));
        let g = GroupId(1);
        vec![
            Observation::Delivered {
                group: g,
                conn,
                request: RequestNum(42),
                source: ProcessorId(3),
                seq: SeqNum(7),
                ts: Timestamp(99),
            },
            Observation::ViewInstalled {
                group: g,
                members: vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)],
                ts: Timestamp(5),
            },
            Observation::ViewInstalled {
                group: g,
                members: vec![],
                ts: Timestamp(6),
            },
            Observation::Sent {
                group: g,
                seq: SeqNum(8),
                ts: Timestamp(100),
            },
            Observation::Acked {
                group: g,
                member: ProcessorId(2),
                ts: Timestamp(90),
            },
            Observation::Retained {
                group: g,
                source: ProcessorId(2),
                seq: SeqNum(4),
                ts: Timestamp(88),
            },
            Observation::Reclaimed {
                group: g,
                stable_ts: Timestamp(80),
                count: 12,
            },
            Observation::Suspected {
                group: g,
                suspect: ProcessorId(9),
            },
            Observation::Convicted {
                group: GroupId(u32::MAX),
                convicted: ProcessorId(9),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_and_a_short_or_long_payload_is_corrupt() {
        for (i, obs) in samples().into_iter().enumerate() {
            let at = u64::MAX - i as u64;
            let mut payload = Vec::new();
            encode_observed(at, &obs, &mut payload);
            let back = TraceRecord::Observed(at, obs.clone());
            assert_eq!(decode_payload(&payload), Some(back), "{obs:?}");
            for cut in 0..payload.len() {
                assert_eq!(
                    decode_payload(&payload[..cut]),
                    None,
                    "{obs:?} cut at {cut}"
                );
            }
            payload.push(0);
            assert_eq!(decode_payload(&payload), None, "{obs:?} with a byte over");
        }
    }

    #[test]
    fn a_written_trace_reads_back_without_being_touched() {
        let dir = scratch_dir("trace-rw").join("node-7.trc");
        let mut w = TraceWriter::create(&dir, 7, 1).unwrap();
        for (at, obs) in samples().iter().enumerate() {
            w.record(at as u64, obs).unwrap();
        }
        w.flush().unwrap();
        let segment = list_segments(&dir).unwrap()[0].1.clone();
        let open_bytes = fs::read(&segment).unwrap();
        let mut seen = Vec::new();
        let info = read(&dir, |at, obs| seen.push((at, obs))).unwrap();
        assert_eq!(
            info,
            TraceInfo {
                node: ProcessorId(7),
                incarnation: 1,
                clean_end: false,
                torn_tail: false,
            }
        );
        let want: Vec<_> = samples()
            .into_iter()
            .enumerate()
            .map(|(at, obs)| (at as u64, obs))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(fs::read(&segment).unwrap(), open_bytes, "reading wrote");
        assert_eq!(w.finish(99).unwrap(), dir);
        assert!(read(&dir, |_, _| {}).unwrap().clean_end);
        // A second trace at the same place replaces the first.
        let w = TraceWriter::create(&dir, 7, 2).unwrap();
        let info = read(&dir, |_, _| panic!("an old record")).unwrap();
        assert_eq!((info.incarnation, info.clean_end), (2, false));
        drop(w);
        fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }
}
