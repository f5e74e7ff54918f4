//! Per-connection message log (§4): a checkpoint plus a bounded suffix.
//!
//! The paper uses the `(connection id, request number)` pair "to match a
//! request with its corresponding reply which is necessary, for example,
//! when replaying messages from a log", and §7.2 activates new replicas
//! after a fault. This log serves both, in bounded memory, the way LLFT
//! bounds its own: per connection it holds the last [`Checkpoint`] — a
//! position in the total order, the hosted servant's state and the
//! `executed` detector there — and the entries delivered after it. Every
//! [`CHECKPOINT_ENTRIES`] appends the owning [`crate::OrbEndpoint`] records
//! a new checkpoint and the entries it covers go, except replies a client
//! replica has not yet issued (the early-reply rule of DESIGN.md §11 reads
//! those). A donor answers a replica's replay point with a [`Transfer`]:
//! the delta past the point, or its checkpoint and the delta past that.
//!
//! The frontier is the endpoint's own, not the group's stability point: a
//! recovering replica's replay point (a donor snapshot's timestamp, an
//! excluded member's persisted horizon) sits below the stability frontier
//! by construction, and a checkpoint is what stands in for what it misses.

use crate::dup::DuplicateDetector;
use bytes::Bytes;
use ftmp_core::{ConnectionId, ProcessorId, RequestNum, Timestamp};
use std::collections::BTreeMap;

/// Appends on one connection between two checkpoints. Counted in appends,
/// not in length: a log that keeps entries across a checkpoint (an early
/// reply, a warm-passive backup's suffix) must not checkpoint again at
/// every delivery.
pub const CHECKPOINT_ENTRIES: usize = 1024;

/// Direction of a logged message, from the connection's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// Client group → server group.
    Request,
    /// Server group → client group.
    Reply,
}

/// One logged delivery.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Request number on the connection.
    pub request_num: RequestNum,
    /// Request or reply.
    pub kind: LogKind,
    /// Originating processor.
    pub source: ProcessorId,
    /// Total-order timestamp at which it was delivered.
    pub ts: Timestamp,
    /// The GIOP bytes.
    pub giop: Bytes,
}

impl LogEntry {
    /// Classify raw delivered GIOP bytes into a replayable entry — the
    /// bridge from a durable delivered-message record (`ftmp-store`) back
    /// into the in-memory replay log after a restart. Returns `None` for
    /// messages with no replay semantics (Locate traffic, cancels, closes,
    /// undecodable bytes).
    pub fn classify(
        request_num: RequestNum,
        source: ProcessorId,
        ts: Timestamp,
        giop: Bytes,
    ) -> Option<Self> {
        use crate::giop_map::{parse, Inbound};
        let kind = match parse(&giop).ok()? {
            Inbound::Request { .. } => LogKind::Request,
            Inbound::Reply { .. } | Inbound::ExceptionReply { .. } => LogKind::Reply,
            _ => return None,
        };
        Some(LogEntry {
            request_num,
            kind,
            source,
            ts,
            giop,
        })
    }

    /// Its position in the total order, which is by `(timestamp, source)`.
    pub fn at(&self) -> (Timestamp, ProcessorId) {
        (self.ts, self.source)
    }
}

/// What a connection's log prefix amounts to: a position and the state a
/// replica has there.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Timestamp of the last delivery it covers (a replay point).
    pub ts: Timestamp,
    /// Source of that delivery: total order is by `(ts, source)`, so this
    /// is what places the checkpoint between two equal timestamps.
    pub source: ProcessorId,
    /// The hosted servant's `snapshot()` there, when the endpoint hosts the
    /// connection's server group.
    pub state: Option<Vec<u8>>,
    /// The connection's `executed` detector there (watermark and residue;
    /// counters zero): which request numbers the state already reflects.
    pub executed: DuplicateDetector,
}

impl Checkpoint {
    /// Its position in the total order.
    pub fn at(&self) -> (Timestamp, ProcessorId) {
        (self.ts, self.source)
    }
}

/// A donor's answer to a replay point ([`MessageLog::transfer`]), and what
/// [`crate::OrbEndpoint::activate_replica`] consumes: a checkpoint to
/// restore, if any, then entries to replay in order.
#[derive(Debug, Clone, Default)]
pub struct Transfer {
    /// Present when the replay point is below the donor's checkpoint.
    pub checkpoint: Option<Checkpoint>,
    /// Entries past the point (or past the checkpoint), in delivery order.
    pub entries: Vec<LogEntry>,
}

impl From<Checkpoint> for Transfer {
    /// Start from a snapshot: a checkpoint and nothing to replay.
    fn from(cp: Checkpoint) -> Self {
        Transfer {
            checkpoint: Some(cp),
            entries: Vec::new(),
        }
    }
}

impl From<Vec<LogEntry>> for Transfer {
    /// Replay a recovered history from the start (a durable restart).
    fn from(entries: Vec<LogEntry>) -> Self {
        Transfer {
            checkpoint: None,
            entries,
        }
    }
}

/// One connection's log.
#[derive(Debug, Default)]
struct ConnLog {
    checkpoint: Option<Checkpoint>,
    /// Entries after the checkpoint, plus the unissued replies kept from
    /// below it, in delivery order.
    entries: Vec<LogEntry>,
    /// Appends since the checkpoint.
    appends: usize,
}

/// The per-connection logs of one endpoint.
#[derive(Debug, Default)]
pub struct MessageLog {
    conns: BTreeMap<ConnectionId, ConnLog>,
    /// Entries and GIOP bytes held now.
    held: (usize, usize),
    /// The most of each ever held at once.
    peak: (usize, usize),
    checkpoints: u64,
}

impl MessageLog {
    /// Append a delivery.
    pub fn append(&mut self, conn: ConnectionId, entry: LogEntry) {
        self.held.0 += 1;
        self.held.1 += entry.giop.len();
        self.peak = (self.peak.0.max(self.held.0), self.peak.1.max(self.held.1));
        let log = self.conns.entry(conn).or_default();
        log.entries.push(entry);
        log.appends += 1;
    }

    /// Is a checkpoint due on `conn` ([`CHECKPOINT_ENTRIES`] appends since
    /// the last)?
    pub fn due(&self, conn: ConnectionId) -> bool {
        self.conns
            .get(&conn)
            .is_some_and(|l| l.appends >= CHECKPOINT_ENTRIES)
    }

    /// Install `cp` as `conn`'s checkpoint and drop what it covers, except
    /// the entries `keep` names (the unissued replies of a client replica).
    pub fn record_checkpoint(
        &mut self,
        conn: ConnectionId,
        cp: Checkpoint,
        keep: impl Fn(&LogEntry) -> bool,
    ) {
        let log = self.conns.entry(conn).or_default();
        let held = &mut self.held;
        log.entries.retain(|e| {
            let kept = e.at() > cp.at() || keep(e);
            if !kept {
                held.0 -= 1;
                held.1 -= e.giop.len();
            }
            kept
        });
        log.checkpoint = Some(cp);
        log.appends = 0;
        self.checkpoints += 1;
    }

    /// `conn`'s checkpoint, once one was recorded.
    pub fn checkpoint(&self, conn: ConnectionId) -> Option<&Checkpoint> {
        self.conns.get(&conn)?.checkpoint.as_ref()
    }

    /// The position of the last delivery logged on `conn`, or of its
    /// checkpoint when nothing was logged since.
    pub fn tip(&self, conn: ConnectionId) -> Option<(Timestamp, ProcessorId)> {
        let log = self.conns.get(&conn)?;
        log.entries
            .last()
            .map(LogEntry::at)
            .or_else(|| log.checkpoint.as_ref().map(Checkpoint::at))
    }

    /// The entries held for a connection, in delivery order.
    pub fn entries(&self, conn: ConnectionId) -> &[LogEntry] {
        self.conns.get(&conn).map_or(&[], |l| l.entries.as_slice())
    }

    /// Match a request with its reply: the reply logged for the same
    /// `(connection, request number)`. Scans from the tail — the caller at
    /// run time is an invocation whose reply has just overtaken it (server
    /// replicas' copies of one reply are identical, so which copy is found
    /// does not matter).
    pub fn reply_for(&self, conn: ConnectionId, num: RequestNum) -> Option<&LogEntry> {
        self.entries(conn)
            .iter()
            .rfind(|e| e.kind == LogKind::Reply && e.request_num == num)
    }

    /// The request entry for a number.
    pub fn request_for(&self, conn: ConnectionId, num: RequestNum) -> Option<&LogEntry> {
        self.entries(conn)
            .iter()
            .find(|e| e.kind == LogKind::Request && e.request_num == num)
    }

    /// A donor's answer to a replica that has `conn`'s history up to
    /// `after`: the entries delivered after it when `after` is at or above
    /// the checkpoint; otherwise the checkpoint and the entries after that.
    pub fn transfer(&self, conn: ConnectionId, after: Timestamp) -> Transfer {
        let Some(log) = self.conns.get(&conn) else {
            return Transfer::default();
        };
        let cp = log.checkpoint.as_ref().filter(|cp| after < cp.ts);
        let entries = log.entries.iter().filter(|e| match cp {
            Some(cp) => e.at() > cp.at(),
            None => e.ts > after,
        });
        Transfer {
            checkpoint: cp.cloned(),
            entries: entries.cloned().collect(),
        }
    }

    /// Entries held across connections.
    pub fn len(&self) -> usize {
        self.held.0
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most entries and GIOP bytes held at once so far.
    pub fn peak(&self) -> (usize, usize) {
        self.peak
    }

    /// Checkpoints recorded so far, across connections.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_core::ObjectGroupId;

    fn conn() -> ConnectionId {
        ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
    }

    fn entry(num: u64, kind: LogKind, ts: u64) -> LogEntry {
        LogEntry {
            request_num: RequestNum(num),
            kind,
            source: ProcessorId(1),
            ts: Timestamp(ts),
            giop: Bytes::from_static(b"g"),
        }
    }

    fn checkpoint(ts: u64) -> Checkpoint {
        Checkpoint {
            ts: Timestamp(ts),
            source: ProcessorId(1),
            state: Some(vec![ts as u8]),
            executed: DuplicateDetector::default(),
        }
    }

    fn nums(entries: &[LogEntry]) -> Vec<u64> {
        entries.iter().map(|e| e.request_num.0).collect()
    }

    #[test]
    fn request_reply_matching() {
        let mut log = MessageLog::default();
        log.append(conn(), entry(1, LogKind::Request, 10));
        log.append(conn(), entry(2, LogKind::Request, 11));
        log.append(conn(), entry(1, LogKind::Reply, 12));
        let r = log.reply_for(conn(), RequestNum(1)).unwrap();
        assert_eq!(r.ts, Timestamp(12));
        assert!(log.reply_for(conn(), RequestNum(2)).is_none());
        assert_eq!(
            log.request_for(conn(), RequestNum(2)).unwrap().ts,
            Timestamp(11)
        );
    }

    #[test]
    fn append_reports_a_due_checkpoint_by_count() {
        let mut log = MessageLog::default();
        for i in 1..CHECKPOINT_ENTRIES as u64 {
            log.append(conn(), entry(i, LogKind::Request, i));
            assert!(!log.due(conn()));
        }
        log.append(conn(), entry(0, LogKind::Request, 5_000));
        assert!(log.due(conn()));
        // Keeping every entry across the checkpoint does not make the next
        // append due again: the trigger counts appends, not length.
        log.record_checkpoint(conn(), checkpoint(5_000), |_| true);
        assert_eq!(log.len(), CHECKPOINT_ENTRIES);
        log.append(conn(), entry(0, LogKind::Request, 5_001));
        assert!(!log.due(conn()));
        assert_eq!(log.checkpoints(), 1);
    }

    #[test]
    fn a_checkpoint_drops_what_it_covers_but_what_it_is_told_to_keep() {
        let mut log = MessageLog::default();
        for i in 1..=10 {
            log.append(conn(), entry(i, LogKind::Reply, i));
        }
        log.record_checkpoint(conn(), checkpoint(6), |e| e.request_num.0 == 3);
        assert_eq!(nums(log.entries(conn())), vec![3, 7, 8, 9, 10]);
        assert_eq!(log.len(), 5);
        assert_eq!(log.peak(), (10, 10));
        for i in 11..=16 {
            log.append(conn(), entry(i, LogKind::Reply, i));
        }
        assert_eq!(log.peak(), (11, 11), "entries and bytes held count down");
        assert!(log.reply_for(conn(), RequestNum(3)).is_some());
        assert!(log.reply_for(conn(), RequestNum(5)).is_none());
        assert_eq!(log.tip(conn()), Some((Timestamp(16), ProcessorId(1))));
    }

    #[test]
    fn equal_timestamps_are_ordered_by_source() {
        let mut log = MessageLog::default();
        let mut late = entry(2, LogKind::Request, 6);
        late.source = ProcessorId(2);
        log.append(conn(), entry(1, LogKind::Request, 6));
        log.append(conn(), late);
        log.record_checkpoint(conn(), checkpoint(6), |_| false);
        assert_eq!(
            nums(log.entries(conn())),
            vec![2],
            "(6, P2) is after (6, P1)"
        );
        assert_eq!(nums(&log.transfer(conn(), Timestamp(5)).entries), vec![2]);
    }

    #[test]
    fn a_donor_answers_with_the_delta_or_with_its_checkpoint() {
        let mut log = MessageLog::default();
        for i in 1..=5 {
            log.append(conn(), entry(i, LogKind::Request, i * 10));
        }
        // No checkpoint yet: the delta past the point.
        let t = log.transfer(conn(), Timestamp(20));
        assert!(t.checkpoint.is_none());
        assert_eq!(nums(&t.entries), vec![3, 4, 5]);

        log.record_checkpoint(conn(), checkpoint(30), |e| e.request_num.0 == 2);
        log.append(conn(), entry(6, LogKind::Request, 60));
        // At or above the checkpoint: still the delta.
        for (after, want) in [(30, vec![4, 5, 6]), (45, vec![5, 6])] {
            let t = log.transfer(conn(), Timestamp(after));
            assert!(t.checkpoint.is_none(), "{after}");
            assert_eq!(nums(&t.entries), want, "{after}");
        }
        // Below it: the checkpoint and what follows it — never an entry
        // kept from below it.
        let t = log.transfer(conn(), Timestamp(15));
        assert_eq!(t.checkpoint.map(|cp| cp.ts), Some(Timestamp(30)));
        assert_eq!(nums(&t.entries), vec![4, 5, 6]);
    }

    #[test]
    fn empty_log_behaviour() {
        let log = MessageLog::default();
        assert!(log.is_empty());
        assert!(log.entries(conn()).is_empty());
        assert!(log.reply_for(conn(), RequestNum(1)).is_none());
        assert!(log.tip(conn()).is_none());
        let t = log.transfer(conn(), Timestamp(0));
        assert!(t.checkpoint.is_none() && t.entries.is_empty());
    }
}
