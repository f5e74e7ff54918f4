//! Per-connection message log (§4).
//!
//! The paper uses the `(connection id, request number)` pair "to match a
//! request with its corresponding reply which is necessary, for example,
//! when replaying messages from a log". This log records the ordered
//! delivery stream per connection and answers exactly that query, plus
//! replay iteration for recovering replicas.

use bytes::Bytes;
use ftmp_core::{ConnectionId, ProcessorId, RequestNum, Timestamp};
use std::collections::BTreeMap;

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
}

/// An append-only, per-connection log of ordered deliveries.
#[derive(Debug, Default)]
pub struct MessageLog {
    conns: BTreeMap<ConnectionId, Vec<LogEntry>>,
}

impl MessageLog {
    /// Append a delivery.
    pub fn append(&mut self, conn: ConnectionId, entry: LogEntry) {
        self.conns.entry(conn).or_default().push(entry);
    }

    /// All entries for a connection, in delivery order.
    pub fn entries(&self, conn: ConnectionId) -> &[LogEntry] {
        self.conns.get(&conn).map_or(&[], |v| v.as_slice())
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

    /// Replay every logged entry for `conn` delivered after `after` — used
    /// to bring a recovering replica forward from a snapshot point.
    pub fn replay_after(
        &self,
        conn: ConnectionId,
        after: Timestamp,
    ) -> impl Iterator<Item = &LogEntry> {
        self.entries(conn).iter().filter(move |e| e.ts > after)
    }

    /// Total entries across connections.
    pub fn len(&self) -> usize {
        self.conns.values().map(Vec::len).sum()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trim entries older than `before` for bounded storage (the ordered
    /// prefix they represent is captured by application snapshots).
    pub fn trim_before(&mut self, conn: ConnectionId, before: Timestamp) -> usize {
        let Some(v) = self.conns.get_mut(&conn) else {
            return 0;
        };
        let n0 = v.len();
        v.retain(|e| e.ts >= before);
        n0 - v.len()
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
    fn replay_after_point() {
        let mut log = MessageLog::default();
        for i in 1..=5 {
            log.append(conn(), entry(i, LogKind::Request, i * 10));
        }
        let replayed: Vec<u64> = log
            .replay_after(conn(), Timestamp(20))
            .map(|e| e.request_num.0)
            .collect();
        assert_eq!(replayed, vec![3, 4, 5]);
    }

    #[test]
    fn trim_bounds_storage() {
        let mut log = MessageLog::default();
        for i in 1..=10 {
            log.append(conn(), entry(i, LogKind::Reply, i));
        }
        assert_eq!(log.len(), 10);
        let trimmed = log.trim_before(conn(), Timestamp(6));
        assert_eq!(trimmed, 5);
        assert_eq!(log.len(), 5);
        assert!(log.reply_for(conn(), RequestNum(3)).is_none());
        assert!(log.reply_for(conn(), RequestNum(7)).is_some());
    }

    #[test]
    fn empty_log_behaviour() {
        let log = MessageLog::default();
        assert!(log.is_empty());
        assert!(log.entries(conn()).is_empty());
        assert!(log.reply_for(conn(), RequestNum(1)).is_none());
    }
}
