//! One processor's ORB: active replication over FTMP deliveries.

use crate::conn::Connection;
use crate::giop_map::{self, Inbound};
use crate::log::{Checkpoint, LogEntry, LogKind, MessageLog, Transfer};
use crate::servant::Servant;
use bytes::Bytes;
use ftmp_core::{ConnectionId, Delivery, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_giop::{FragmentAssembler, Fragmenter};
use ftmp_telemetry::Registry;
use std::collections::{BTreeMap, VecDeque};

/// A GIOP message the endpoint wants multicast on a connection; the host
/// forwards it to [`ftmp_core::Processor::multicast_request`].
#[derive(Debug, Clone)]
pub struct OutboundMsg {
    /// The connection to send on.
    pub conn: ConnectionId,
    /// The request number (same for the request and its reply).
    pub request_num: RequestNum,
    /// Encoded GIOP message.
    pub giop: Bytes,
}

/// The outcome of an invocation, surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvocationResult {
    /// The operation returned normally (CDR-encoded result).
    Ok(Vec<u8>),
    /// The operation raised an exception (repository id).
    Exception(String),
    /// A LocateRequest was answered.
    Located {
        /// True when the server group serves the object.
        here: bool,
    },
}

impl InvocationResult {
    /// The outcome a reply-class message carries; `None` for the rest.
    fn of_reply(msg: Inbound) -> Option<Self> {
        match msg {
            Inbound::Reply { result } => Some(InvocationResult::Ok(result)),
            Inbound::ExceptionReply { repo_id } => Some(InvocationResult::Exception(repo_id)),
            Inbound::LocateReply { status } => Some(InvocationResult::Located {
                here: status == ftmp_giop::LocateStatus::ObjectHere,
            }),
            _ => None,
        }
    }
}

/// A completed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The connection the invocation ran on.
    pub conn: ConnectionId,
    /// Its request number.
    pub request_num: RequestNum,
    /// The outcome.
    pub result: InvocationResult,
}

/// One processor's ORB endpoint.
///
/// Hosts zero or more servant replicas (server role) and issues invocations
/// on behalf of local replicas of client object groups (client role). All
/// replicas of a client group allocate identical request numbers because
/// they run the same deterministic application against the same ordered
/// delivery stream (§4: "all of the client replicas use the same request
/// number for a given request").
pub struct OrbEndpoint {
    pub(crate) servants: BTreeMap<ObjectGroupId, Box<dyn Servant>>,
    /// Object keys by which each hosted servant is addressed.
    object_keys: BTreeMap<Vec<u8>, ObjectGroupId>,
    /// All per-connection state — duplicate suppression, request numbering,
    /// request/reply matching, cancellation/close marks, the client role and
    /// latency histograms — one struct per connection. CancelRequests and
    /// CloseConnections ride the same total order as Requests, so every
    /// replica applies them at the same position.
    pub(crate) conns: BTreeMap<ConnectionId, Connection>,
    /// The delivery log (replay, request/reply matching): per connection, a
    /// checkpoint and what was delivered since.
    pub log: MessageLog,
    outbound: VecDeque<OutboundMsg>,
    completions: VecDeque<Completion>,
    /// When set, outbound GIOP messages larger than this are split into
    /// GIOP 1.1 fragments, each travelling as its own FTMP Regular message.
    fragmenter: Option<Fragmenter>,
    /// Reassembly of inbound fragments, keyed per (connection, sender) —
    /// FTMP's source order guarantees one in-flight message per key.
    assembler: FragmentAssembler<(ConnectionId, ProcessorId)>,
    /// Warm-passive replication state per hosted object group (absent =
    /// active replication, the paper's model).
    pub(crate) passive: BTreeMap<ObjectGroupId, crate::passive::PassiveState>,
}

impl Default for OrbEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl OrbEndpoint {
    /// An empty endpoint.
    pub fn new() -> Self {
        OrbEndpoint {
            servants: BTreeMap::new(),
            object_keys: BTreeMap::new(),
            conns: BTreeMap::new(),
            log: MessageLog::default(),
            outbound: VecDeque::new(),
            completions: VecDeque::new(),
            fragmenter: None,
            assembler: FragmentAssembler::new(16 << 20),
            passive: BTreeMap::new(),
        }
    }

    /// Enable GIOP fragmentation for outbound messages larger than
    /// `max_datagram` bytes (§3.1 lists Fragment among the message types
    /// FTMP carries; each fragment rides its own Regular message and the
    /// total order keeps per-sender fragments contiguous-in-source).
    pub fn enable_fragmentation(&mut self, max_datagram: usize) {
        self.fragmenter = Some(Fragmenter::new(max_datagram));
    }

    /// Host a servant replica for `og`, addressable by `object_key`.
    pub fn host_replica(
        &mut self,
        og: ObjectGroupId,
        object_key: impl Into<Vec<u8>>,
        servant: Box<dyn Servant>,
    ) {
        self.servants.insert(og, servant);
        self.object_keys.insert(object_key.into(), og);
    }

    /// Declare this endpoint a client on `conn`.
    pub fn register_client(&mut self, conn: ConnectionId) {
        self.conn_mut(conn).client = true;
    }

    /// This endpoint's state for `conn`, created at first use.
    pub(crate) fn conn_mut(&mut self, conn: ConnectionId) -> &mut Connection {
        self.conns.entry(conn).or_default()
    }

    /// Access a hosted servant (state inspection in tests and examples).
    pub fn servant(&self, og: ObjectGroupId) -> Option<&dyn Servant> {
        self.servants.get(&og).map(|b| b.as_ref())
    }

    /// Duplicate-suppression counters: (requests suppressed, replies
    /// suppressed) — experiment E7.
    pub fn suppression_counts(&self) -> (u64, u64) {
        self.conns.values().fold((0, 0), |(rq, rp), c| {
            (rq + c.executed.suppressed, rp + c.replied.suppressed)
        })
    }

    /// Duplicate-detector residue numbers folded into watermarks to stay
    /// within the per-connection memory bound (0 until a connection's
    /// sparse residue overflows [`crate::dup::DEFAULT_RESIDUE_CAP`]).
    pub fn dup_evictions(&self) -> u64 {
        self.conns
            .values()
            .map(|c| c.executed.evictions + c.replied.evictions)
            .sum()
    }

    /// Fold the duplicate-suppression counters and the log's size into a
    /// telemetry registry (the `FTMP_METRICS_DIR` snapshot path). Counters
    /// add and gauges rise, so feed a fresh or merge-target registry.
    /// `orb_log_entries` and `orb_log_bytes` (GIOP bytes) are the most the
    /// log has held at once, so two readings bracket everything between.
    pub fn register_metrics(&self, reg: &mut Registry) {
        let (req, rep) = self.suppression_counts();
        for (name, value) in [
            ("orb_requests_suppressed", req),
            ("orb_replies_suppressed", rep),
            ("orb_dup_evictions", self.dup_evictions()),
            ("orb_log_checkpoints", self.log.checkpoints()),
        ] {
            let id = reg.counter(name);
            reg.inc(id, value);
        }
        let (entries, bytes) = self.log.peak();
        for (name, peak) in [("orb_log_entries", entries), ("orb_log_bytes", bytes)] {
            let id = reg.gauge(name);
            reg.raise(id, peak as i64);
        }
    }

    /// Durable-recovery warm start: re-mark recovered request numbers as
    /// executed on `conn` (server side). The §4 watermark and sparse
    /// residue re-derive by replaying the numbers through the detector's
    /// own fold — there is no second fold implementation to drift. Returns
    /// how many were fresh (a recovered log holds no duplicates, so
    /// normally all of them).
    pub fn warm_start_executed(
        &mut self,
        conn: ConnectionId,
        nums: impl IntoIterator<Item = RequestNum>,
    ) -> u64 {
        let executed = &mut self.conn_mut(conn).executed;
        nums.into_iter()
            .map(|n| u64::from(executed.first_sighting(n)))
            .sum()
    }

    /// Outstanding invocations.
    pub fn pending_count(&self) -> usize {
        self.conns.values().map(|c| c.pending.len()).sum()
    }

    /// Start an invocation on `conn` against the object named `object_key`.
    /// Returns the request number identifying the eventual [`Completion`].
    pub fn invoke(
        &mut self,
        conn: ConnectionId,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
    ) -> RequestNum {
        self.issue(conn, |num| {
            giop_map::make_request(num, object_key, operation, args, true)
        })
    }

    /// Number the next invocation on `conn` and multicast `make(num)` for
    /// it — unless its reply is here already. A client replica that takes a
    /// burst of ordered deliveries meets reply *N*, produced for a sibling
    /// replica's copy of request *N*, before it has issued *N* itself; the
    /// reply is matched on the connection whichever replica's copy produced
    /// it, so the invocation completes at once from the log (§4: "to match
    /// a request with its corresponding reply … when replaying messages
    /// from a log"). Its own copy of the request is not sent: the total
    /// order that delivered the reply delivered the request before it.
    fn issue(
        &mut self,
        conn: ConnectionId,
        make: impl FnOnce(RequestNum) -> Vec<u8>,
    ) -> RequestNum {
        let c = self.conn_mut(conn);
        let num = c.alloc_request();
        if c.replied.seen(num) {
            if let Some(result) = self.logged_result(conn, num) {
                self.completions.push_back(Completion {
                    conn,
                    request_num: num,
                    result,
                });
                return num;
            }
        }
        self.conn_mut(conn).pending.insert(num);
        self.push_outbound(conn, num, make(num));
        num
    }

    /// The outcome carried by the reply logged for `(conn, num)`.
    fn logged_result(&self, conn: ConnectionId, num: RequestNum) -> Option<InvocationResult> {
        let reply = self.log.reply_for(conn, num)?;
        InvocationResult::of_reply(giop_map::parse(&reply.giop).ok()?)
    }

    /// The state a replica of `conn.server` is activated from, as this
    /// endpoint has it for `conn`: the position of the last logged delivery,
    /// the hosted servant's snapshot there and the `executed` detector —
    /// or, at a warm-passive backup, the position of the last state update
    /// it applied, the only one its servant's state matches. What the log
    /// records every [`CHECKPOINT_ENTRIES`] appends, and the snapshot a
    /// replacement can start from.
    ///
    /// [`CHECKPOINT_ENTRIES`]: crate::log::CHECKPOINT_ENTRIES
    pub fn checkpoint(&self, conn: ConnectionId) -> Checkpoint {
        let (ts, source) = self
            .backup_point(conn.server)
            .or_else(|| self.log.tip(conn))
            .unwrap_or_default();
        Checkpoint {
            ts,
            source,
            state: self.servants.get(&conn.server).map(|s| s.snapshot()),
            executed: self
                .conns
                .get(&conn)
                .map(|c| c.executed.seen_copy())
                .unwrap_or_default(),
        }
    }

    /// Record a checkpoint on `conn` if one is due, keeping only the
    /// replies a client replica has not yet issued from below it.
    fn checkpoint_if_due(&mut self, conn: ConnectionId) {
        if !self.log.due(conn) {
            return;
        }
        let cp = self.checkpoint(conn);
        let client = self.conns.get(&conn).filter(|c| c.client);
        self.log.record_checkpoint(conn, cp, |e| {
            e.kind == LogKind::Reply && client.is_some_and(|c| !c.issued(e.request_num))
        });
    }

    /// Activate a new or backup replica (§7.2: after a fault report "the
    /// fault tolerance infrastructure … activates new or backup replicas
    /// for the object groups"), and the one way to do it. Each transfer is
    /// applied in order: its checkpoint, if any, restores the servant's
    /// state and the `executed` detector (so a late copy of a request the
    /// state already reflects is suppressed, as at the donors) and becomes
    /// this log's checkpoint; its entries replay through the exactly-once
    /// gate (§4's log replay) — requests execute, replies warm the reply
    /// detector, nothing is answered (the donors answered the originals) —
    /// and are logged, so this replica can itself donate later.
    ///
    /// The snapshot form passes a donor's [`checkpoint`] taken earlier and
    /// the donor's [`MessageLog::transfer`] from its timestamp; a durable
    /// restart (DESIGN.md §12) passes its own recovered entries and the
    /// donor's transfer from its persisted horizon. Overlap between two
    /// transfers is harmless: a request present in both executes once.
    ///
    /// [`checkpoint`]: OrbEndpoint::checkpoint
    pub fn activate_replica(
        &mut self,
        og: ObjectGroupId,
        object_key: impl Into<Vec<u8>>,
        servant: Box<dyn Servant>,
        conn: ConnectionId,
        transfers: impl IntoIterator<Item = Transfer>,
    ) {
        self.host_replica(og, object_key, servant);
        for t in transfers {
            if let Some(cp) = t.checkpoint {
                if let (Some(state), Some(s)) = (&cp.state, self.servants.get_mut(&og)) {
                    s.restore(state);
                }
                self.conn_mut(conn).executed.adopt(&cp.executed);
                self.log.record_checkpoint(conn, cp, |_| false);
            }
            for e in t.entries {
                self.replay(og, conn, e);
                self.checkpoint_if_due(conn);
            }
        }
    }

    /// One step of §4's log replay: run a logged request against `og`'s
    /// servant unless `conn` has executed its number already, or mark a
    /// logged reply consumed; log the entry if it was fresh.
    fn replay(&mut self, og: ObjectGroupId, conn: ConnectionId, e: LogEntry) {
        let c = self.conn_mut(conn);
        let fresh = match e.kind {
            LogKind::Request => c.executed.first_sighting(e.request_num),
            LogKind::Reply => c.replied.first_sighting(e.request_num),
        };
        if !fresh {
            return;
        }
        if let (
            Ok(Inbound::Request {
                operation, args, ..
            }),
            Some(servant),
        ) = (giop_map::parse(&e.giop), self.servants.get_mut(&og))
        {
            let _ = servant.invoke(&operation, &args);
        }
        self.log.append(conn, e);
    }

    /// Issue a LocateRequest for `object_key` (CORBA's "where does this
    /// object live?"); completes with [`InvocationResult::Located`].
    pub fn locate(&mut self, conn: ConnectionId, object_key: &[u8]) -> RequestNum {
        self.issue(conn, |num| giop_map::make_locate_request(num, object_key))
    }

    /// Initiate an orderly shutdown of `conn` (GIOP CloseConnection). The
    /// close is totally ordered like everything else: requests ordered
    /// before it are served everywhere, requests ordered after it are
    /// dropped everywhere.
    pub fn close(&mut self, conn: ConnectionId) {
        let num = self.conn_mut(conn).alloc_request();
        self.push_outbound(conn, num, giop_map::make_close());
    }

    /// Has an ordered CloseConnection been delivered for `conn`?
    pub fn is_closed(&self, conn: ConnectionId) -> bool {
        self.conns.get(&conn).is_some_and(|c| c.closed)
    }

    /// Cancel an outstanding request. The CancelRequest travels in the same
    /// total order as the Request itself, so either every server replica
    /// sees the cancel first (nobody executes) or none does (everybody
    /// executes) — never a split.
    pub fn cancel(&mut self, conn: ConnectionId, num: RequestNum) {
        self.conn_mut(conn).retire(num);
        let giop = giop_map::make_cancel(num);
        self.push_outbound(conn, num, giop);
    }

    /// Reverse lookup: the object key a hosted group is addressed by.
    pub(crate) fn object_key_of(&self, og: ObjectGroupId) -> Option<Vec<u8>> {
        self.object_keys
            .iter()
            .find(|(_, o)| **o == og)
            .map(|(k, _)| k.clone())
    }

    /// Queue a GIOP message for multicast, fragmenting when enabled and
    /// needed.
    pub(crate) fn push_outbound(&mut self, conn: ConnectionId, num: RequestNum, giop: Vec<u8>) {
        if let Some(f) = &self.fragmenter {
            if giop.len() > f.max_datagram() {
                let parts = f.split(&giop).expect("encoded GIOP always splits");
                for p in parts {
                    self.outbound.push_back(OutboundMsg {
                        conn,
                        request_num: num,
                        giop: Bytes::from(p),
                    });
                }
                return;
            }
        }
        self.outbound.push_back(OutboundMsg {
            conn,
            request_num: num,
            giop: Bytes::from(giop),
        });
    }

    /// Feed one ordered FTMP delivery. Requests execute on hosted servants
    /// (each exactly once, however many client replicas sent them); replies
    /// complete pending invocations (each exactly once). Fragmented GIOP
    /// messages are reassembled per (connection, sender) before processing.
    /// A checkpoint that falls due is taken once the delivery has run, so
    /// its snapshot includes it.
    pub fn on_delivery(&mut self, d: &Delivery) {
        self.dispatch(d);
        self.checkpoint_if_due(d.conn);
    }

    fn dispatch(&mut self, d: &Delivery) {
        let (parsed, log_bytes) = match self.assembler.push((d.conn, d.source), &d.giop) {
            Ok(Some(msg)) => {
                // When the completing datagram was a Fragment, the replay
                // log must hold the reassembled message, not the tail piece.
                let reassembled =
                    d.giop.len() > 7 && d.giop[7] == ftmp_giop::MsgType::Fragment as u8;
                let log_bytes = if reassembled {
                    Bytes::from(msg.encode(ftmp_cdr::ByteOrder::native()))
                } else {
                    d.giop.clone()
                };
                match giop_map::reduce(msg) {
                    Ok(p) => (p, log_bytes),
                    Err(_) => return,
                }
            }
            Ok(None) => return, // more fragments to come
            Err(_) => return,   // not GIOP / orphan fragment; ignore
        };
        match parsed {
            Inbound::Request {
                object_key,
                operation,
                args,
                response_expected,
            } => {
                self.log.append(
                    d.conn,
                    LogEntry {
                        request_num: d.request_num,
                        kind: LogKind::Request,
                        source: d.source,
                        ts: d.ts,
                        giop: log_bytes,
                    },
                );
                // Deliveries reach both groups (§4); only the server group's
                // replicas execute, and only the first copy does.
                let Some(og) = self.object_keys.get(object_key.as_slice()).copied() else {
                    return;
                };
                if og != d.conn.server {
                    return;
                }
                let c = self.conn_mut(d.conn);
                if c.closed || c.cancelled.contains(&d.request_num) {
                    return; // closed or cancelled at an earlier position
                }
                if !self.passive_gate(og, &operation, &args, d, response_expected) {
                    return; // backup in a warm-passive group, or a state op
                }
                if !self.conn_mut(d.conn).executed.first_sighting(d.request_num) {
                    return;
                }
                let Some(servant) = self.servants.get_mut(&og) else {
                    return;
                };
                let reply = match servant.invoke(&operation, &args) {
                    Ok(result) => giop_map::make_reply(d.request_num, &result),
                    Err(repo_id) => giop_map::make_exception_reply(d.request_num, &repo_id),
                };
                if response_expected {
                    self.push_outbound(d.conn, d.request_num, reply);
                }
                self.ship_state(og, d.conn);
            }
            Inbound::LocateRequest { object_key } => {
                // Only the located object group's replicas answer; the
                // answering replica is deduped like a Request execution.
                let here = self
                    .object_keys
                    .get(object_key.as_slice())
                    .is_some_and(|og| *og == d.conn.server);
                if self.servants.contains_key(&d.conn.server)
                    && self.conn_mut(d.conn).executed.first_sighting(d.request_num)
                {
                    let status = if here {
                        ftmp_giop::LocateStatus::ObjectHere
                    } else {
                        ftmp_giop::LocateStatus::UnknownObject
                    };
                    let reply = giop_map::make_locate_reply(d.request_num, status);
                    self.push_outbound(d.conn, d.request_num, reply);
                }
            }
            // Deterministic: ordered like everything else.
            Inbound::CancelRequest => self.conn_mut(d.conn).cancel(d.request_num),
            Inbound::Other(ftmp_giop::MsgType::CloseConnection) => self.conn_mut(d.conn).close(),
            other => {
                if let Some(result) = InvocationResult::of_reply(other) {
                    self.complete(d, log_bytes, result);
                }
            }
        }
    }

    fn complete(&mut self, d: &Delivery, log_bytes: Bytes, result: InvocationResult) {
        self.log.append(
            d.conn,
            LogEntry {
                request_num: d.request_num,
                kind: LogKind::Reply,
                source: d.source,
                ts: d.ts,
                giop: log_bytes,
            },
        );
        let Some(c) = self.conns.get_mut(&d.conn).filter(|c| c.client) else {
            return;
        };
        if !c.replied.first_sighting(d.request_num) {
            return; // another server replica's copy of the same reply
        }
        // Not awaited: cancelled, or early — `issue` finds it in the log.
        if c.pending.remove(&d.request_num) {
            self.completions.push_back(Completion {
                conn: d.conn,
                request_num: d.request_num,
                result,
            });
        }
    }

    /// Drain GIOP messages to multicast.
    pub fn drain_outbound(&mut self) -> Vec<OutboundMsg> {
        self.outbound.drain(..).collect()
    }

    /// Drain GIOP messages to multicast into a caller-provided scratch
    /// vector (appended), so a steady-state pump allocates nothing.
    pub fn drain_outbound_into(&mut self, out: &mut Vec<OutboundMsg>) {
        out.extend(self.outbound.drain(..));
    }

    /// Drain completed invocations.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{decode_i64_result, encode_i64_arg, BankAccount};
    use ftmp_core::{GroupId, ProcessorId, SeqNum, Timestamp};

    pub(super) fn og_client() -> ObjectGroupId {
        ObjectGroupId::new(1, 1)
    }
    pub(super) fn og_server() -> ObjectGroupId {
        ObjectGroupId::new(1, 2)
    }
    pub(super) fn conn() -> ConnectionId {
        ConnectionId::new(og_client(), og_server())
    }

    pub(super) fn delivery(num: u64, source: u32, ts: u64, giop: Vec<u8>) -> Delivery {
        Delivery {
            group: GroupId(1),
            conn: conn(),
            request_num: RequestNum(num),
            source: ProcessorId(source),
            seq: SeqNum(1),
            ts: Timestamp(ts),
            giop: Bytes::from(giop),
        }
    }

    pub(super) fn server_endpoint() -> OrbEndpoint {
        let mut e = OrbEndpoint::new();
        e.host_replica(
            og_server(),
            b"bank".to_vec(),
            Box::new(BankAccount::with_balance(100)),
        );
        e
    }

    #[test]
    fn request_executes_once_despite_replica_duplicates() {
        let mut server = server_endpoint();
        let giop =
            giop_map::make_request(RequestNum(1), b"bank", "deposit", &encode_i64_arg(10), true);
        // Three client replicas multicast the same request.
        for (src, ts) in [(1, 10), (2, 10), (3, 10)] {
            server.on_delivery(&delivery(1, src, ts, giop.clone()));
        }
        let out = server.drain_outbound();
        assert_eq!(out.len(), 1, "one reply for three request copies");
        assert_eq!(server.suppression_counts().0, 2);
        // The servant ran exactly once.
        let parsed = giop_map::parse(&out[0].giop).unwrap();
        match parsed {
            Inbound::Reply { result } => assert_eq!(decode_i64_result(&result), Some(110)),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn reply_completes_invocation_once() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        let num = client.invoke(conn(), b"bank", "deposit", &encode_i64_arg(10));
        assert_eq!(num, RequestNum(1));
        assert_eq!(client.drain_outbound().len(), 1);
        assert_eq!(client.pending_count(), 1);
        let reply = giop_map::make_reply(num, &encode_i64_arg(110));
        // Two server replicas each multicast the reply.
        client.on_delivery(&delivery(1, 10, 20, reply.clone()));
        client.on_delivery(&delivery(1, 11, 21, reply));
        let done = client.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, InvocationResult::Ok(encode_i64_arg(110)));
        assert_eq!(client.pending_count(), 0);
        assert_eq!(client.suppression_counts().1, 1);
    }

    #[test]
    fn exception_reply_propagates() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        let num = client.invoke(conn(), b"bank", "withdraw", &encode_i64_arg(1_000_000));
        client.drain_outbound();
        let reply = giop_map::make_exception_reply(num, "IDL:Bank/InsufficientFunds:1.0");
        client.on_delivery(&delivery(num.0, 10, 20, reply));
        let done = client.drain_completions();
        assert_eq!(
            done[0].result,
            InvocationResult::Exception("IDL:Bank/InsufficientFunds:1.0".into())
        );
    }

    #[test]
    fn request_numbers_monotonic_per_connection() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        let a = client.invoke(conn(), b"k", "op", &[]);
        let b = client.invoke(conn(), b"k", "op", &[]);
        assert!(b > a);
    }

    #[test]
    fn requests_for_unhosted_objects_ignored() {
        let mut server = server_endpoint();
        let giop = giop_map::make_request(RequestNum(1), b"unknown", "op", &[], true);
        server.on_delivery(&delivery(1, 1, 10, giop));
        assert!(server.drain_outbound().is_empty());
    }

    #[test]
    fn client_sees_its_own_request_but_does_not_execute_it() {
        // Deliveries reach both groups (§4); a pure client must log but not
        // execute requests.
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        let giop =
            giop_map::make_request(RequestNum(1), b"bank", "deposit", &encode_i64_arg(1), true);
        client.on_delivery(&delivery(1, 1, 10, giop));
        assert!(client.drain_outbound().is_empty());
        assert_eq!(client.log.len(), 1, "logged for replay");
    }

    #[test]
    fn log_matches_request_with_reply() {
        let mut server = server_endpoint();
        let giop = giop_map::make_request(RequestNum(1), b"bank", "balance", &[], true);
        server.on_delivery(&delivery(1, 1, 10, giop));
        // The server logs the request; replies are logged where delivered.
        assert!(server.log.request_for(conn(), RequestNum(1)).is_some());
    }

    #[test]
    fn locate_request_answered_by_hosting_group() {
        let mut server = server_endpoint();
        let giop = giop_map::make_locate_request(RequestNum(5), b"bank");
        server.on_delivery(&delivery(5, 1, 10, giop));
        let out = server.drain_outbound();
        assert_eq!(out.len(), 1);
        match giop_map::parse(&out[0].giop).unwrap() {
            Inbound::LocateReply { status } => {
                assert_eq!(status, ftmp_giop::LocateStatus::ObjectHere);
            }
            other => panic!("expected locate reply, got {other:?}"),
        }
        // Unknown key: UnknownObject.
        let giop = giop_map::make_locate_request(RequestNum(6), b"nope");
        server.on_delivery(&delivery(6, 1, 11, giop));
        let out = server.drain_outbound();
        match giop_map::parse(&out[0].giop).unwrap() {
            Inbound::LocateReply { status } => {
                assert_eq!(status, ftmp_giop::LocateStatus::UnknownObject);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locate_completes_at_client() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        let num = client.locate(conn(), b"bank");
        client.drain_outbound();
        let reply = giop_map::make_locate_reply(num, ftmp_giop::LocateStatus::ObjectHere);
        client.on_delivery(&delivery(num.0, 10, 20, reply));
        let done = client.drain_completions();
        assert_eq!(done[0].result, InvocationResult::Located { here: true });
    }

    #[test]
    fn cancel_before_request_skips_execution_everywhere() {
        // Total order: the cancel is delivered before the request at every
        // replica, so no replica executes.
        let mut server = server_endpoint();
        let cancel = giop_map::make_cancel(RequestNum(1));
        let req =
            giop_map::make_request(RequestNum(1), b"bank", "deposit", &encode_i64_arg(10), true);
        server.on_delivery(&delivery(1, 1, 10, cancel));
        server.on_delivery(&delivery(1, 1, 11, req));
        assert!(
            server.drain_outbound().is_empty(),
            "cancelled request produces no reply"
        );
    }

    #[test]
    fn cancel_after_request_is_a_no_op() {
        let mut server = server_endpoint();
        let req =
            giop_map::make_request(RequestNum(1), b"bank", "deposit", &encode_i64_arg(10), true);
        let cancel = giop_map::make_cancel(RequestNum(1));
        server.on_delivery(&delivery(1, 1, 10, req));
        server.on_delivery(&delivery(1, 1, 11, cancel));
        assert_eq!(server.drain_outbound().len(), 1, "reply already produced");
    }

    #[test]
    fn fragmented_request_reassembles_and_executes_once() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        client.enable_fragmentation(256);
        // A request far larger than the datagram budget.
        let num = client.invoke(conn(), b"bank", "deposit", &vec![0u8; 2_000]);
        let parts = client.drain_outbound();
        assert!(parts.len() > 1, "request was fragmented");
        for p in &parts {
            assert!(p.giop.len() <= 256);
            assert_eq!(p.request_num, num);
        }
        // Server (also fragmentation-aware) reassembles and executes.
        let mut server = server_endpoint();
        server.enable_fragmentation(256);
        for (i, p) in parts.iter().enumerate() {
            server.on_delivery(&delivery(num.0, 1, 10 + i as u64, p.giop.to_vec()));
        }
        let out = server.drain_outbound();
        assert_eq!(out.len(), 1, "one reply after reassembly");
        // The log holds the complete reassembled request, not the tail.
        let logged = server.log.request_for(conn(), num).unwrap();
        assert!(logged.giop.len() > 2_000);
    }

    #[test]
    fn fragmented_reply_completes_invocation() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        client.enable_fragmentation(128);
        let num = client.invoke(conn(), b"bank", "balance", &[]);
        client.drain_outbound();
        // Build a big reply and fragment it manually.
        let reply = giop_map::make_reply(num, &vec![7u8; 1_000]);
        let parts = ftmp_giop::Fragmenter::new(128).split(&reply).unwrap();
        assert!(parts.len() > 1);
        for (i, p) in parts.iter().enumerate() {
            client.on_delivery(&delivery(num.0, 10, 20 + i as u64, p.clone()));
        }
        let done = client.drain_completions();
        assert_eq!(done.len(), 1);
        match &done[0].result {
            InvocationResult::Ok(b) => assert_eq!(b.len(), 1_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_replicas_produce_identical_replies() {
        let mut s1 = server_endpoint();
        let mut s2 = server_endpoint();
        for num in 1..=5u64 {
            let giop = giop_map::make_request(
                RequestNum(num),
                b"bank",
                "deposit",
                &encode_i64_arg(num as i64),
                true,
            );
            s1.on_delivery(&delivery(num, 1, num * 10, giop.clone()));
            s2.on_delivery(&delivery(num, 1, num * 10, giop));
        }
        let o1: Vec<Bytes> = s1.drain_outbound().into_iter().map(|o| o.giop).collect();
        let o2: Vec<Bytes> = s2.drain_outbound().into_iter().map(|o| o.giop).collect();
        assert_eq!(o1, o2, "active replicas emit byte-identical replies");
    }
}

#[cfg(test)]
mod close_tests {
    use super::tests::*;
    use super::*;
    use crate::giop_map;
    use crate::servant::encode_i64_arg;

    #[test]
    fn requests_after_an_ordered_close_are_dropped_everywhere() {
        let mut server = server_endpoint();
        let before =
            giop_map::make_request(RequestNum(1), b"bank", "deposit", &encode_i64_arg(5), true);
        let close = giop_map::make_close();
        let after =
            giop_map::make_request(RequestNum(3), b"bank", "deposit", &encode_i64_arg(7), true);
        server.on_delivery(&delivery(1, 1, 10, before));
        server.on_delivery(&delivery(2, 1, 11, close));
        server.on_delivery(&delivery(3, 1, 12, after));
        let out = server.drain_outbound();
        assert_eq!(out.len(), 1, "only the pre-close request was served");
        assert!(server.is_closed(conn()));
    }

    #[test]
    fn close_clears_pending_invocations_at_clients() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        client.invoke(conn(), b"bank", "balance", &[]);
        client.drain_outbound();
        assert_eq!(client.pending_count(), 1);
        let close = giop_map::make_close();
        client.on_delivery(&delivery(2, 10, 20, close));
        assert_eq!(client.pending_count(), 0, "orphaned invocations cleared");
        assert!(client.is_closed(conn()));
    }

    #[test]
    fn close_api_emits_a_close_message() {
        let mut client = OrbEndpoint::new();
        client.register_client(conn());
        client.close(conn());
        let out = client.drain_outbound();
        assert_eq!(out.len(), 1);
        assert_eq!(
            giop_map::parse(&out[0].giop).unwrap(),
            crate::giop_map::Inbound::Other(ftmp_giop::MsgType::CloseConnection)
        );
    }
}
