//! One logical connection's ORB state (§4).
//!
//! The paper keys everything the ORB knows by `(connection id, request
//! number)`: duplicate suppression, request numbering, request/reply
//! matching. [`Connection`] is the connection-id half of that key made a
//! struct: [`crate::OrbEndpoint`] holds one per connection in one ordered
//! map, so every §4 decision is one look-up followed by operations keyed
//! by request number only. An endpoint has one owner thread, so there is
//! nothing to contend for and nothing to hash.

use crate::dup::DuplicateDetector;
use ftmp_core::RequestNum;
use ftmp_net::SimTime;
use ftmp_telemetry::{Histogram, HistogramSnapshot};
use std::collections::{BTreeMap, BTreeSet};

/// Bound on the invocation start times kept per connection (defensive: with
/// every exit of an invocation going through [`Connection::retire`] or
/// [`Connection::record_completion`], only a reply that never comes holds
/// one).
const LAT_PENDING_CAP: usize = 4096;

/// Everything this endpoint knows about one connection.
#[derive(Debug, Default)]
pub(crate) struct Connection {
    /// Last request number allocated here (monotonic over the connection).
    next_request: u64,
    /// Requests executed (server side) — suppresses replica duplicates.
    pub(crate) executed: DuplicateDetector,
    /// Replies consumed (client side) — suppresses replica duplicates.
    pub(crate) replied: DuplicateDetector,
    /// Invocations awaiting replies.
    pub(crate) pending: BTreeSet<RequestNum>,
    /// Requests cancelled by an ordered CancelRequest.
    pub(crate) cancelled: BTreeSet<RequestNum>,
    /// An ordered CloseConnection has been delivered.
    pub(crate) closed: bool,
    /// This endpoint acts as a client on the connection.
    pub(crate) client: bool,
    /// Invocation start times (latency telemetry; empty unless the host
    /// starts clocks).
    started: BTreeMap<RequestNum, SimTime>,
    /// Invocation-to-completion latency, allocated at the first sample.
    latency: Option<Box<Histogram>>,
}

impl Connection {
    /// Allocate the next request number (identical at every replica
    /// because allocation is driven by the same deterministic application).
    pub(crate) fn alloc_request(&mut self) -> RequestNum {
        self.next_request += 1;
        RequestNum(self.next_request)
    }

    /// The one way out for an invocation that gets no reply (shed, or
    /// cancelled): its pending mark and its start time go together. (One
    /// that is answered leaves `pending` in `OrbEndpoint::complete` and its
    /// start time in [`Connection::record_completion`].)
    pub(crate) fn retire(&mut self, num: RequestNum) {
        self.started.remove(&num);
        self.pending.remove(&num);
    }

    /// Apply an ordered CancelRequest.
    pub(crate) fn cancel(&mut self, num: RequestNum) {
        self.cancelled.insert(num);
        self.retire(num);
    }

    /// Apply an ordered CloseConnection: outstanding invocations will never
    /// complete, so all of them are retired.
    pub(crate) fn close(&mut self) {
        self.closed = true;
        self.pending.clear();
        self.started.clear();
    }

    /// Note when invocation `num` started.
    pub(crate) fn start_clock(&mut self, num: RequestNum, now: SimTime) {
        if self.started.len() < LAT_PENDING_CAP {
            self.started.insert(num, now);
        }
    }

    /// Record a completion against its start time, if one was noted.
    pub(crate) fn record_completion(&mut self, num: RequestNum, now: SimTime) {
        if let Some(t0) = self.started.remove(&num) {
            self.latency
                .get_or_insert_with(Default::default)
                .record(now.saturating_since(t0).as_micros());
        }
    }

    /// The request-latency histogram, once anything completed on a clock.
    pub(crate) fn latency_snapshot(&self) -> Option<HistogramSnapshot> {
        self.latency.as_ref().map(|h| h.snapshot())
    }

    /// Start times held (the leak tests).
    #[cfg(test)]
    pub(crate) fn clocks_running(&self) -> usize {
        self.started.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::OrbEndpoint;
    use ftmp_core::{ConnectionId, ObjectGroupId, RequestNum};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn conn(a: u32, b: u32) -> ConnectionId {
        ConnectionId::new(ObjectGroupId::new(1, a), ObjectGroupId::new(2, b))
    }

    #[test]
    fn numbering_is_per_connection() {
        let mut e = OrbEndpoint::new();
        assert_eq!(e.conn_mut(conn(1, 2)).alloc_request(), RequestNum(1));
        assert_eq!(e.conn_mut(conn(1, 2)).alloc_request(), RequestNum(2));
        assert_eq!(e.conn_mut(conn(3, 4)).alloc_request(), RequestNum(1));
    }

    /// Reference model: flat `(connection, number)` sets, sharing no code
    /// with the per-connection structs under test.
    #[derive(Default)]
    struct Reference {
        next_request: BTreeMap<u32, u64>,
        executed: BTreeSet<(u32, u64)>,
        replied: BTreeSet<(u32, u64)>,
        pending: BTreeSet<(u32, u64)>,
        cancelled: BTreeSet<(u32, u64)>,
        closed: BTreeSet<u32>,
        suppressed: (u64, u64),
    }

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u32),
        Execute(u32, u64),
        Reply(u32, u64),
        Pend(u32, u64),
        Unpend(u32, u64),
        Cancel(u32, u64),
        IsCancelled(u32, u64),
        Close(u32),
        IsClosed(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Few connections and small numbers force the same number onto
        // several connections and the same pair into several sets.
        let c = 0u32..12;
        let n = 1u64..20;
        prop_oneof![
            c.clone().prop_map(Op::Alloc),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::Execute(a, b)),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::Reply(a, b)),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::Pend(a, b)),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::Unpend(a, b)),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::Cancel(a, b)),
            (c.clone(), n.clone()).prop_map(|(a, b)| Op::IsCancelled(a, b)),
            c.clone().prop_map(Op::Close),
            c.prop_map(Op::IsClosed),
        ]
    }

    proptest! {
        /// An endpoint's per-connection structs decide exactly as flat
        /// `(connection, number)` sets do, across arbitrary interleavings:
        /// holding state per connection is an index, never a semantic.
        #[test]
        fn prop_connections_match_flat_sets(
            ops in proptest::collection::vec(op_strategy(), 0..400),
        ) {
            let mut e = OrbEndpoint::new();
            let mut r = Reference::default();
            for op in &ops {
                match *op {
                    Op::Alloc(a) => {
                        let n = r.next_request.entry(a).or_insert(0);
                        *n += 1;
                        prop_assert_eq!(e.conn_mut(conn(a, a)).alloc_request(), RequestNum(*n));
                    }
                    Op::Execute(a, num) => {
                        let fresh = r.executed.insert((a, num));
                        r.suppressed.0 += u64::from(!fresh);
                        prop_assert_eq!(
                            e.conn_mut(conn(a, a)).executed.first_sighting(RequestNum(num)),
                            fresh
                        );
                    }
                    Op::Reply(a, num) => {
                        let fresh = r.replied.insert((a, num));
                        r.suppressed.1 += u64::from(!fresh);
                        prop_assert_eq!(
                            e.conn_mut(conn(a, a)).replied.first_sighting(RequestNum(num)),
                            fresh
                        );
                    }
                    Op::Pend(a, num) => {
                        e.conn_mut(conn(a, a)).pending.insert(RequestNum(num));
                        r.pending.insert((a, num));
                    }
                    Op::Unpend(a, num) => {
                        prop_assert_eq!(
                            e.conn_mut(conn(a, a)).pending.remove(&RequestNum(num)),
                            r.pending.remove(&(a, num))
                        );
                    }
                    Op::Cancel(a, num) => {
                        e.conn_mut(conn(a, a)).cancel(RequestNum(num));
                        r.cancelled.insert((a, num));
                        r.pending.remove(&(a, num));
                    }
                    Op::IsCancelled(a, num) => {
                        prop_assert_eq!(
                            e.conn_mut(conn(a, a)).cancelled.contains(&RequestNum(num)),
                            r.cancelled.contains(&(a, num))
                        );
                    }
                    Op::Close(a) => {
                        e.conn_mut(conn(a, a)).close();
                        r.pending.retain(|(c, _)| *c != a);
                        r.closed.insert(a);
                    }
                    Op::IsClosed(a) => {
                        prop_assert_eq!(e.is_closed(conn(a, a)), r.closed.contains(&a));
                    }
                }
                prop_assert_eq!(e.pending_count(), r.pending.len());
            }
            prop_assert_eq!(e.suppression_counts(), r.suppressed);
        }
    }
}
