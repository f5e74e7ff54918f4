//! Packet tracing: a bounded in-memory capture of simulator traffic.
//!
//! Debugging a group protocol usually means asking "what was on the wire
//! between t₁ and t₂, from whom, of what kind?". [`Trace`] answers that: a
//! ring buffer of [`TraceRecord`]s (send and per-receiver delivery/drop
//! events) that the simulator fills when tracing is enabled. The classifier
//! octet (FTMP's message type, when the classifier is installed) makes the
//! records protocol-aware without the simulator knowing the protocol;
//! `ftmp-check`'s counterexample reports render them.

use crate::time::SimTime;
use crate::{McastAddr, NodeId};
use std::collections::VecDeque;

/// What happened to a datagram (or one of its per-receiver copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The sender handed the datagram to the network.
    Send,
    /// A copy arrived at the given receiver.
    Deliver(NodeId),
    /// A copy to the given receiver was dropped by the loss model.
    Lose(NodeId),
    /// A copy was blocked by a partition.
    Partition(NodeId),
    /// A copy was addressed to a crashed receiver.
    ToCrashed(NodeId),
}

/// One traced event.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Originating node.
    pub src: NodeId,
    /// Destination group.
    pub dst: McastAddr,
    /// Payload length.
    pub len: usize,
    /// Classifier octet (e.g. the FTMP message type), if any.
    pub kind: Option<u8>,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring of trace records.
#[derive(Debug)]
pub struct Trace {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    /// Total records ever pushed (including evicted ones).
    pushed: u64,
}

impl Trace {
    /// A trace retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            pushed: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
        self.pushed += 1;
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever captured (≥ `len`, counts evicted).
    pub fn total_captured(&self) -> u64 {
        self.pushed
    }

    /// Retained records matching a kind octet.
    pub fn of_kind(&self, kind: u8) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().filter(move |r| r.kind == Some(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, src: NodeId, kind: Option<u8>, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(at),
            src,
            dst: McastAddr(1),
            len: 64,
            kind,
            event,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5u64 {
            t.push(rec(i, i as u32, Some(0), TraceEvent::Send));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_captured(), 5);
        let firsts: Vec<u64> = t.records().map(|r| r.at.0).collect();
        assert_eq!(firsts, vec![2, 3, 4]);
    }

    #[test]
    fn kind_filter() {
        let mut t = Trace::new(10);
        t.push(rec(1, 1, Some(0), TraceEvent::Send));
        t.push(rec(2, 1, Some(2), TraceEvent::Send));
        t.push(rec(3, 1, None, TraceEvent::Send));
        assert_eq!(t.of_kind(2).count(), 1);
        assert_eq!(t.of_kind(9).count(), 0);
    }
}
