#![warn(missing_docs)]
//! Deterministic multicast network substrate.
//!
//! The FTMP paper runs over IP Multicast on a LAN. This crate replaces that
//! substrate with [`sim`] — a deterministic **discrete-event simulator** with
//! virtual time, per-receiver packet loss (i.i.d. or bursty), configurable
//! latency distributions, reordering, crash faults and network partitions.
//! All randomness flows from one seed, so every protocol run — including its
//! fault injections — replays bit-for-bit. This is what the tests, property
//! tests and the experiment harness use; real sockets are `ftmp-runtime`.
//!
//! The vocabulary is a [`Packet`] from a [`NodeId`] to a multicast group
//! address [`McastAddr`], carrying opaque payload bytes. Protocol stacks
//! stay sans-io and implement [`sim::SimNode`].

pub mod models;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use models::{
    FaultOp, FaultPlan, FaultRule, LatencyModel, LinkDegrade, LinkSelector, LossModel, SimConfig,
};
pub use sim::{Outbox, SimNet, SimNode, WireTap};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};

use bytes::Bytes;

/// Identifies one simulated processor / host on the network.
pub type NodeId = u32;

/// An IP-multicast-style group address. Any node may send to any address;
/// only subscribed nodes receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct McastAddr(pub u32);

/// One datagram on the wire.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination multicast group.
    pub dst: McastAddr,
    /// Opaque payload (an encoded FTMP message, for our stacks).
    pub payload: Bytes,
}

impl Packet {
    /// Construct a packet.
    pub fn new(src: NodeId, dst: McastAddr, payload: impl Into<Bytes>) -> Self {
        Packet {
            src,
            dst,
            payload: payload.into(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_construction() {
        let p = Packet::new(3, McastAddr(9), vec![1u8, 2, 3]);
        assert_eq!(p.src, 3);
        assert_eq!(p.dst, McastAddr(9));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
