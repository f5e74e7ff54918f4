//! Network-level traffic accounting.

use std::collections::BTreeMap;

/// Counters maintained by the simulator.
///
/// `per_kind` is keyed by a protocol-supplied classifier octet (FTMP's
/// message-type byte), letting the experiment harness report traffic broken
/// down by Regular vs Heartbeat vs RetransmitRequest etc. without the
/// simulator knowing anything about FTMP.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network by senders.
    pub sent_packets: u64,
    /// Protocol messages handed to the network by senders. Equal to
    /// `sent_packets` unless a message counter is installed
    /// ([`crate::SimNet::set_message_counter`]) and senders pack several
    /// messages into one datagram — the packets-per-message ratio is the
    /// packing win the experiments report.
    pub sent_messages: u64,
    /// Total payload bytes handed to the network.
    pub sent_bytes: u64,
    /// (packet, receiver) deliveries performed.
    pub delivered: u64,
    /// (packet, receiver) pairs dropped by the loss model.
    pub lost: u64,
    /// (packet, receiver) pairs dropped by a partition.
    pub partitioned: u64,
    /// (packet, receiver) pairs dropped because the receiver crashed.
    pub to_crashed: u64,
    /// Per-classifier-kind (sent packets, sent bytes).
    pub per_kind: BTreeMap<u8, (u64, u64)>,
}

impl NetStats {
    /// Record a send of `bytes` payload classified as `kind`.
    pub fn record_send(&mut self, bytes: usize, kind: Option<u8>) {
        self.sent_packets += 1;
        self.sent_bytes += bytes as u64;
        if let Some(k) = kind {
            let e = self.per_kind.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += bytes as u64;
        }
    }

    /// Fraction of (packet, receiver) attempts lost to the loss model.
    pub fn loss_rate(&self) -> f64 {
        let attempts = self.delivered + self.lost;
        if attempts == 0 {
            0.0
        } else {
            self.lost as f64 / attempts as f64
        }
    }

    /// Sent packets of a given classifier kind.
    pub fn kind_packets(&self, kind: u8) -> u64 {
        self.per_kind.get(&kind).map_or(0, |e| e.0)
    }

    /// Sent bytes of a given classifier kind.
    pub fn kind_bytes(&self, kind: u8) -> u64 {
        self.per_kind.get(&kind).map_or(0, |e| e.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = NetStats::default();
        s.record_send(100, Some(2));
        s.record_send(50, Some(2));
        s.record_send(10, None);
        assert_eq!(s.sent_packets, 3);
        assert_eq!(s.sent_bytes, 160);
        assert_eq!(s.kind_packets(2), 2);
        assert_eq!(s.kind_bytes(2), 150);
        assert_eq!(s.kind_packets(9), 0);
    }

    #[test]
    fn loss_rate_handles_zero_attempts() {
        let s = NetStats::default();
        assert_eq!(s.loss_rate(), 0.0);
        let s = NetStats {
            delivered: 75,
            lost: 25,
            ..NetStats::default()
        };
        assert!((s.loss_rate() - 0.25).abs() < 1e-12);
    }
}
