//! Protocol counters: per-processor totals, per-group buffer snapshots and
//! the per-layer counters each sub-state-machine maintains for itself.

use crate::ids::ProcessorId;
use crate::pgmp::PgmpCounters;
use crate::rmp::RmpCounters;
use crate::romp::RompCounters;
use crate::wire::FtmpMsgType;
use std::collections::BTreeMap;

/// Per-processor protocol counters.
#[derive(Debug, Clone, Default)]
pub struct ProcessorStats {
    /// Messages sent, by type.
    pub sent: BTreeMap<FtmpMsgType, u64>,
    /// RetransmitRequests emitted.
    pub nacks_sent: u64,
    /// Retransmissions answered.
    pub retransmissions_sent: u64,
    /// Duplicate reliable messages received (excludes our own loopback).
    pub duplicates: u64,
    /// Ordered GIOP deliveries made.
    pub deliveries: u64,
    /// Memberships installed after a fault.
    pub reconfigurations: u64,
    /// Messages discarded at a membership-change flush.
    pub discarded_at_flush: u64,
    /// NACK→retransmission round-trips accepted under Karn's rule.
    pub rtt_samples: u64,
    /// Smoothed round-trip time in microseconds, as of the most recent
    /// accepted sample (0 until the first).
    pub srtt_us: u64,
    /// Smoothed round-trip variance in microseconds, ditto.
    pub rttvar_us: u64,
    /// Times the flow-control send window closed.
    pub backpressure_closes: u64,
    /// Times the flow-control send window reopened.
    pub backpressure_opens: u64,
    /// Ordered sends refused with `SendError::Backpressured`.
    pub sends_refused: u64,
    /// Packed containers emitted (≥2 messages, or any with a trailer).
    pub packed_datagrams_sent: u64,
    /// Messages that left inside a packed container.
    pub messages_packed: u64,
    /// Standalone heartbeats skipped because their ack information already
    /// rode out piggybacked on recent traffic (DESIGN.md §5).
    pub heartbeats_suppressed: u64,
    /// Heartbeats sent ahead of the interval because this member was holding
    /// back the head of its own ordering queue (horizon on demand,
    /// DESIGN.md §4).
    pub heartbeats_prompted: u64,
    /// Incoming packed containers rejected whole (framing or inner decode
    /// error; no partial delivery).
    pub packed_rejects: u64,
    /// Messages received from other processors, by type (each inner message
    /// of a packed container counts individually). The overlay experiment
    /// (E17) reads control-plane load from here because the SimNet sent
    /// counter does not multiply by multicast fan-out.
    pub received: BTreeMap<FtmpMsgType, u64>,
    /// Received messages that carried the retransmission flag.
    pub retransmissions_received: u64,
}

impl ProcessorStats {
    /// Control-plane receptions: heartbeats, overlay digests, NACKs and
    /// retransmissions — everything that is overhead rather than payload.
    pub fn control_received(&self) -> u64 {
        let of = |t: FtmpMsgType| self.received.get(&t).copied().unwrap_or(0);
        of(FtmpMsgType::Heartbeat)
            + of(FtmpMsgType::OverlayDigest)
            + of(FtmpMsgType::RetransmitRequest)
            + self.retransmissions_received
    }

    /// Register the packing / suppression / reception counters into a
    /// telemetry registry so FTMP_METRICS_DIR snapshots include them
    /// (as `OrbEndpoint::register_metrics` does for the ORB's counters).
    pub fn register_metrics(&self, reg: &mut ftmp_telemetry::Registry) {
        let pairs: [(&str, u64); 8] = [
            ("ftmp_packed_datagrams_sent", self.packed_datagrams_sent),
            ("ftmp_messages_packed", self.messages_packed),
            ("ftmp_heartbeats_suppressed", self.heartbeats_suppressed),
            ("ftmp_heartbeats_prompted", self.heartbeats_prompted),
            ("ftmp_packed_rejects", self.packed_rejects),
            ("ftmp_control_received", self.control_received()),
            (
                "ftmp_retransmissions_received",
                self.retransmissions_received,
            ),
            ("ftmp_retransmissions_sent", self.retransmissions_sent),
        ];
        for (name, value) in pairs {
            let id = reg.counter(name);
            reg.inc(id, value);
        }
    }
}

/// Point-in-time buffer metrics for one group (experiment E6).
#[derive(Debug, Clone, Default)]
pub struct GroupMetrics {
    /// Messages held for any-holder retransmission.
    pub retention_msgs: usize,
    /// Bytes held for any-holder retransmission.
    pub retention_bytes: usize,
    /// Ordered-but-undelivered messages.
    pub ordering_queue: usize,
    /// Out-of-order messages buffered in receive windows.
    pub rx_buffered: usize,
    /// The members the head of the ordering queue is waiting on (their
    /// horizon is below its timestamp); empty when nothing is held.
    pub head_blocked_on: Vec<ProcessorId>,
}

/// The three layers' own counters for one group (or summed across groups by
/// [`Processor::layer_totals`]).
///
/// [`Processor::layer_totals`]: crate::processor::Processor::layer_totals
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// RMP: reliable reception, duplicates, retransmissions.
    pub rmp: RmpCounters,
    /// ROMP: ordering-queue traffic, deliveries, flushes.
    pub romp: RompCounters,
    /// PGMP: suspicion, convictions, reconfigurations.
    pub pgmp: PgmpCounters,
}

impl LayerCounters {
    /// Accumulate another group's counters into this one. High-water marks
    /// combine by maximum, everything else by sum.
    pub fn merge(&mut self, other: &LayerCounters) {
        self.rmp.msgs_in += other.rmp.msgs_in;
        self.rmp.msgs_out += other.rmp.msgs_out;
        self.rmp.duplicates += other.rmp.duplicates;
        self.rmp.retransmits_answered += other.rmp.retransmits_answered;
        self.rmp.reorder_depth_max = self.rmp.reorder_depth_max.max(other.rmp.reorder_depth_max);
        self.romp.msgs_in += other.romp.msgs_in;
        self.romp.delivered += other.romp.delivered;
        self.romp.flushed += other.romp.flushed;
        self.romp.discarded_at_flush += other.romp.discarded_at_flush;
        self.romp.queue_high_water = self.romp.queue_high_water.max(other.romp.queue_high_water);
        self.pgmp.suspect_reports_in += other.pgmp.suspect_reports_in;
        self.pgmp.proposals_in += other.pgmp.proposals_in;
        self.pgmp.convictions += other.pgmp.convictions;
        self.pgmp.reconfigurations += other.pgmp.reconfigurations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_maxes_high_water() {
        let mut a = LayerCounters::default();
        a.rmp.msgs_in = 3;
        a.rmp.reorder_depth_max = 5;
        a.romp.queue_high_water = 2;
        let mut b = LayerCounters::default();
        b.rmp.msgs_in = 4;
        b.rmp.reorder_depth_max = 2;
        b.romp.queue_high_water = 7;
        b.pgmp.convictions = 1;
        a.merge(&b);
        assert_eq!(a.rmp.msgs_in, 7);
        assert_eq!(a.rmp.reorder_depth_max, 5);
        assert_eq!(a.romp.queue_high_water, 7);
        assert_eq!(a.pgmp.convictions, 1);
    }
}
