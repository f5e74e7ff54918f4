//! Protocol counters: per-processor totals, per-group buffer snapshots and
//! the per-layer counters each sub-state-machine maintains for itself.
//!
//! Every counted fact has one home (DESIGN.md §10): the layer that decides
//! it ([`RmpCounters`], [`RompCounters`], [`PgmpCounters`]) or, for what only
//! the shell sees, [`ProcessorStats`]. [`Processor::stats`] returns the
//! shell's counts by value with the fields whose home is a layer filled in.
//!
//! [`Processor::stats`]: crate::processor::Processor::stats

use crate::ids::ProcessorId;
use crate::pgmp::PgmpCounters;
use crate::rmp::RmpCounters;
use crate::romp::RompCounters;
use crate::wire::FtmpMsgType;

/// Per-processor protocol counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessorStats {
    /// Messages sent, indexed by the type's wire octet.
    pub(crate) sent: [u64; 10],
    /// RetransmitRequests emitted.
    pub nacks_sent: u64,
    /// Retransmissions put on the wire: RetransmitRequests answered
    /// ([`RmpCounters::retransmits_answered`]) plus `exclusion_notices_sent`.
    /// Filled by the read-out.
    pub retransmissions_sent: u64,
    /// Membership messages re-sent to a processor still transmitting to a
    /// group that excluded it.
    pub exclusion_notices_sent: u64,
    /// Duplicate reliable messages received (excludes our own loopback):
    /// [`RmpCounters::duplicates`], filled by the read-out.
    pub duplicates: u64,
    /// Ordered GIOP deliveries made to the application.
    pub deliveries: u64,
    /// Memberships installed after a fault:
    /// [`PgmpCounters::reconfigurations`], filled by the read-out.
    pub reconfigurations: u64,
    /// Messages discarded at a membership-change flush:
    /// [`RompCounters::discarded_at_flush`], filled by the read-out.
    pub discarded_at_flush: u64,
    /// NACK→retransmission round-trips accepted under Karn's rule.
    pub rtt_samples: u64,
    /// Smoothed round-trip time in microseconds (0 until the first sample):
    /// the slowest group's estimator, filled by the read-out.
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
    /// Messages received from other processors, indexed like `sent` (each
    /// inner message of a packed container counts individually). The overlay
    /// experiment (E17) reads control-plane load from here because the
    /// SimNet sent counter does not multiply by multicast fan-out.
    pub(crate) received: [u64; 10],
    /// Received messages that carried the retransmission flag.
    pub retransmissions_received: u64,
    /// Received messages dropped at admission, unobserved, because their
    /// `ts` or `ack_ts` is at or above the 2^62 ceiling (DESIGN.md §4, "A
    /// stamp at the end of time").
    pub stamps_dropped_implausible: u64,
}

impl ProcessorStats {
    /// Messages of type `t` this processor sent.
    pub fn sent_of(&self, t: FtmpMsgType) -> u64 {
        self.sent[t as usize]
    }

    /// Messages of type `t` received from other processors.
    pub fn received_of(&self, t: FtmpMsgType) -> u64 {
        self.received[t as usize]
    }

    /// Control-plane receptions: heartbeats, overlay digests, NACKs and
    /// retransmissions — everything that is overhead rather than payload.
    pub fn control_received(&self) -> u64 {
        self.received_of(FtmpMsgType::Heartbeat)
            + self.received_of(FtmpMsgType::OverlayDigest)
            + self.received_of(FtmpMsgType::RetransmitRequest)
            + self.retransmissions_received
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
