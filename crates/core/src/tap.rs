//! The instrumentation tap (DESIGN.md §9): the one place the shell reports
//! what it did.
//!
//! Every instrumented site in [`Processor`](crate::Processor) builds one
//! borrowed [`Event`] and hands it to [`Tap::emit`]. The tap holds the three
//! consumers — the conformance observation buffer, [`Telemetry`] and the
//! durable [`DeliveryLog`] — and each derives its own view from the same
//! value: [`Observation::project`], [`Telemetry::on_event`], and the two
//! `DeliveryLog` hooks fed from `Delivered` / `ViewInstalled` (its third
//! method, the turn boundary, is [`Tap::flush_log`]). All three are
//! absent by default; `emit` is then one branch and the event is never
//! materialized. Nothing flows back: an event is read, never answered, so no
//! consumer can perturb the protocol (the golden trace hashes pin the wire
//! with every combination attached).

use crate::actions::Delivery;
use crate::durable::DeliveryLog;
use crate::ids::{GroupId, ProcessorId, SeqNum, Timestamp};
use crate::observe::Observation;
use crate::processor::DigestDest;
use crate::romp::OrderKey;
use crate::telemetry::Telemetry;
use crate::wire::AckVector;
use ftmp_net::SimTime;
use std::collections::BTreeSet;

/// One thing the shell did, in the order it did it. Borrowed and
/// allocation-free; consumers copy out what they keep.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<'a> {
    /// A reliable message left this processor (`regular`: a Regular one,
    /// whose own total-order delivery closes `e2e_self_us`).
    Sent {
        group: GroupId,
        seq: SeqNum,
        ts: Timestamp,
        regular: bool,
    },
    /// First reception of a reliable message: it entered retention.
    Retained {
        group: GroupId,
        source: ProcessorId,
        seq: SeqNum,
        ts: Timestamp,
    },
    /// An out-of-order arrival was parked behind a gap; `depth` messages are
    /// now parked in the group (the explorer's gap-depth near-miss signal,
    /// DESIGN.md §15).
    Buffered {
        group: GroupId,
        source: ProcessorId,
        seq: u64,
        depth: u64,
    },
    /// RMP released a message in source order.
    Released {
        group: GroupId,
        source: ProcessorId,
        seq: u64,
    },
    /// A RetransmitRequest was sent; `attempts` is the gap episode's
    /// ordinal (1 = first request).
    Nack {
        group: GroupId,
        source: ProcessorId,
        start: u64,
        stop: u64,
        attempts: u32,
    },
    /// A peer's RetransmitRequest was answered from retention.
    RetransmitAnswered {
        group: GroupId,
        source: ProcessorId,
        seq: u64,
    },
    /// Ack evidence from a message header or a relayed digest entry.
    Acked {
        group: GroupId,
        member: ProcessorId,
        ts: Timestamp,
    },
    /// Ack evidence from a packed container's piggybacked vector.
    AckVector(&'a AckVector),
    /// A message was enqueued at its total-order position.
    Enqueued { group: GroupId, key: OrderKey },
    /// A message reached its total-order position — by the delivery rule or
    /// by a membership-change flush.
    Ordered {
        group: GroupId,
        key: OrderKey,
        seq: u64,
    },
    /// A Regular message was handed to the application.
    Delivered(&'a Delivery),
    /// The stability point was read after a delivery pass; `reclaimed`
    /// retained messages at or below it were dropped.
    Stable {
        group: GroupId,
        stable_ts: Timestamp,
        reclaimed: usize,
    },
    /// The flow-control send window closed.
    WindowClosed { group: GroupId },
    /// The flow-control send window reopened.
    WindowReopened { group: GroupId },
    /// A peer spoke after `permille` thousandths of its failure timeout
    /// (1000‰ would have been a suspicion; sites report ≥ 250‰ only).
    PeerSilence { permille: u64 },
    /// The local fault detector began suspecting `suspect`.
    Suspected {
        group: GroupId,
        suspect: ProcessorId,
    },
    /// A suspect report left the closest unconvicted member at `permille`
    /// thousandths of the conviction quorum.
    ConvictionMargin { permille: i64 },
    /// A membership reconfiguration began or was extended (§7.2).
    ReconfigStarted { group: GroupId, removals: usize },
    /// A processor was convicted and removed.
    Convicted {
        group: GroupId,
        processor: ProcessorId,
    },
    /// A membership view took effect here (ordered add/remove, a joiner's
    /// committed join, or a completed reconfiguration).
    ViewInstalled {
        group: GroupId,
        members: &'a BTreeSet<ProcessorId>,
        ts: Timestamp,
    },
    /// A packed container left the wire with `msgs` messages inside.
    PackedSent { msgs: u32 },
    /// The dissemination tree was (re)built for a view (DESIGN.md §13).
    OverlayRebuilt { depth: usize },
    /// An aggregated overlay digest left this processor.
    OverlayDigestSent(DigestDest),
    /// A neighbor's digest advanced `n` relayed members' horizons here.
    OverlayEntriesMerged { n: usize },
    /// A NACK was routed to the tree neighborhood, or `escalated` to the
    /// whole group after repeated failures.
    OverlayRepair { escalated: bool },
    /// A laggard's Suspect of a departed member was answered with
    /// tombstoned horizon evidence.
    OverlayRescue,
}

/// The three consumers of the event stream, all absent by default. The
/// fields are the shell's to attach and read out (`enable_*`, `telemetry()`,
/// `drain_observations_into`); its protocol code only ever calls
/// [`emit`](Tap::emit).
#[derive(Default)]
pub(crate) struct Tap {
    pub(crate) obs: Option<Vec<Observation>>,
    pub(crate) tel: Option<Box<Telemetry>>,
    pub(crate) dlog: Option<Box<dyn DeliveryLog>>,
}

impl Tap {
    /// Report one event to whoever is listening.
    #[inline]
    pub(crate) fn emit(&mut self, now: SimTime, ev: Event<'_>) {
        if self.obs.is_some() || self.tel.is_some() || self.dlog.is_some() {
            self.dispatch(now, ev);
        }
    }

    /// Out of line, so an instrumented site costs the shell's hot functions
    /// the check above and a call, not three projections.
    #[inline(never)]
    fn dispatch(&mut self, now: SimTime, ev: Event<'_>) {
        if let Some(buf) = &mut self.obs {
            Observation::project(&ev, buf);
        }
        if let Some(t) = &mut self.tel {
            t.on_event(now, &ev);
        }
        if let Some(log) = &mut self.dlog {
            match ev {
                Event::Delivered(d) => log.on_delivery(d),
                Event::ViewInstalled { group, members, ts } => {
                    let members: Vec<ProcessorId> = members.iter().copied().collect();
                    log.on_view_change(group, &members, ts);
                }
                _ => {}
            }
        }
    }

    /// The host is taking the turn's actions: the delivery log's turn
    /// boundary ([`DeliveryLog::flush`]).
    #[inline]
    pub(crate) fn flush_log(&mut self) {
        if let Some(log) = &mut self.dlog {
            log.flush();
        }
    }

    /// Observations are recorded: sites whose event needs a look-up only
    /// the observation stream uses (`Retained`) ask first.
    pub(crate) fn observing(&self) -> bool {
        self.obs.is_some()
    }

    /// Telemetry is on: sites whose event carries a value computed only for
    /// it (conviction margin, peer silence, NACK ordinal) ask first.
    pub(crate) fn measuring(&self) -> bool {
        self.tel.is_some()
    }
}
