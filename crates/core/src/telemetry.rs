//! Per-processor telemetry: latency histograms, the counters nothing else
//! keeps, and the bounded flight recorder (DESIGN.md §10). What the engine
//! counts whether or not anyone listens (NACKs, retransmissions, deliveries,
//! convictions, …) is not counted again here:
//! [`Processor::register_metrics`](crate::Processor::register_metrics) reads
//! those from their homes and lays them beside this registry.
//!
//! [`Telemetry`] is one of the three consumers behind the shell's
//! instrumentation tap (`tap.rs`, DESIGN.md §9), absent by default like the
//! observation buffer in [`crate::observe`] — the golden trace-hash tests of
//! the simulator-hosted [`crate::node`] prove wire traffic is bit-identical
//! either way.
//! When enabled, `on_event` correlates the shell's events into latency
//! series:
//!
//! * `rmp_recovery_us` — first out-of-order reception → source-order
//!   release (how long RMP's NACK machinery takes to repair a gap).
//! * `ordering_delay_us` — ROMP enqueue at the total-order position →
//!   delivery (how long the delivery rule waits for horizon cover).
//! * `stability_lag_us` — delivery → stability point passing the message
//!   (how long retention must hold it after everyone has it).
//! * `e2e_self_us` — own Regular send → own total-order delivery.
//! * `view_change_us` — reconfiguration start → new view installed.
//! * `flow_stall_us` — send-window close → reopen.
//!
//! The flight recorder keeps the last [`FLIGHT_CAPACITY`] protocol events;
//! the ring is frozen into a structured dump at the first conviction, and
//! `ftmp-check` splices dumps into oracle counterexample reports.

use crate::ids::{GroupId, ProcessorId, Timestamp};
use crate::processor::DigestDest;
use crate::romp::OrderKey;
use crate::tap::Event;
use ftmp_net::SimTime;
use ftmp_telemetry::{CounterId, GaugeId, HistId, Registry, Ring};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Flight-recorder ring capacity (events per processor).
pub const FLIGHT_CAPACITY: usize = 256;

/// Cap on each correlation map: a correlation entry that never resolves
/// (e.g. a message lost forever) must not grow memory without bound.
const CORR_CAP: usize = 4096;

/// One protocol moment retained by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// Reliable message sent (seq, total-order timestamp).
    Sent {
        /// Group sent in.
        group: GroupId,
        /// Sequence number assigned.
        seq: u64,
        /// Lamport timestamp stamped.
        ts: u64,
    },
    /// Out-of-order arrival buffered behind a gap.
    Buffered {
        /// Group received in.
        group: GroupId,
        /// Source whose stream has the gap.
        source: ProcessorId,
        /// Buffered sequence number.
        seq: u64,
    },
    /// A previously buffered message was released in source order.
    Recovered {
        /// Group received in.
        group: GroupId,
        /// Source of the repaired stream.
        source: ProcessorId,
        /// Released sequence number.
        seq: u64,
        /// Gap-repair latency in microseconds.
        us: u64,
    },
    /// Message delivered at its total-order position.
    Delivered {
        /// Group delivered in.
        group: GroupId,
        /// Original source.
        source: ProcessorId,
        /// Total-order timestamp.
        ts: u64,
    },
    /// RetransmitRequest sent for a gap.
    NackSent {
        /// Group solicited in.
        group: GroupId,
        /// Source whose messages are missing.
        source: ProcessorId,
        /// Requested range start.
        start: u64,
        /// Requested range end.
        stop: u64,
        /// Re-issue attempts for this gap episode (1 = first request).
        attempts: u32,
    },
    /// Answered a peer's RetransmitRequest from retention.
    RetransmitAnswered {
        /// Group answered in.
        group: GroupId,
        /// Original source of the retransmitted message.
        source: ProcessorId,
        /// Retransmitted sequence number.
        seq: u64,
    },
    /// Flow-control send window closed (backpressure on).
    WindowClosed {
        /// Affected group.
        group: GroupId,
    },
    /// Flow-control send window reopened.
    WindowReopened {
        /// Affected group.
        group: GroupId,
        /// Stall duration in microseconds.
        us: u64,
    },
    /// Local fault detector began suspecting a peer.
    Suspected {
        /// Group the suspicion is scoped to.
        group: GroupId,
        /// The suspect.
        suspect: ProcessorId,
    },
    /// Membership reconfiguration started (§7.2).
    ReconfigStarted {
        /// Affected group.
        group: GroupId,
        /// Members proposed for removal.
        removals: usize,
    },
    /// A processor was convicted and removed.
    Convicted {
        /// Group it was removed from.
        group: GroupId,
        /// The convicted processor.
        processor: ProcessorId,
    },
    /// A new membership view was installed.
    ViewInstalled {
        /// Affected group.
        group: GroupId,
        /// Member count of the new view.
        members: usize,
        /// Membership timestamp of the new view.
        ts: u64,
        /// Reconfiguration duration in microseconds (0 when the change was
        /// not preceded by a local reconfiguration, e.g. a join).
        us: u64,
    },
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightEvent::Sent { group, seq, ts } => {
                write!(f, "sent g{} seq={} ts={}", group.0, seq, ts)
            }
            FlightEvent::Buffered { group, source, seq } => {
                write!(f, "buffered g{} from P{} seq={}", group.0, source.0, seq)
            }
            FlightEvent::Recovered {
                group,
                source,
                seq,
                us,
            } => write!(
                f,
                "recovered g{} from P{} seq={} after {}us",
                group.0, source.0, seq, us
            ),
            FlightEvent::Delivered { group, source, ts } => {
                write!(f, "delivered g{} from P{} ts={}", group.0, source.0, ts)
            }
            FlightEvent::NackSent {
                group,
                source,
                start,
                stop,
                attempts,
            } => write!(
                f,
                "nack g{} for P{} [{start},{stop}] attempt={attempts}",
                group.0, source.0
            ),
            FlightEvent::RetransmitAnswered { group, source, seq } => {
                write!(f, "retransmit g{} of P{} seq={}", group.0, source.0, seq)
            }
            FlightEvent::WindowClosed { group } => write!(f, "window-closed g{}", group.0),
            FlightEvent::WindowReopened { group, us } => {
                write!(f, "window-reopened g{} after {}us", group.0, us)
            }
            FlightEvent::Suspected { group, suspect } => {
                write!(f, "suspected g{} P{}", group.0, suspect.0)
            }
            FlightEvent::ReconfigStarted { group, removals } => {
                write!(f, "reconfig-started g{} removals={}", group.0, removals)
            }
            FlightEvent::Convicted { group, processor } => {
                write!(f, "convicted g{} P{}", group.0, processor.0)
            }
            FlightEvent::ViewInstalled {
                group,
                members,
                ts,
                us,
            } => write!(
                f,
                "view-installed g{} members={} ts={} after {}us",
                group.0, members, ts, us
            ),
        }
    }
}

/// One flight-recorder entry: when, and what.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The event.
    pub event: FlightEvent,
}

/// The registered metric handles (registration happens once, in
/// [`Telemetry::new`]; `on_event` records through these indices).
#[derive(Debug)]
struct Ids {
    rmp_recovery_us: HistId,
    ordering_delay_us: HistId,
    stability_lag_us: HistId,
    e2e_self_us: HistId,
    view_change_us: HistId,
    flow_stall_us: HistId,
    pack_msgs_per_datagram: HistId,
    nack_attempts: HistId,
    view_changes: CounterId,
    overlay_rebuilds: CounterId,
    overlay_digests_sent: CounterId,
    overlay_entries_merged: CounterId,
    overlay_repairs_neighborhood: CounterId,
    overlay_repairs_escalated: CounterId,
    overlay_solicits: CounterId,
    overlay_solicit_answers: CounterId,
    overlay_rescues: CounterId,
    overlay_depth: GaugeId,
    gap_depth_peak: GaugeId,
    conviction_margin_permille: GaugeId,
    suspicion_margin_permille: HistId,
}

/// Per-group correlation state: open intervals awaiting their closing
/// timestamp. Each map is capped at [`CORR_CAP`] entries.
#[derive(Debug, Default)]
struct GroupCorr {
    /// Own Regular sends awaiting self total-order delivery, keyed by seq.
    own_sent: BTreeMap<u64, SimTime>,
    /// Out-of-order arrivals awaiting source-order release.
    buffered_at: BTreeMap<(ProcessorId, u64), SimTime>,
    /// The ordinal of the last RetransmitRequest sent for each source's
    /// open gap; dropped when a source's first early arrival opens a gap.
    nack_ordinal: BTreeMap<ProcessorId, u32>,
    /// Messages enqueued at their total-order position, awaiting delivery.
    enqueued: BTreeMap<OrderKey, SimTime>,
    /// Delivered messages awaiting the stability point (ts ascending).
    stab_fifo: VecDeque<(Timestamp, SimTime)>,
    /// When the send window closed (open stall interval).
    window_closed_at: Option<SimTime>,
    /// When the current reconfiguration began.
    reconfig_started: Option<SimTime>,
}

fn corr_insert<K: Ord>(map: &mut BTreeMap<K, SimTime>, k: K, v: SimTime) {
    if map.len() < CORR_CAP {
        map.insert(k, v);
    }
}

/// The per-processor telemetry state: registry, correlation maps, flight
/// recorder. Lives behind `Option<Box<_>>` on the shell's tap — absent by
/// default, so the record path costs one branch when disabled.
#[derive(Debug)]
pub struct Telemetry {
    owner: ProcessorId,
    reg: Registry,
    ids: Ids,
    groups: BTreeMap<GroupId, GroupCorr>,
    flight: Ring<FlightEntry>,
    /// The flight ring rendered at the moment of the first conviction.
    conviction_dump: Option<String>,
    /// The longest gap repair so far (`rmp_recovery_us`' maximum, µs) and
    /// the ordinal of the last RetransmitRequest sent for its source when
    /// it completed (0: repaired on another member's request).
    longest_repair: Option<(u64, u32)>,
}

impl Telemetry {
    /// Fresh telemetry state for one processor.
    pub fn new(owner: ProcessorId) -> Self {
        let mut reg = Registry::new();
        let ids = Ids {
            rmp_recovery_us: reg.histogram("rmp_recovery_us"),
            ordering_delay_us: reg.histogram("ordering_delay_us"),
            stability_lag_us: reg.histogram("stability_lag_us"),
            e2e_self_us: reg.histogram("e2e_self_us"),
            view_change_us: reg.histogram("view_change_us"),
            flow_stall_us: reg.histogram("flow_stall_us"),
            pack_msgs_per_datagram: reg.histogram("pack_msgs_per_datagram"),
            nack_attempts: reg.histogram("nack_attempts"),
            view_changes: reg.counter("view_changes"),
            overlay_rebuilds: reg.counter("overlay_rebuilds"),
            overlay_digests_sent: reg.counter("overlay_digests_sent"),
            overlay_entries_merged: reg.counter("overlay_entries_merged"),
            overlay_repairs_neighborhood: reg.counter("overlay_repairs_neighborhood"),
            overlay_repairs_escalated: reg.counter("overlay_repairs_escalated"),
            overlay_solicits: reg.counter("overlay_solicits"),
            overlay_solicit_answers: reg.counter("overlay_solicit_answers"),
            overlay_rescues: reg.counter("overlay_rescues"),
            overlay_depth: reg.gauge("overlay_depth"),
            gap_depth_peak: reg.gauge("gap_depth_peak"),
            conviction_margin_permille: reg.gauge("conviction_margin_permille"),
            suspicion_margin_permille: reg.histogram("suspicion_margin_permille"),
        };
        Telemetry {
            owner,
            reg,
            ids,
            groups: BTreeMap::new(),
            flight: Ring::new(FLIGHT_CAPACITY),
            conviction_dump: None,
            longest_repair: None,
        }
    }

    fn corr(&mut self, gid: GroupId) -> &mut GroupCorr {
        self.groups.entry(gid).or_default()
    }

    fn record_event(&mut self, at: SimTime, event: FlightEvent) {
        self.flight.push(FlightEntry { at, event });
    }

    /// Fold one tap event into the metrics, the correlation maps and the
    /// flight recorder. Events only the observation stream or the delivery
    /// log read fall through.
    pub(crate) fn on_event(&mut self, now: SimTime, ev: &Event<'_>) {
        let since = |at: SimTime| now.saturating_since(at).as_micros();
        match *ev {
            Event::Sent {
                group,
                seq,
                ts,
                regular,
            } => {
                if regular {
                    corr_insert(&mut self.corr(group).own_sent, seq.0, now);
                }
                let (seq, ts) = (seq.0, ts.0);
                self.record_event(now, FlightEvent::Sent { group, seq, ts });
            }
            Event::Buffered {
                group,
                source,
                seq,
                depth,
            } => {
                let c = self.corr(group);
                if c.buffered_at.range((source, 0)..).next().map(|e| e.0 .0) != Some(source) {
                    c.nack_ordinal.remove(&source);
                }
                corr_insert(&mut c.buffered_at, (source, seq), now);
                self.record_event(now, FlightEvent::Buffered { group, source, seq });
                self.reg.raise(self.ids.gap_depth_peak, depth as i64);
            }
            Event::Released { group, source, seq } => {
                // Only a message that had been buffered has a gap-repair
                // latency.
                let c = self.corr(group);
                if let Some(at) = c.buffered_at.remove(&(source, seq)) {
                    let us = since(at);
                    let nacks = c.nack_ordinal.get(&source).copied().unwrap_or(0);
                    if self.longest_repair.is_none_or(|(longest, _)| us > longest) {
                        self.longest_repair = Some((us, nacks));
                    }
                    self.reg.record(self.ids.rmp_recovery_us, us);
                    let event = FlightEvent::Recovered {
                        group,
                        source,
                        seq,
                        us,
                    };
                    self.record_event(now, event);
                }
            }
            Event::Nack {
                group,
                source,
                start,
                stop,
                attempts,
            } => {
                self.reg.record(self.ids.nack_attempts, u64::from(attempts));
                self.corr(group).nack_ordinal.insert(source, attempts);
                let event = FlightEvent::NackSent {
                    group,
                    source,
                    start,
                    stop,
                    attempts,
                };
                self.record_event(now, event);
            }
            Event::RetransmitAnswered { group, source, seq } => {
                self.record_event(now, FlightEvent::RetransmitAnswered { group, source, seq });
            }
            Event::Enqueued { group, key } => {
                corr_insert(&mut self.corr(group).enqueued, key, now);
            }
            Event::Ordered { group, key, seq } => {
                let own = key.1 == self.owner;
                let c = self.groups.entry(group).or_default();
                if let Some(at) = c.enqueued.remove(&key) {
                    self.reg.record(self.ids.ordering_delay_us, since(at));
                }
                if let Some(at) = own.then(|| c.own_sent.remove(&seq)).flatten() {
                    self.reg.record(self.ids.e2e_self_us, since(at));
                }
                if c.stab_fifo.len() < CORR_CAP {
                    c.stab_fifo.push_back((key.0, now));
                }
                let (ts, source) = (key.0 .0, key.1);
                self.record_event(now, FlightEvent::Delivered { group, source, ts });
            }
            Event::Stable {
                group, stable_ts, ..
            } => {
                // Everything delivered at or below the stability point can
                // leave retention; its wait is the stability lag.
                let c = self.groups.entry(group).or_default();
                while let Some(&(_, at)) = c.stab_fifo.front().filter(|(ts, _)| *ts <= stable_ts) {
                    c.stab_fifo.pop_front();
                    self.reg.record(self.ids.stability_lag_us, since(at));
                }
            }
            Event::WindowClosed { group } => {
                self.corr(group).window_closed_at = Some(now);
                self.record_event(now, FlightEvent::WindowClosed { group });
            }
            Event::WindowReopened { group } => {
                if let Some(at) = self.corr(group).window_closed_at.take() {
                    let us = since(at);
                    self.reg.record(self.ids.flow_stall_us, us);
                    self.record_event(now, FlightEvent::WindowReopened { group, us });
                }
            }
            Event::PeerSilence { permille } => {
                self.reg
                    .record(self.ids.suspicion_margin_permille, permille);
            }
            Event::Suspected { group, suspect } => {
                self.record_event(now, FlightEvent::Suspected { group, suspect });
            }
            Event::ConvictionMargin { permille } => {
                // The peak: how close the suspicion matrix came to excluding
                // a member that survived.
                self.reg
                    .raise(self.ids.conviction_margin_permille, permille);
            }
            Event::ReconfigStarted { group, removals } => {
                // An extension must not reset the interval's origin.
                self.corr(group).reconfig_started.get_or_insert(now);
                self.record_event(now, FlightEvent::ReconfigStarted { group, removals });
            }
            Event::Convicted { group, processor } => {
                self.record_event(now, FlightEvent::Convicted { group, processor });
                // The first conviction freezes the flight recorder: it has
                // the richest context.
                if self.conviction_dump.is_none() {
                    self.conviction_dump = Some(self.render_flight());
                }
            }
            Event::ViewInstalled { group, members, ts } => {
                self.reg.inc(self.ids.view_changes, 1);
                // 0 when no local reconfiguration preceded it (e.g. a join).
                let us = self.corr(group).reconfig_started.take().map_or(0, since);
                if us > 0 {
                    self.reg.record(self.ids.view_change_us, us);
                }
                let event = FlightEvent::ViewInstalled {
                    group,
                    members: members.len(),
                    ts: ts.0,
                    us,
                };
                self.record_event(now, event);
            }
            Event::PackedSent { msgs } => {
                self.reg
                    .record(self.ids.pack_msgs_per_datagram, u64::from(msgs));
            }
            Event::OverlayRebuilt { depth } => {
                self.reg.inc(self.ids.overlay_rebuilds, 1);
                self.reg.set(self.ids.overlay_depth, depth as i64);
            }
            Event::OverlayDigestSent(dest) => {
                self.reg.inc(self.ids.overlay_digests_sent, 1);
                match dest {
                    DigestDest::Neighborhood => {}
                    DigestDest::Solicit => self.reg.inc(self.ids.overlay_solicits, 1),
                    DigestDest::Answer => self.reg.inc(self.ids.overlay_solicit_answers, 1),
                }
            }
            Event::OverlayEntriesMerged { n } => {
                self.reg.inc(self.ids.overlay_entries_merged, n as u64);
            }
            Event::OverlayRepair { escalated: true } => {
                self.reg.inc(self.ids.overlay_repairs_escalated, 1);
            }
            Event::OverlayRepair { escalated: false } => {
                self.reg.inc(self.ids.overlay_repairs_neighborhood, 1);
            }
            Event::OverlayRescue => self.reg.inc(self.ids.overlay_rescues, 1),
            Event::Retained { .. }
            | Event::Acked { .. }
            | Event::AckVector(_)
            | Event::Delivered(_) => {}
        }
    }

    /// The underlying registry: what only telemetry keeps. The engine's
    /// whole view is [`Processor::register_metrics`](crate::Processor::register_metrics),
    /// which merges this in.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Render the flight recorder as a structured text dump.
    pub fn render_flight(&self) -> String {
        let mut out = format!(
            "flight recorder P{} ({} events, {} evicted):\n",
            self.owner.0,
            self.flight.len(),
            self.flight.dropped()
        );
        for e in self.flight.iter() {
            out.push_str(&format!("  [{:>10}us] {}\n", e.at.as_micros(), e.event));
        }
        out
    }

    /// The flight dump frozen at the first conviction, if one fired.
    pub fn conviction_dump(&self) -> Option<&str> {
        self.conviction_dump.as_deref()
    }

    /// The longest gap repair so far, in µs (`rmp_recovery_us`' maximum),
    /// with the NACK ordinal of the last request this member had sent for
    /// that source when it completed: how far the backoff had climbed.
    pub fn longest_repair(&self) -> Option<(u64, u32)> {
        self.longest_repair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNum;
    use std::collections::BTreeSet;

    const G: GroupId = GroupId(1);
    const P2: ProcessorId = ProcessorId(2);

    fn tel(owner: u32) -> Telemetry {
        Telemetry::new(ProcessorId(owner))
    }

    /// Feed one event at virtual time `us`.
    fn at(tel: &mut Telemetry, us: u64, ev: Event<'_>) {
        tel.on_event(SimTime(us), &ev);
    }

    fn buffered(seq: u64) -> Event<'static> {
        Event::Buffered {
            group: G,
            source: P2,
            seq,
            depth: 1,
        }
    }

    fn ordered(ts: u64, source: u32, seq: u64) -> Event<'static> {
        Event::Ordered {
            group: G,
            key: (Timestamp(ts), ProcessorId(source)),
            seq,
        }
    }

    #[test]
    fn latency_series_correlate_open_and_close() {
        let mut tel = tel(1);
        // RMP recovery: buffered at 100, released at 700.
        at(&mut tel, 100, buffered(5));
        let released = Event::Released {
            group: G,
            source: P2,
            seq: 5,
        };
        at(&mut tel, 700, released);
        // Ordering delay: enqueued at 700, ordered at 1_000.
        let key = (Timestamp(9), P2);
        at(&mut tel, 700, Event::Enqueued { group: G, key });
        at(&mut tel, 1_000, ordered(9, 2, 5));
        // Stability lag: stable point passes ts 9 at 5_000.
        let stable = Event::Stable {
            group: G,
            stable_ts: Timestamp(9),
            reclaimed: 0,
        };
        at(&mut tel, 5_000, stable);
        let s = tel.reg.snapshot();
        assert_eq!(s.histogram("rmp_recovery_us").unwrap().max, 600);
        assert_eq!(s.histogram("ordering_delay_us").unwrap().max, 300);
        assert_eq!(s.histogram("stability_lag_us").unwrap().max, 4_000);
    }

    /// The longest repair keeps the ordinal of the last request sent for
    /// its source; a gap repaired on another member's request reads 0.
    #[test]
    fn the_longest_repair_carries_its_nack_ordinal() {
        let mut tel = tel(1);
        let nack = |attempts| Event::Nack {
            group: G,
            source: P2,
            start: 5,
            stop: 5,
            attempts,
        };
        let released = |seq| Event::Released {
            group: G,
            source: P2,
            seq,
        };
        at(&mut tel, 100, buffered(6));
        at(&mut tel, 1_000, nack(1));
        at(&mut tel, 9_000, nack(2));
        at(&mut tel, 25_100, released(6));
        assert_eq!(tel.longest_repair(), Some((25_000, 2)));
        // A shorter repair does not replace it; a longer one, asked for by
        // someone else, does, with no ordinal of its own.
        at(&mut tel, 30_000, buffered(8));
        at(&mut tel, 31_000, released(8));
        assert_eq!(tel.longest_repair(), Some((25_000, 2)));
        at(&mut tel, 40_000, buffered(10));
        at(&mut tel, 70_000, released(10));
        assert_eq!(tel.longest_repair(), Some((30_000, 0)));
    }

    #[test]
    fn own_send_to_self_delivery_yields_e2e() {
        let mut tel = tel(1);
        let sent = |seq, ts| Event::Sent {
            group: G,
            seq: SeqNum(seq),
            ts: Timestamp(ts),
            regular: true,
        };
        at(&mut tel, 50, sent(7, 12));
        at(&mut tel, 450, ordered(12, 1, 7));
        let s = tel.reg.snapshot();
        assert_eq!(s.histogram("e2e_self_us").unwrap().count, 1);
        assert_eq!(s.histogram("e2e_self_us").unwrap().max, 400);
        // A peer's delivery does not count toward e2e_self, and does not
        // consume the pending own send that happens to share its seq.
        at(&mut tel, 460, sent(1, 13));
        at(&mut tel, 500, ordered(14, 2, 1));
        assert_eq!(
            tel.reg.snapshot().histogram("e2e_self_us").unwrap().count,
            1
        );
        at(&mut tel, 560, ordered(13, 1, 1));
        assert_eq!(
            tel.reg.snapshot().histogram("e2e_self_us").unwrap().count,
            2
        );
    }

    #[test]
    fn stall_and_view_change_intervals() {
        let mut tel = tel(1);
        at(&mut tel, 1_000, Event::WindowClosed { group: G });
        at(&mut tel, 3_500, Event::WindowReopened { group: G });
        let started = |removals| Event::ReconfigStarted { group: G, removals };
        at(&mut tel, 10_000, started(1));
        // A second start must not reset the interval origin.
        at(&mut tel, 12_000, started(2));
        let members: BTreeSet<ProcessorId> = (1..=3).map(ProcessorId).collect();
        let installed = Event::ViewInstalled {
            group: G,
            members: &members,
            ts: Timestamp(99),
        };
        at(&mut tel, 30_000, installed);
        let s = tel.reg.snapshot();
        assert_eq!(s.histogram("flow_stall_us").unwrap().max, 2_500);
        assert_eq!(s.histogram("view_change_us").unwrap().max, 20_000);
        assert_eq!(s.counter("view_changes"), Some(1));
        assert!(tel
            .render_flight()
            .contains("view-installed g1 members=3 ts=99 after 20000us"));
    }

    #[test]
    fn conviction_freezes_flight_dump() {
        let mut tel = tel(3);
        let nack = Event::Nack {
            group: G,
            source: P2,
            start: 4,
            stop: 6,
            attempts: 1,
        };
        at(&mut tel, 100, nack);
        let suspected = Event::Suspected {
            group: G,
            suspect: P2,
        };
        at(&mut tel, 200, suspected);
        assert!(tel.conviction_dump().is_none());
        let convicted = |p| Event::Convicted {
            group: G,
            processor: ProcessorId(p),
        };
        at(&mut tel, 300, convicted(2));
        let dump = tel.conviction_dump().expect("frozen at conviction");
        assert!(dump.contains("flight recorder P3"));
        assert!(dump.contains("nack g1 for P2 [4,6] attempt=1"));
        assert!(dump.contains("suspected g1 P2"));
        assert!(dump.contains("convicted g1 P2"));
        // Later events do not mutate the frozen dump.
        at(&mut tel, 400, convicted(4));
        assert!(!tel.conviction_dump().unwrap().contains("P4"));
    }

    #[test]
    fn correlation_maps_are_bounded() {
        let mut tel = tel(1);
        for i in 0..2 * CORR_CAP as u64 {
            at(&mut tel, i, buffered(i));
        }
        assert!(tel.groups[&G].buffered_at.len() <= CORR_CAP);
    }
}
