//! One FTMP endpoint: the composition shell tying the RMP, ROMP and PGMP
//! layer state machines together.
//!
//! A [`Processor`] is a sans-io state machine. Feed it packets
//! ([`Processor::handle_packet`]) and timer ticks ([`Processor::tick`]), ask
//! it to do things (multicast a request, open a connection, add or remove a
//! member), then drain the [`Action`]s it produced: datagrams to send,
//! multicast groups to join or leave, ordered GIOP deliveries, and protocol
//! events (membership changes, fault reports, established connections).
//!
//! The protocol logic itself lives in the per-layer sub-state-machines, one
//! triple per group (`GroupState`):
//!
//! * [`RmpLayer`] — source order, NACKs, any-holder
//!   retention, one log per source. Typed interface:
//!   [`receive`](RmpLayer::receive) → [`RxOutcome`],
//!   [`note_header`](RmpLayer::note_header) → the contiguous cursor.
//! * [`RompLayer`] — total order, horizons, acks.
//!   Typed interface: [`RompInput`] → [`RompOutput`].
//! * [`PgmpGroup`] — membership, suspicion →
//!   conviction, reconfiguration. Two methods:
//!   [`suspect_report`](PgmpGroup::suspect_report) → the convicted,
//!   [`proposal`](PgmpGroup::proposal) → whether it was taken.
//!
//! The shell decodes packets, routes them through the layers (RMP releases
//! feed ROMP; ROMP control messages feed PGMP), turns layer outputs into
//! [`Action`]s via the reusable [`ActionSink`], and orchestrates everything
//! that crosses layers or groups: sending, connection establishment
//! (`connect`), membership reconfiguration (`membership`) and timers
//! (`timers`).
//!
//! Design notes (see DESIGN.md §4 for the full rationale):
//!
//! * **Synchronous self-delivery.** A processor processes its own reliable
//!   messages the instant it sends them, and treats the loopback copy as a
//!   duplicate. This makes the sender a perfectly ordinary group member —
//!   its own receive window and horizon are maintained by the same code
//!   paths that serve everyone else.
//! * **Ordered sends are gated** while a Connect gate is pending (§7) or a
//!   faulty-processor reconfiguration is running (§7.2); they queue and are
//!   released when the gate lifts.
//! * **Reclamation pinning.** While this processor sponsors a join it stops
//!   reclaiming its retention buffer so the joiner can always recover the
//!   stream suffix it was promised.
//! * **Zero-copy spine.** Payloads are `bytes::Bytes` end to end: a received
//!   datagram's buffer is shared into retention, retransmissions reuse it
//!   with the retransmission bit set (materialized at most once), and every
//!   queued resend (sponsor joins, Connect retries, exclusion notices) is a
//!   reference-counted handle, not a re-encode.

use crate::actions::ActionSink;
pub use crate::actions::{Action, Delivery, ProtocolEvent};
use crate::adaptive::{self, RttEstimator};
use crate::clock::{Clock, ClockMode};
use crate::config::{
    FlowControl, OverlayPolicy, ProtocolConfig, CONNECT_RETRY, JOIN_RETRY, MAX_NACK_SPAN,
};
use crate::ids::{
    ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use crate::observe::Observation;
use crate::overlay::{overlay_addr, OverlayTree};
use crate::pack::Packer;
use crate::pgmp::{ConnectionTable, PendingConnect, PgmpGroup, ServerRegistration, SponsorJoin};
use crate::rmp::{RmpLayer, RxOutcome};
use crate::romp::{RompInput, RompLayer, RompOutput, WindowEdge};
pub use crate::stats::{GroupMetrics, LayerCounters, ProcessorStats};
use crate::tap::{Event, Tap};
use crate::telemetry::Telemetry;
use crate::wire::{self, AckVector, FtmpBody, FtmpHeader, FtmpMessage, FtmpMsgType};
use bytes::Bytes;
use ftmp_cdr::{ByteOrder, CdrWriter};
use ftmp_net::draw::{self, draw};
use ftmp_net::{McastAddr, Packet, SimDuration, SimTime};
use ftmp_telemetry::Registry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

mod connect;
#[cfg(test)]
mod idle_tests;
mod membership;
mod ordered;
#[cfg(test)]
mod tests;
mod timers;

use membership::ViewChange;
use timers::{DetectorGate, NextDue};

/// The chance that a holder other than the original sender answers a
/// RetransmitRequest (§5: any processor that has the message may). About
/// 0.4 × holders answer, which keeps most of the every-holder latency win
/// at a fraction of its retransmissions; the original sender always answers.
const ANY_HOLDER_P: f64 = 0.4;

/// Horizon on demand's budget (DESIGN.md §4). A member blocking itself may
/// prompt before the free half-interval mark by spending a token. A group
/// earns one token per `PROMPT_EARN` datagrams received for it (loopback
/// included), banks at most `PROMPT_CAP` and starts with none. So this
/// path sends at most one Heartbeat per `PROMPT_EARN` datagrams received,
/// from members and strangers alike, plus the `PROMPT_CAP` burst; the
/// half-interval path adds its own one per `heartbeat_interval / 2`.
const PROMPT_EARN: u32 = 128;
/// Tokens a group may bank.
const PROMPT_CAP: u32 = 4;
/// The least silence before a paid prompt, so that the arrivals of one
/// burst share a Heartbeat instead of spending a token each.
const PROMPT_FLOOR: SimDuration = SimDuration::from_micros(500);

/// Result of asking to multicast a Regular message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Transmitted; the pair identifies it for latency correlation.
    Sent {
        /// Group it was sent in.
        group: GroupId,
        /// Sequence number assigned.
        seq: SeqNum,
    },
    /// Queued behind a Connect gate or a reconfiguration; it will be
    /// transmitted automatically when the group unblocks.
    Queued,
}

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The connection has no processor-group binding yet.
    NotConnected,
    /// This processor is not a member of the bound group.
    NotMember,
    /// The flow-control send window is closed (own unstable backlog at the
    /// high-water mark); retry after [`Action::SendReady`].
    Backpressured,
}

/// One group's layer triple plus the shell-owned transmission state.
#[derive(Debug)]
struct GroupState {
    addr: McastAddr,
    /// RMP: send counter and one log per source (receive window and
    /// retention in one).
    rmp: RmpLayer,
    /// ROMP: the total-order queue, horizons and acks.
    romp: RompLayer,
    /// PGMP: membership, fault-detector state, reconfiguration, retries.
    pgmp: PgmpGroup,
    /// NACK→retransmission round-trip estimator (Karn-filtered samples fed
    /// by the shell; drives the adaptive NACK/suppression timers).
    rtt: RttEstimator,
    last_sent: SimTime,
    pending_ordered: VecDeque<(ConnectionId, RequestNum, Bytes)>,
    /// When we last received a piggybacked ack vector for this group —
    /// evidence that peers are propagating ack state on real traffic.
    vector_seen_at: Option<SimTime>,
    /// One suppression is counted per send-gap, not per tick.
    hb_deferred_since_send: bool,
    /// Datagrams received towards paid prompts, at most `PROMPT_CAP ×
    /// PROMPT_EARN`; a prompt ahead of the half interval spends
    /// `PROMPT_EARN` of them.
    prompt_credit: u32,
    /// Last time ordered delivery made progress (or the queue was observed
    /// empty) — a queue stalled past half the fault-detector timeout marks
    /// this node as starving in tree mode.
    last_progress: SimTime,
    /// Rate limiters for the tree-mode solicitation fallback: when we last
    /// broadcast a solicit digest, and when we last answered one.
    last_solicit_sent: SimTime,
    last_solicit_answered: SimTime,
    /// Tombstones of voluntarily removed members: `(member, contiguous
    /// seq, horizon ts, ack ts)` captured at the instant we ordered the
    /// RemoveProcessor — at which point our horizon for the leaver had
    /// necessarily passed the remove's timestamp. A laggard that missed
    /// the leaver's last heartbeats can be handed exactly this evidence
    /// (see `maybe_rescue_laggard`). Bounded to the last few departures.
    departed: VecDeque<(ProcessorId, u64, Timestamp, Timestamp)>,
    /// Rate limiter for laggard rescues.
    last_rescue_sent: SimTime,
    /// Encoded piggyback vector memoized against `Ordering::ack_version`.
    vec_cache: Option<(u64, Bytes)>,
    /// Tree-mode dissemination overlay for the current view, lazily
    /// (re)built on the tick after a view installs (DESIGN.md §13). Always
    /// `None` under [`OverlayPolicy::Flat`].
    overlay: Option<OverlayState>,
    /// What the fault detector's scans read when they last ran, so a sweep
    /// skips a scan that cannot act (DESIGN.md §4 "The busy tick").
    detector: DetectorGate,
}

/// Why [`Processor::heartbeat_due`] says a Heartbeat is due: the ordinary
/// `heartbeat_interval` timer ran out, or this member is holding back
/// delivery and answers ahead of it (horizon on demand, DESIGN.md §4) —
/// for free past the half interval, or from the group's budget before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeartbeatDue {
    Timer,
    Prompted,
    Budgeted,
}

/// Where an [`FtmpBody::OverlayDigest`] is bound (DESIGN.md §13): the
/// steady-state neighborhood beacon, or the group-address solicitation
/// fallback (the starving node's request and a member's answer to one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DigestDest {
    Neighborhood,
    Solicit,
    Answer,
}

/// The overlay tree for one installed view plus the neighborhood
/// subscriptions realizing its edges (DESIGN.md §13).
#[derive(Debug)]
struct OverlayState {
    tree: OverlayTree,
    /// Membership snapshot the tree was computed from; any difference
    /// triggers a rebuild on the next tick.
    view_ts: Timestamp,
    members: BTreeSet<ProcessorId>,
    /// Our own neighborhood address: we publish digests and neighborhood
    /// repair here, and our tree neighbors subscribe to it.
    self_addr: McastAddr,
    /// The neighbor addresses we currently subscribe to.
    subscribed: BTreeSet<McastAddr>,
}

impl GroupState {
    /// A group whose view is `members` at `membership_ts`, every member
    /// presumed live at `now`. Ordering starts at the creation floor: a
    /// joiner's pre-join deliveries are held back by its `app_floor`, not
    /// by ordering.
    fn new(
        self_id: ProcessorId,
        addr: McastAddr,
        members: BTreeSet<ProcessorId>,
        membership_ts: Timestamp,
        now: SimTime,
        fc: FlowControl,
    ) -> Self {
        let mut romp = RompLayer::new(members.iter().copied(), Timestamp(0));
        romp.set_flow_control(fc);
        GroupState {
            addr,
            rmp: RmpLayer::new(self_id),
            romp,
            pgmp: PgmpGroup::new(members, membership_ts, now),
            rtt: RttEstimator::default(),
            last_sent: now,
            pending_ordered: VecDeque::new(),
            vector_seen_at: None,
            hb_deferred_since_send: false,
            prompt_credit: 0,
            last_progress: now,
            last_solicit_sent: now,
            last_solicit_answered: now,
            departed: VecDeque::new(),
            last_rescue_sent: now,
            vec_cache: None,
            overlay: None,
            detector: DetectorGate::default(),
        }
    }

    /// My contiguous reception per source (own stream included, because we
    /// self-deliver synchronously).
    fn contiguous_seqs(&self) -> BTreeMap<ProcessorId, u64> {
        self.pgmp
            .membership
            .iter()
            .map(|&p| (p, self.rmp.contiguous_of(p)))
            .collect()
    }

    /// Like [`contiguous_seqs`], but covering every source ever heard —
    /// reconciliation targets may cite processors a peer still counts as
    /// members while we removed them earlier (its view lagged ours).
    ///
    /// [`contiguous_seqs`]: GroupState::contiguous_seqs
    fn all_contiguous_seqs(&self) -> BTreeMap<ProcessorId, u64> {
        let mut out = self.contiguous_seqs();
        for (p, contig) in self.rmp.contiguous_map() {
            out.entry(p).or_insert(contig);
        }
        out
    }

    fn layer_counters(&self) -> LayerCounters {
        LayerCounters {
            rmp: self.rmp.counters(),
            romp: self.romp.counters(),
            pgmp: self.pgmp.counters,
        }
    }
}

/// The groups one sweep walks (DESIGN.md §4 "The busy tick"): their ids,
/// listed once when the sweep begins, then walked by every duty in turn
/// through [`Processor::walk`].
#[derive(Debug, Default)]
struct SweepList {
    ids: Vec<GroupId>,
    /// [`Processor::groups_made`] when `ids` was listed.
    made: u64,
}

/// One FTMP endpoint.
pub struct Processor {
    id: ProcessorId,
    cfg: ProtocolConfig,
    order: ByteOrder,
    clock: Clock,
    groups: BTreeMap<GroupId, GroupState>,
    conns: ConnectionTable,
    /// Groups we expect to be added to: group → its multicast address.
    expecting_joins: BTreeMap<GroupId, McastAddr>,
    sink: ActionSink,
    /// Outgoing datagram coalescing (DESIGN.md §5); pass-through when
    /// `cfg.packing.enabled` is false.
    packer: Packer,
    /// The counts whose home is the shell; [`Processor::stats`] fills in the
    /// fields the layers keep.
    stats: ProcessorStats,
    /// The layer counters of every group this processor has left, so
    /// [`Processor::layer_totals`] never runs backwards.
    departed: LayerCounters,
    /// The instrumentation tap (DESIGN.md §9): every instrumented site
    /// emits one borrowed [`Event`] here, and the conformance observations,
    /// telemetry and the durable delivery log each read that one stream.
    /// All three are off by default; an emit is then a single branch.
    tap: Tap,
    /// Reusable body-encode scratch: every outgoing message's CDR body is
    /// written into this one buffer, so steady-state sends pay a single
    /// exact-size output allocation (the [`Bytes`] that the Send action,
    /// retention store and self-delivery then share) instead of a body
    /// buffer plus a growing output buffer per message.
    enc_body: CdrWriter,
    /// [`handle_packed`](Processor::handle_packed)'s scratch — a container's
    /// zero-copy slices, then its admitted messages with their slices — kept
    /// so that splitting a container allocates neither list again. Empty
    /// between packets.
    rx_slices: Vec<Bytes>,
    rx_msgs: Vec<(FtmpMessage, Bytes)>,
    /// The container trailer being admitted, decoded into the entry list
    /// the last one left, so a trailer allocates nothing either.
    rx_vector: AckVector,
    /// [`try_deliver`](Processor::try_deliver)'s scratch: the messages one
    /// pass of the delivery rule released. Empty between passes.
    ordered: Vec<FtmpMessage>,
    /// While a packed container's run of same-group messages is being
    /// admitted: that group, and whether any of them asked for its
    /// housekeeping ([`try_deliver`](Processor::try_deliver)), which then
    /// runs once when the run ends (DESIGN.md §5).
    run: Option<(GroupId, bool)>,
    /// Open [`Processor::begin_batch`] nestings. While non-zero,
    /// [`flush_window`](Processor::flush_window) defers so every message
    /// submitted within the batch shares the Packer's container budget.
    batch_depth: u32,
    /// The idle-tick rule (DESIGN.md §4 "Adaptive timers"): the earliest
    /// time the last sweep found any timer duty could act. A tick before it
    /// skips the sweep; [`wake`](Processor::wake) clears it.
    idle_until: Option<SimTime>,
    /// Bumped whenever a group is created, so a sweep's walk can tell that
    /// its list of ids is short of one.
    groups_made: u64,
    /// [`sweep`](Processor::sweep)'s scratch: the ids of the groups it
    /// walks, listed once per sweep. Empty between sweeps.
    sweep_groups: SweepList,
    /// Sweep on every tick and run every duty in full: the reference the
    /// idle path and the duties' gates are tested against.
    #[cfg(test)]
    sweep_always: bool,
    /// How often each gated duty skipped (the busy-tick differential's
    /// coverage).
    #[cfg(test)]
    skips: timers::Skips,
}

/// Emit one wire datagram, counting containers as they leave.
fn emit_wire(
    sink: &mut ActionSink,
    stats: &mut ProcessorStats,
    tap: &mut Tap,
    now: SimTime,
    addr: McastAddr,
    payload: Bytes,
) {
    if wire::is_packed(&payload) {
        stats.packed_datagrams_sent += 1;
        let msgs = wire::message_count(&payload);
        stats.messages_packed += u64::from(msgs);
        tap.emit(now, Event::PackedSent { msgs });
    }
    sink.send(addr, payload);
}

/// Admission (DESIGN.md §4, "A stamp at the end of time"): `wire`'s header,
/// then its body only when the header is plausible. `Ok(None)`: stamped at
/// or past the receiver's [`Clock::reach`], dropped unread.
fn admit(wire: &Bytes, reach: u64) -> Result<Option<FtmpMessage>, wire::WireError> {
    let (h, body) = FtmpHeader::decode(wire)?;
    if h.ts.0.max(h.ack_ts.0) >= reach {
        return Ok(None);
    }
    FtmpMessage::from_header(&h, body, wire).map(Some)
}

/// Split a packed container into `slices` and its trailer into `vector`,
/// then [`admit`] every message into `msgs` beside its slice — all of it or
/// an error, so a container is never processed in part. True when the
/// container carried a trailer.
fn decode_container(
    datagram: &Bytes,
    reach: u64,
    slices: &mut Vec<Bytes>,
    msgs: &mut Vec<(FtmpMessage, Bytes)>,
    vector: &mut AckVector,
) -> Result<bool, wire::WireError> {
    let trailer = wire::unpack_into(datagram, slices, vector)?;
    for s in slices.drain(..) {
        if let Some(msg) = admit(&s, reach)? {
            msgs.push((msg, s));
        }
    }
    Ok(trailer)
}

/// `members` just took effect as `group`'s view: tell the tap, then the
/// application.
fn install_view(
    tap: &mut Tap,
    sink: &mut ActionSink,
    now: SimTime,
    group: GroupId,
    members: &BTreeSet<ProcessorId>,
    ts: Timestamp,
) {
    tap.emit(now, Event::ViewInstalled { group, members, ts });
    sink.event(ProtocolEvent::MembershipChange {
        group,
        members: members.iter().copied().collect(),
        ts,
    });
}

impl Processor {
    /// Create an endpoint.
    pub fn new(id: ProcessorId, cfg: ProtocolConfig, clock_mode: ClockMode) -> Self {
        let packer = Packer::new(cfg.packing.mtu, cfg.packing.policy);
        Processor {
            id,
            cfg,
            order: ByteOrder::native(),
            clock: Clock::new(clock_mode),
            groups: BTreeMap::new(),
            conns: ConnectionTable::default(),
            expecting_joins: BTreeMap::new(),
            sink: ActionSink::default(),
            packer,
            stats: ProcessorStats::default(),
            departed: LayerCounters::default(),
            tap: Tap::default(),
            enc_body: CdrWriter::new(ByteOrder::native()),
            rx_slices: Vec::new(),
            rx_msgs: Vec::new(),
            rx_vector: AckVector::default(),
            ordered: Vec::new(),
            run: None,
            batch_depth: 0,
            idle_until: None,
            groups_made: 0,
            sweep_groups: SweepList::default(),
            #[cfg(test)]
            sweep_always: false,
            #[cfg(test)]
            skips: timers::Skips::default(),
        }
    }

    /// Turn on observation recording (DESIGN.md §9). Recorded observations
    /// accumulate until drained with [`Processor::drain_observations_into`];
    /// protocol behaviour is unaffected.
    pub fn enable_observations(&mut self) {
        self.tap.obs.get_or_insert_with(Vec::new);
    }

    /// Move all recorded observations into `out` (cleared first). Both
    /// buffers keep their capacity; a no-op when recording is disabled.
    pub fn drain_observations_into(&mut self, out: &mut Vec<Observation>) {
        out.clear();
        if let Some(buf) = &mut self.tap.obs {
            std::mem::swap(buf, out);
        }
    }

    /// Turn on telemetry (DESIGN.md §10): latency histograms, the overlay
    /// and view-change counters and the flight recorder accumulate from this
    /// point on.
    /// Protocol behaviour — and wire traffic — is unaffected (the golden
    /// trace-hash test pins this).
    pub fn enable_telemetry(&mut self) {
        let tel = &mut self.tap.tel;
        tel.get_or_insert_with(|| Box::new(Telemetry::new(self.id)));
    }

    /// The telemetry state, when enabled (its registry, flight-recorder
    /// access).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tap.tel.as_deref()
    }

    /// Attach a durable delivery log (DESIGN.md §12). From this point every
    /// ordered delivery and installed view is handed to `log`; protocol
    /// behaviour — and wire traffic — is unaffected (the golden trace-hash
    /// test pins this).
    pub fn set_delivery_log(&mut self, log: Box<dyn crate::durable::DeliveryLog>) {
        self.tap.dlog = Some(log);
    }

    /// Whether a durable delivery log is attached.
    pub fn delivery_log_enabled(&self) -> bool {
        self.tap.dlog.is_some()
    }

    /// Render the current flight-recorder ring, when telemetry is enabled.
    pub fn flight_dump(&self) -> Option<String> {
        self.telemetry().map(Telemetry::render_flight)
    }

    /// The flight dump frozen at the first conviction, if telemetry is
    /// enabled and a conviction fired.
    pub fn conviction_dump(&self) -> Option<String> {
        self.telemetry()
            .and_then(|t| t.conviction_dump().map(str::to_owned))
    }

    /// This endpoint's id.
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// Protocol counters: the shell's own, with every field whose home is a
    /// layer (or a group's RTT estimator) filled in from there.
    pub fn stats(&self) -> ProcessorStats {
        let layers = self.layer_totals();
        let slowest = |of: fn(&RttEstimator) -> Option<SimDuration>| {
            let read = self.groups.values().filter_map(|g| of(&g.rtt));
            read.map(SimDuration::as_micros).max().unwrap_or(0)
        };
        ProcessorStats {
            retransmissions_sent: layers.rmp.retransmits_answered
                + self.stats.exclusion_notices_sent,
            duplicates: layers.rmp.duplicates,
            reconfigurations: layers.pgmp.reconfigurations,
            discarded_at_flush: layers.romp.discarded_at_flush,
            srtt_us: slowest(RttEstimator::srtt),
            rttvar_us: slowest(RttEstimator::rttvar),
            ..self.stats
        }
    }

    /// The one metrics read-out (DESIGN.md §10): the telemetry registry's
    /// histograms, peaks and overlay/view-change counters when telemetry is
    /// on, then every count the engine keeps regardless, each under one
    /// name. Counters add into `reg` and gauges rise, so a fleet calls this
    /// once per member on one registry.
    pub fn register_metrics(&self, reg: &mut Registry) {
        if let Some(t) = self.telemetry() {
            reg.merge(t.registry());
        }
        let (s, layers) = (self.stats(), self.layer_totals());
        for (name, count) in [
            ("nacks_sent", s.nacks_sent),
            ("retransmissions_answered", layers.rmp.retransmits_answered),
            ("rtt_samples", s.rtt_samples),
            ("window_closes", s.backpressure_closes),
            ("convictions", layers.pgmp.convictions),
            ("deliveries", layers.romp.delivered + layers.romp.flushed),
            ("packed_datagrams", s.packed_datagrams_sent),
            ("ftmp_messages_packed", s.messages_packed),
            ("ftmp_heartbeats_suppressed", s.heartbeats_suppressed),
            ("ftmp_heartbeats_prompted", s.heartbeats_prompted),
            ("ftmp_packed_rejects", s.packed_rejects),
            ("ftmp_control_received", s.control_received()),
            ("ftmp_retransmissions_received", s.retransmissions_received),
            (
                "ftmp_stamps_dropped_implausible",
                s.stamps_dropped_implausible,
            ),
        ] {
            let id = reg.counter(name);
            reg.inc(id, count);
        }
        for (name, level) in [("srtt_us", s.srtt_us), ("rttvar_us", s.rttvar_us)] {
            let id = reg.gauge(name);
            reg.raise(id, level as i64);
        }
    }

    /// Current membership of a group, if this processor belongs to it.
    pub fn membership(&self, group: GroupId) -> Option<Vec<ProcessorId>> {
        self.groups
            .get(&group)
            .map(|g| g.pgmp.membership.iter().copied().collect())
    }

    /// Buffer metrics for a group (experiment E6).
    pub fn group_metrics(&self, group: GroupId) -> Option<GroupMetrics> {
        self.groups.get(&group).map(|g| GroupMetrics {
            retention_msgs: g.rmp.retained_len(),
            retention_bytes: g.rmp.retained_bytes(),
            ordering_queue: g.romp.ordering().queue_len(),
            rx_buffered: g.rmp.buffered_total(),
            head_blocked_on: g.romp.ordering().head_blockers().collect(),
        })
    }

    /// The per-layer counters summed (high-water marks maxed) over every
    /// group this processor belongs to or has left.
    pub fn layer_totals(&self) -> LayerCounters {
        let mut total = self.departed;
        for g in self.groups.values() {
            total.merge(&g.layer_counters());
        }
        total
    }

    /// The processor group a connection is bound to.
    pub fn connection_group(&self, conn: ConnectionId) -> Option<GroupId> {
        self.conns.group_of(conn)
    }

    /// True while a reconfiguration is running in `group`.
    pub fn is_reconfiguring(&self, group: GroupId) -> bool {
        self.groups
            .get(&group)
            .is_some_and(|g| g.pgmp.reconfig.is_some())
    }

    /// Drain the accumulated actions into a fresh `Vec`. Like
    /// [`drain_actions_into`](Processor::drain_actions_into), this is the
    /// delivery log's turn boundary.
    pub fn drain_actions(&mut self) -> Vec<Action> {
        self.tap.flush_log();
        self.sink.take_all()
    }

    /// Drain the accumulated actions into a caller-owned scratch vector;
    /// both buffers keep their capacity (see the [`ActionSink`] contract in
    /// [`crate::actions`]). Prefer this in pump loops.
    ///
    /// Taking the actions is the turn boundary of an attached delivery log
    /// ([`DeliveryLog::flush`](crate::durable::DeliveryLog::flush)): the log
    /// has handed on every delivery in `out` before the host sees it.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        self.tap.flush_log();
        self.sink.drain_into(out);
    }

    /// Open a batch: until the matching [`end_batch`](Processor::end_batch),
    /// the per-entry-point Packer flush is deferred, so every message
    /// submitted inside the batch is coalesced against one container budget
    /// (the pump feeds the Packer once per batch instead of once per
    /// message). Nests; a no-op on the wire when `cfg.packing` is disabled,
    /// where sends bypass the Packer entirely.
    pub fn begin_batch(&mut self) {
        self.batch_depth += 1;
    }

    /// Close a batch opened by [`begin_batch`](Processor::begin_batch); the
    /// outermost close flushes every due Packer queue.
    ///
    /// Closing a batch leaves the idle deadline standing: the flush moves
    /// only the packer, which no timer duty reads, and a sweep inside the
    /// batch that left datagrams in the packer did not go idle.
    pub fn end_batch(&mut self, now: SimTime) {
        debug_assert!(self.batch_depth > 0, "end_batch without begin_batch");
        self.batch_depth = self.batch_depth.saturating_sub(1);
        if self.batch_depth == 0 {
            self.flush_window(now);
        }
    }

    // --- bootstrap & FT-infrastructure API ---------------------------------

    /// Create a processor group with a known initial membership (the fault
    /// tolerance infrastructure configures all members identically).
    pub fn create_group(
        &mut self,
        now: SimTime,
        group: GroupId,
        addr: McastAddr,
        members: impl IntoIterator<Item = ProcessorId>,
    ) {
        self.wake();
        let members: BTreeSet<ProcessorId> = members.into_iter().collect();
        debug_assert!(members.contains(&self.id), "creator must be a member");
        let gs = GroupState::new(
            self.id,
            addr,
            members,
            Timestamp(0),
            now,
            self.cfg.flow_control,
        );
        self.insert_group(group, gs);
        self.sink.push(Action::Join(addr));
    }

    /// Prepare to be added to `group` (subscribe and wait for AddProcessor).
    pub fn expect_join(&mut self, group: GroupId, addr: McastAddr) {
        self.wake();
        self.expecting_joins.insert(group, addr);
        self.sink.push(Action::Join(addr));
    }

    /// Sponsor the addition of `new_member` to `group` (§7.1). The sponsor
    /// retransmits the AddProcessor until the joiner is heard, and pins its
    /// retention buffer meanwhile.
    pub fn add_processor(&mut self, now: SimTime, group: GroupId, new_member: ProcessorId) {
        self.wake();
        let Some(g) = self.groups.get(&group) else {
            return;
        };
        if g.pgmp.membership.contains(&new_member)
            || g.pgmp.sponsor_joins.contains_key(&new_member)
            || g.pgmp.reconfig.is_some()
            || g.pgmp.provisional_since.is_some()
        {
            return; // the FT infrastructure retries after the membership settles
        }
        // Cite the *ordered* cut (§7.1): for each source, the last sequence
        // number whose message this sponsor has ordered. Messages beyond the
        // cut — including membership operations not yet reflected in the
        // membership snapshot below — are exactly what the joiner will
        // receive and order for itself, so snapshot and stream agree.
        let queued_min = g.romp.ordering().min_queued_seq_per_source();
        let seqs: Vec<(ProcessorId, u64)> = g
            .contiguous_seqs()
            .into_iter()
            .map(|(p, contig)| {
                let cut = queued_min
                    .get(&p)
                    .map_or(contig, |&qmin| contig.min(qmin.saturating_sub(1)));
                (p, cut)
            })
            .collect();
        let body = FtmpBody::AddProcessor {
            membership_ts: g.pgmp.membership_ts,
            membership: g.pgmp.membership.iter().copied().collect(),
            seqs,
            new_member,
        };
        let seq = self.send_reliable(now, group, body);
        let g = self.groups.get_mut(&group).expect("group exists");
        let retx = g
            .rmp
            .retx_bytes(self.id, seq.0)
            .expect("just sent and retained");
        g.pgmp.heard_any.remove(&new_member);
        g.pgmp.sponsor_joins.insert(
            new_member,
            SponsorJoin {
                retx,
                next_retry: now + JOIN_RETRY,
            },
        );
        self.flush_window(now);
    }

    /// Remove a non-faulty `member` from `group` (§7.1); takes effect when
    /// the RemoveProcessor message is ordered.
    pub fn remove_processor(&mut self, now: SimTime, group: GroupId, member: ProcessorId) {
        self.wake();
        if self.groups.get(&group).is_some_and(|g| {
            g.pgmp.membership.contains(&member)
                && g.pgmp.reconfig.is_none()
                && g.pgmp.provisional_since.is_none()
        }) {
            self.send_reliable(now, group, FtmpBody::RemoveProcessor { member });
            self.flush_window(now);
        }
    }

    /// Client side: solicit a connection to a server object group whose
    /// fault tolerance domain multicasts on `domain_addr` (§7). Retries
    /// until the server's Connect arrives.
    pub fn open_connection(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        client_processors: Vec<ProcessorId>,
        domain_addr: McastAddr,
    ) {
        self.wake();
        if self.conns.group_of(conn).is_some() {
            return;
        }
        self.sink.push(Action::Join(domain_addr));
        self.conns.pending.insert(
            conn,
            PendingConnect {
                client_processors: client_processors.clone(),
                domain_addr,
                next_retry: now + CONNECT_RETRY,
            },
        );
        self.send_connect_request(now, conn, &client_processors, domain_addr);
        self.flush_window(now);
    }

    /// Server side: register an object group so ConnectRequests for it can
    /// be answered. Every replica processor registers identically; the
    /// smallest-id processor acts as the connection primary.
    pub fn register_server(
        &mut self,
        og: ObjectGroupId,
        registration: ServerRegistration,
        domain_addr: McastAddr,
    ) {
        self.wake();
        self.sink.push(Action::Join(domain_addr));
        self.conns.servers.insert(og, registration);
        self.conns.server_domain_addrs.insert(og, domain_addr);
    }

    /// Statically bind a connection to a processor group (FT-infrastructure
    /// configured connections, bypassing the ConnectRequest/Connect
    /// handshake; every member must apply the same binding).
    pub fn bind_connection(&mut self, conn: ConnectionId, group: GroupId) {
        self.wake();
        self.conns.bind(conn, group);
    }

    /// Re-address a connection (§7): a Connect naming a *new* processor
    /// group and multicast address is ordered in the connection's *current*
    /// group, so every member switches at the same total-order position.
    /// A Regular message for the connection that gets ordered on the old
    /// group after the switch is ignored there and retransmitted by its
    /// sender on the new group, exactly as the paper prescribes.
    pub fn rebind_connection(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        new_group: GroupId,
        new_addr: McastAddr,
    ) {
        self.wake();
        let Some(old) = self.conns.group_of(conn) else {
            return;
        };
        if old == new_group {
            return;
        }
        let Some(g) = self.groups.get(&old) else {
            return;
        };
        let body = FtmpBody::Connect {
            conn,
            group: new_group,
            mcast_addr: new_addr.0,
            membership_ts: g.pgmp.membership_ts,
            membership: g.pgmp.membership.iter().copied().collect(),
        };
        self.send_reliable(now, old, body);
        self.flush_window(now);
    }

    /// Multicast a GIOP message on an established connection.
    pub fn multicast_request(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        request_num: RequestNum,
        giop: Bytes,
    ) -> Result<SendOutcome, SendError> {
        self.wake();
        let group = self.conns.group_of(conn).ok_or(SendError::NotConnected)?;
        let g = self.groups.get_mut(&group).ok_or(SendError::NotMember)?;
        if !g.romp.window().is_open() {
            self.stats.sends_refused += 1;
            return Err(SendError::Backpressured);
        }
        if g.pgmp.blocked() {
            g.pending_ordered.push_back((conn, request_num, giop));
            return Ok(SendOutcome::Queued);
        }
        let seq = self.send_reliable(
            now,
            group,
            FtmpBody::Regular {
                conn,
                request_num,
                giop,
            },
        );
        self.update_send_window(now, group);
        self.flush_window(now);
        Ok(SendOutcome::Sent { group, seq })
    }

    // --- event inputs -------------------------------------------------------

    /// Feed one received datagram. The packet's payload buffer is shared
    /// (not copied) into the retention store; a packed container is split
    /// into zero-copy per-message slices of the same buffer.
    pub fn handle_packet(&mut self, now: SimTime, pkt: &Packet) {
        self.wake();
        if wire::is_packed(&pkt.payload) {
            self.handle_packed(now, &pkt.payload);
        } else {
            match admit(&pkt.payload, self.clock.reach(now)) {
                Ok(Some(msg)) => {
                    let gid = msg.group;
                    self.earn_prompt_credit(gid);
                    self.process_message(now, msg, pkt.payload.clone(), false);
                    self.prompt_heartbeat(now, gid);
                }
                Ok(None) => self.stats.stamps_dropped_implausible += 1,
                Err(_) => {} // not FTMP or corrupt: ignored
            }
        }
        self.flush_window(now);
    }

    /// A packed container: validate it *whole* before processing anything —
    /// a framing error, or a body decode error of an admitted message,
    /// rejects the entire datagram (no partial delivery), counted in
    /// `packed_rejects`. An implausible message is dropped unread.
    fn handle_packed(&mut self, now: SimTime, datagram: &Bytes) {
        let mut slices = std::mem::take(&mut self.rx_slices);
        let mut msgs = std::mem::take(&mut self.rx_msgs);
        let mut vector = std::mem::take(&mut self.rx_vector);
        let reach = self.clock.reach(now);
        match decode_container(datagram, reach, &mut slices, &mut msgs, &mut vector) {
            Ok(trailer) => {
                let count = wire::message_count(datagram) as usize;
                self.stats.stamps_dropped_implausible += (count - msgs.len()) as u64;
                // One credit per datagram, to its first message's group,
                // however many runs it holds.
                if let Some((first, _)) = msgs.first() {
                    self.earn_prompt_credit(first.group);
                }
                self.admit_container(now, trailer.then_some(&vector), msgs.drain(..));
            }
            Err(_) => self.stats.packed_rejects += 1,
        }
        // A rejected container leaves handles on the datagram behind.
        slices.clear();
        msgs.clear();
        self.rx_slices = slices;
        self.rx_msgs = msgs;
        self.rx_vector = vector;
    }

    /// Process a container already validated whole: its ack vector, then
    /// its messages in runs of one group.
    fn admit_container(
        &mut self,
        now: SimTime,
        vector: Option<&AckVector>,
        msgs: impl Iterator<Item = (FtmpMessage, Bytes)>,
    ) {
        if let Some(v) = vector {
            if let Some(g) = self.groups.get_mut(&v.group) {
                // Relay-safe merge: record_ack only moves forward, so a
                // stale vector arriving late cannot regress stability.
                for &(p, ack) in &v.entries {
                    g.romp.ordering_mut().record_ack(p, ack);
                }
                g.vector_seen_at = Some(now);
                self.tap.emit(now, Event::AckVector(v));
            }
        }
        // A container is one destination's queue, so nearly always one
        // group's. Every message of a same-group run is admitted — through
        // RMP and into ROMP's queue — before the group is tidied, once, and
        // the prompt rule runs, once.
        for (msg, s) in msgs {
            let gid = msg.group;
            if self.run.map(|(of, _)| of) != Some(gid) {
                self.end_run(now);
                self.run = Some((gid, false));
            }
            self.process_message(now, msg, s, false);
        }
        self.end_run(now);
    }

    /// Close the container run being admitted: the housekeeping its messages
    /// asked for, then the prompt rule.
    fn end_run(&mut self, now: SimTime) {
        let Some((gid, asked)) = self.run.take() else {
            return;
        };
        if asked {
            self.try_deliver(now, gid);
        }
        self.prompt_heartbeat(now, gid);
    }

    /// True while this member is itself holding back the head of `g`'s
    /// ordering queue. No peer's horizon for us can be ahead of our own, so
    /// we are then a blocker at every other member too, and only a message
    /// from us — a Heartbeat, if we have nothing else to say — lets anyone
    /// deliver (DESIGN.md §4). Never true during a reconfiguration (ordered
    /// delivery is paused) or in tree mode (liveness travels as per-tick
    /// aggregated digests; per-message prompts would undo that).
    fn blocking_self(&self, g: &GroupState) -> bool {
        self.cfg.prompt_horizon
            && self.cfg.overlay == OverlayPolicy::Flat
            && g.pgmp.reconfig.is_none()
            && g.romp.ordering().blocks_head(self.id)
    }

    /// The one heartbeat rule, shared by the timer and by the end of
    /// [`handle_packet`](Self::handle_packet): due once nothing was sent for
    /// `heartbeat_interval`, or — *prompted* ahead of the timer — while
    /// [`blocking_self`](Self::blocking_self) holds and the silence is
    /// longer than half the interval (free: at most twice the idle
    /// heartbeat rate) or, paid from the group's budget, than
    /// `PROMPT_FLOOR` (at most one per `PROMPT_EARN` datagrams received).
    /// A member that sent within the floor never prompts.
    fn heartbeat_due(&self, g: &GroupState, now: SimTime) -> Option<HeartbeatDue> {
        let elapsed = now.saturating_since(g.last_sent);
        let interval = self.cfg.heartbeat_interval;
        if elapsed >= interval {
            return Some(HeartbeatDue::Timer);
        }
        let due = if elapsed.as_micros() > interval.as_micros() / 2 {
            HeartbeatDue::Prompted
        } else if elapsed > PROMPT_FLOOR && g.prompt_credit >= PROMPT_EARN {
            HeartbeatDue::Budgeted
        } else {
            return None;
        };
        self.blocking_self(g).then_some(due)
    }

    /// When [`heartbeat_due`](Self::heartbeat_due), false at `now`, can
    /// next turn true with no packet arriving and nothing sent: at the
    /// timer, or at the first prompt the rule allows if this member blocks
    /// itself. Past the half interval, or past the floor with a token,
    /// `heartbeat_due` has just found it not blocking, so only the timer is
    /// left and `blocking_self` is not asked twice.
    fn heartbeat_next(&self, g: &GroupState, now: SimTime) -> SimTime {
        let interval = self.cfg.heartbeat_interval;
        let half = SimDuration::from_micros(interval.as_micros() / 2);
        let timer = g.last_sent + interval;
        let elapsed = now.saturating_since(g.last_sent);
        let budgeted = g.prompt_credit >= PROMPT_EARN;
        if elapsed > half || (budgeted && elapsed > PROMPT_FLOOR) || !self.blocking_self(g) {
            return timer;
        }
        let wait = if budgeted { PROMPT_FLOOR } else { half };
        timer.min(g.last_sent + wait + SimDuration::from_micros(1))
    }

    /// A datagram for `gid` arrived: one credit towards a paid prompt.
    fn earn_prompt_credit(&mut self, gid: GroupId) {
        if let Some(g) = self.groups.get_mut(&gid) {
            g.prompt_credit = (g.prompt_credit + 1).min(PROMPT_CAP * PROMPT_EARN);
        }
    }

    /// Horizon on demand: having just processed a packet for `gid`,
    /// heartbeat at once if that group's delivery now waits on us and the
    /// rule allows a prompt. Otherwise nothing is sent here and the timer
    /// fires the same rule later.
    fn prompt_heartbeat(&mut self, now: SimTime, gid: GroupId) {
        let due = self
            .groups
            .get(&gid)
            .and_then(|g| self.heartbeat_due(g, now));
        if let Some(due @ (HeartbeatDue::Prompted | HeartbeatDue::Budgeted)) = due {
            self.send_heartbeat(now, gid, due);
        }
    }

    /// Send the Heartbeat [`heartbeat_due`](Self::heartbeat_due) asked
    /// for: a prompted one is counted, and a budgeted one spends a token.
    fn send_heartbeat(&mut self, now: SimTime, gid: GroupId, due: HeartbeatDue) {
        if due != HeartbeatDue::Timer {
            self.stats.heartbeats_prompted += 1;
        }
        if let (HeartbeatDue::Budgeted, Some(g)) = (due, self.groups.get_mut(&gid)) {
            g.prompt_credit -= PROMPT_EARN;
        }
        self.send_unreliable(now, gid, FtmpBody::Heartbeat);
    }

    /// Timer tick: heartbeats, NACKs, retries, the fault detector. A tick
    /// before the last sweep's deadline is idle (DESIGN.md §4): nothing can
    /// be due, so it does nothing at all.
    pub fn tick(&mut self, now: SimTime) {
        let idle = self.idle_until.is_some_and(|t| now < t);
        #[cfg(test)]
        let idle = idle && !self.sweep_always;
        if !idle {
            self.sweep(now);
        }
    }

    /// Every timer duty, each lowering the deadline the next tick compares
    /// against. Tree mode, a sweep that produced any action and a packer
    /// left holding datagrams never go idle: what was sent may have moved
    /// state a duty earlier in the same sweep already read, and the packer
    /// flushes on time. The fault detector's `Ordering::ack_ts()` records
    /// `last_ack_floor`, which an idle tick skips: no horizon moves between
    /// sweeps, so the value it would write is already there.
    ///
    /// The duties walk one list of group ids, taken here once, and each
    /// returns early when it has nothing to do (DESIGN.md §4 "The busy
    /// tick").
    fn sweep(&mut self, now: SimTime) {
        let mut next = NextDue::default();
        let actions = self.sink.len();
        if self.cfg.overlay != OverlayPolicy::Flat {
            next.at(now);
        }
        let mut list = std::mem::take(&mut self.sweep_groups);
        list.ids.extend(self.groups.keys().copied());
        list.made = self.groups_made;
        self.ensure_overlay(now, &mut list);
        self.tick_heartbeats(now, &mut list, &mut next);
        self.tick_overlay_solicits(now, &mut list);
        self.tick_nacks(now, &mut list, &mut next);
        self.tick_fault_detector(now, &mut list, &mut next);
        self.tick_retries(now, &mut list, &mut next);
        self.tick_provisional_joins(now, &mut list, &mut next);
        list.ids.clear();
        self.sweep_groups = list;
        self.flush_window(now);
        if self.sink.len() != actions || !self.packer.is_empty() {
            next.at(now);
        }
        self.idle_until = Some(next.0);
    }

    /// The next id of a duty's walk over `list`, `at` its position: the
    /// group a cursor over `groups` would visit next, or one it has left
    /// since (the duty skips those). A duty can create a group (its own
    /// reliable send can deliver a Connect); the walk then re-reads the ids
    /// past the last one it visited, and the next duty lists them all
    /// again, as a cursor would have found them.
    fn walk(&self, list: &mut SweepList, at: &mut usize) -> Option<GroupId> {
        if list.made != self.groups_made {
            use std::ops::Bound::{Excluded, Unbounded};
            let from = at
                .checked_sub(1)
                .map_or(Unbounded, |i| Excluded(list.ids[i]));
            list.ids.truncate(*at);
            list.ids
                .extend(self.groups.range((from, Unbounded)).map(|(&g, _)| g));
            if *at == 0 {
                list.made = self.groups_made;
            }
        }
        let gid = *list.ids.get(*at)?;
        *at += 1;
        Some(gid)
    }

    /// Make `gid`'s state the group's, counting the creation for
    /// [`walk`](Self::walk).
    fn insert_group(&mut self, gid: GroupId, gs: GroupState) {
        self.groups_made += 1;
        self.groups.insert(gid, gs);
    }

    /// Every duty runs in full, whatever its gate says: the reference.
    #[cfg(test)]
    fn forced(&self) -> bool {
        self.sweep_always
    }

    #[cfg(not(test))]
    fn forced(&self) -> bool {
        false
    }

    /// Leave the idle path: the next tick sweeps. Every entry point that can
    /// change what a timer duty reads calls this.
    fn wake(&mut self) {
        self.idle_until = None;
    }

    /// One group's state for a white-box test to change by hand; wakes the
    /// processor, as an entry point would.
    #[cfg(test)]
    fn group_mut(&mut self, gid: GroupId) -> &mut GroupState {
        self.wake();
        self.groups.get_mut(&gid).expect("test group exists")
    }

    // --- dissemination overlay (DESIGN.md §13) ------------------------------

    /// Tree mode: make every group's overlay match its installed view,
    /// rebuilding the tree and diffing neighborhood subscriptions when the
    /// membership changed. Views install at several places (ordered
    /// AddProcessor/RemoveProcessor, reconfiguration completion, Connect as
    /// outsider), so the overlay is reconciled lazily here — at most one
    /// tick behind, and during that window the stale tree still only routes
    /// control traffic, never reliable data.
    fn ensure_overlay(&mut self, now: SimTime, list: &mut SweepList) {
        let OverlayPolicy::Tree { arity } = self.cfg.overlay else {
            return;
        };
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let Some(g) = self.groups.get_mut(&gid) else {
                continue;
            };
            let stale = g.overlay.as_ref().is_none_or(|o| {
                o.view_ts != g.pgmp.membership_ts || o.members != g.pgmp.membership
            });
            if !stale {
                continue;
            }
            let tree = OverlayTree::build(g.pgmp.membership.iter().copied(), arity);
            let want: BTreeSet<McastAddr> = tree
                .neighbors(self.id)
                .into_iter()
                .map(|p| overlay_addr(gid, p))
                .collect();
            let had = g.overlay.take().map(|o| o.subscribed).unwrap_or_default();
            for &a in want.difference(&had) {
                self.sink.push(Action::Join(a));
            }
            for &a in had.difference(&want) {
                self.sink.push(Action::Leave(a));
            }
            let depth = tree.depth();
            g.overlay = Some(OverlayState {
                tree,
                view_ts: g.pgmp.membership_ts,
                members: g.pgmp.membership.clone(),
                self_addr: overlay_addr(gid, self.id),
                subscribed: want,
            });
            self.tap.emit(now, Event::OverlayRebuilt { depth });
        }
    }

    /// The tree-mode heartbeat substitute: one OverlayDigest to our own
    /// neighborhood address. The header carries our own seq/ts/ack exactly
    /// like a Heartbeat; the body relays our recorded (contiguous seq,
    /// horizon ts, ack ts) for every other view member, so each tree edge
    /// transports the whole subtree's liveness and ack state.
    ///
    /// `Solicit` and `Answer` instead broadcast on the flat group address:
    /// the escape hatch for a node the tree has stopped feeding (its only
    /// upstream left or wedged). A solicit asks every member to answer with
    /// its own digest, so one round restores fresh per-member evidence to
    /// the starving node no matter how the tree was severed.
    pub(super) fn send_overlay_digest(&mut self, now: SimTime, gid: GroupId, dest: DigestDest) {
        let Some(g) = self.groups.get(&gid) else {
            return;
        };
        let Some(o) = &g.overlay else {
            return;
        };
        let addr = match dest {
            DigestDest::Neighborhood => o.self_addr,
            DigestDest::Solicit | DigestDest::Answer => g.addr,
        };
        let entries: wire::DigestVector = g
            .pgmp
            .membership
            .iter()
            .filter(|&&p| p != self.id)
            .map(|&p| {
                let horizon = g.romp.ordering().horizon_of(p).unwrap_or(Timestamp::ZERO);
                let ack = g.romp.ordering().reported_ack_of(p).unwrap_or_default();
                (p, g.rmp.contiguous_of(p), horizon, ack)
            })
            .collect();
        self.send_unreliable_to(
            now,
            gid,
            Some(addr),
            FtmpBody::OverlayDigest {
                solicit: matches!(dest, DigestDest::Solicit),
                entries,
            },
        );
        self.tap.emit(now, Event::OverlayDigestSent(dest));
    }

    /// Merge a neighbor's digest: each entry is processed exactly like that
    /// member's own Heartbeat header — gap evidence for RMP, horizon/ack
    /// evidence for ROMP — plus a fault-detector refresh when the relayed
    /// clock strictly advanced (a dead member's clock freezes, so relays
    /// can never keep a dead member alive).
    fn handle_overlay_digest(&mut self, now: SimTime, msg: &FtmpMessage) {
        let FtmpBody::OverlayDigest {
            solicit,
            ref entries,
        } = msg.body
        else {
            return;
        };
        let gid = msg.group;
        let mut merged = 0usize;
        for &(p, seq, ts, ack) in entries {
            // Skip ourselves (we know better) and the relayer (its own
            // header was already processed by handle_unreliable_header).
            if p == self.id || p == msg.source {
                continue;
            }
            let Some(g) = self.groups.get_mut(&gid) else {
                return;
            };
            // Entries about non-members (the relayer's view may lag ours)
            // must not resurrect horizon slots a removal already cleared.
            if !g.pgmp.membership.contains(&p) {
                continue;
            }
            let prev = g.romp.ordering().horizon_of(p);
            let advance = g.rmp.note_header(p, SeqNum(seq)) >= seq;
            g.romp.handle(RompInput::Evidence {
                source: p,
                ts,
                ack_ts: ack,
                advance,
            });
            if !advance {
                g.romp.ordering_mut().hold_evidence(p, seq, ts);
            }
            // Per-source send timestamps are strictly increasing, so a
            // strictly larger relayed horizon proves p produced traffic
            // since we last heard (directly or transitively) from it.
            if advance && ts > prev.unwrap_or(Timestamp::ZERO) {
                g.pgmp.note_heard(p, now, true);
                merged += 1;
            }
            let acked = Event::Acked {
                group: gid,
                member: p,
                ts: ack,
            };
            self.tap.emit(now, acked);
        }
        if merged > 0 {
            self.tap
                .emit(now, Event::OverlayEntriesMerged { n: merged });
        }
        self.try_deliver(now, gid);
        // A solicit is a starvation beacon: answer with our own digest on
        // the group address so the sender (and any other cut-off node) gets
        // fresh per-member headers without a tree path. Rate-limited to one
        // answer per heartbeat interval so forty simultaneous solicitors
        // cost one datagram, not forty.
        if solicit && msg.source != self.id {
            let answer_due = self.groups.get(&gid).is_some_and(|g| {
                g.overlay.is_some()
                    && now.saturating_since(g.last_solicit_answered) >= self.cfg.heartbeat_interval
            });
            if answer_due {
                if let Some(g) = self.groups.get_mut(&gid) {
                    g.last_solicit_answered = now;
                }
                self.send_overlay_digest(now, gid, DigestDest::Answer);
            }
        }
    }

    /// Where a NACK for `src`'s messages should go in tree mode: the first
    /// two attempts solicit the tree neighborhood (any neighbor holds every
    /// reliable message, since data still travels on the group address);
    /// persistent gaps escalate to the whole group. `None` = group address.
    pub(super) fn overlay_nack_dest(
        &mut self,
        now: SimTime,
        gid: GroupId,
        src: ProcessorId,
    ) -> Option<McastAddr> {
        if !matches!(self.cfg.overlay, OverlayPolicy::Tree { .. }) {
            return None;
        }
        let g = self.groups.get(&gid)?;
        let o = g.overlay.as_ref()?;
        // nack_requests has already bumped the attempt counter, so this is
        // the episode ordinal (1 = first request).
        let escalated = g.rmp.nack_attempts_of(src) > 2;
        let dest = (!escalated).then_some(o.self_addr);
        self.tap.emit(now, Event::OverlayRepair { escalated });
        dest
    }

    // --- send helpers -------------------------------------------------------

    /// Route one outgoing datagram: straight to the sink when packing is
    /// disabled (byte-for-byte the pre-packing protocol), through the
    /// [`Packer`] otherwise.
    fn send_wire(&mut self, now: SimTime, addr: McastAddr, payload: Bytes) {
        if !self.cfg.packing.enabled {
            self.sink.send(addr, payload);
            return;
        }
        let Processor {
            packer,
            sink,
            stats,
            tap,
            ..
        } = self;
        packer.push(now, addr, payload, &mut |a, b| {
            emit_wire(sink, stats, tap, now, a, b)
        });
    }

    /// Flush every packer queue that is due under the configured policy,
    /// attaching the owning group's piggyback ack vector (memoized against
    /// [`Ordering::ack_version`](crate::romp::Ordering::ack_version)) to
    /// group-address containers. Called at the end of every public entry
    /// point; a no-op when packing is disabled.
    fn flush_window(&mut self, now: SimTime) {
        if self.batch_depth > 0 {
            return; // deferred to the outermost end_batch
        }
        if !self.cfg.packing.enabled || self.packer.is_empty() {
            return;
        }
        for addr in self.packer.due(now) {
            let trailer = self.piggyback_vector(addr);
            let Processor {
                packer,
                sink,
                stats,
                tap,
                ..
            } = self;
            packer.flush_addr(addr, trailer.as_deref(), &mut |a, b| {
                emit_wire(sink, stats, tap, now, a, b)
            });
        }
    }

    /// The encoded ack vector of the group multicasting on `addr` — the
    /// group address, or in tree mode our own neighborhood address, so
    /// aggregated vectors ride packed overlay containers to the tree
    /// neighbors too. Domain addresses have no group and get no trailer.
    /// Re-encoded only when the reported acks changed (`ack_version`).
    fn piggyback_vector(&mut self, addr: McastAddr) -> Option<Bytes> {
        let (gid, g) = self.groups.iter_mut().find(|(_, g)| {
            g.addr == addr || g.overlay.as_ref().is_some_and(|o| o.self_addr == addr)
        })?;
        let ver = g.romp.ordering().ack_version();
        if let Some((v, bytes)) = &g.vec_cache {
            if *v == ver {
                return Some(bytes.clone());
            }
        }
        // Sized to the view up front: one allocation, where collecting the
        // filtered rows would grow the vector as it goes.
        let mut entries = Vec::with_capacity(g.pgmp.membership.len());
        entries.extend(g.romp.ordering().reported_acks());
        if entries.is_empty() {
            return None;
        }
        let bytes = wire::encode_ack_vector(&AckVector {
            group: *gid,
            entries,
        });
        g.vec_cache = Some((ver, bytes.clone()));
        Some(bytes)
    }

    /// Encode one outgoing message through the reusable body scratch: one
    /// exact-size allocation per send, shared refcounted by every consumer
    /// of the resulting handle.
    fn encode_wire(&mut self, msg: &FtmpMessage) -> Bytes {
        msg.encode_with_scratch(self.order, &mut self.enc_body)
    }

    fn send_reliable(&mut self, now: SimTime, group: GroupId, body: FtmpBody) -> SeqNum {
        let (msg, addr) = {
            let g = self.groups.get_mut(&group).expect("send to known group");
            let seq = g.rmp.allocate_seq();
            let ts = self.clock.stamp_send(now);
            let ack_ts = g.romp.ordering().ack_ts();
            let msg = FtmpMessage {
                retransmission: false,
                source: self.id,
                group,
                seq,
                ts,
                ack_ts,
                body,
            };
            g.last_sent = now;
            g.hb_deferred_since_send = false;
            (msg, g.addr)
        };
        let encoded = self.encode_wire(&msg);
        self.stats.sent[msg.msg_type() as usize] += 1;
        let sent = Event::Sent {
            group,
            seq: msg.seq,
            ts: msg.ts,
            regular: matches!(msg.body, FtmpBody::Regular { .. }),
        };
        self.tap.emit(now, sent);
        // Both handles below are refcounted views of the same arena bytes:
        // the Send action, the retention store and the self-processed copy
        // all share one buffer, no payload is duplicated.
        self.send_wire(now, addr, encoded.clone());
        let seq = msg.seq;
        // Synchronous self-delivery: we are an ordinary member of our own
        // groups; the loopback copy will dedupe.
        self.process_message(now, msg, encoded, true);
        seq
    }

    fn send_unreliable(&mut self, now: SimTime, group: GroupId, body: FtmpBody) {
        self.send_unreliable_to(now, group, None, body);
    }

    /// Like [`send_unreliable`](Self::send_unreliable), but with an optional
    /// destination override — tree mode aims digests and neighborhood
    /// repair at the sender's own overlay address instead of the group's.
    fn send_unreliable_to(
        &mut self,
        now: SimTime,
        group: GroupId,
        addr_override: Option<McastAddr>,
        body: FtmpBody,
    ) {
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        let msg = FtmpMessage {
            retransmission: false,
            source: self.id,
            group,
            seq: g.rmp.last_seq(),
            ts: self.clock.stamp_send(now),
            ack_ts: g.romp.ordering().ack_ts(),
            body,
        };
        let addr = addr_override.unwrap_or(g.addr);
        if matches!(
            msg.msg_type(),
            FtmpMsgType::Heartbeat | FtmpMsgType::OverlayDigest
        ) {
            g.last_sent = now;
            g.hb_deferred_since_send = false;
        }
        self.stats.sent[msg.msg_type() as usize] += 1;
        let encoded = self.encode_wire(&msg);
        self.send_wire(now, addr, encoded.clone());
        // Self-process so our own horizon tracks our own liveness; the
        // handle is a refcounted view of the sent bytes.
        self.process_message(now, msg, encoded, true);
    }

    fn send_connect_request(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        client_processors: &[ProcessorId],
        domain_addr: McastAddr,
    ) {
        // §7: destination group id, sequence number and timestamp are 0.
        let msg = FtmpMessage {
            retransmission: false,
            source: self.id,
            group: GroupId(0),
            seq: SeqNum(0),
            ts: Timestamp::ZERO,
            ack_ts: Timestamp::ZERO,
            body: FtmpBody::ConnectRequest {
                conn,
                client_processors: client_processors.to_vec(),
            },
        };
        self.stats.sent[FtmpMsgType::ConnectRequest as usize] += 1;
        let encoded = self.encode_wire(&msg);
        self.send_wire(now, domain_addr, encoded);
    }

    // --- receive pipeline ---------------------------------------------------

    fn process_message(&mut self, now: SimTime, msg: FtmpMessage, wire: Bytes, own: bool) {
        if !own {
            self.stats.received[msg.msg_type() as usize] += 1;
            if msg.retransmission {
                self.stats.retransmissions_received += 1;
            }
        }
        match msg.msg_type() {
            FtmpMsgType::ConnectRequest => {
                if !own {
                    self.handle_connect_request(now, &msg);
                }
            }
            FtmpMsgType::Heartbeat
            | FtmpMsgType::RetransmitRequest
            | FtmpMsgType::OverlayDigest => {
                self.handle_unreliable_header(now, &msg, own);
                if let (FtmpMsgType::RetransmitRequest, false) = (msg.msg_type(), own) {
                    self.handle_retransmit_request(now, &msg);
                }
                if let (FtmpMsgType::OverlayDigest, false) = (msg.msg_type(), own) {
                    self.handle_overlay_digest(now, &msg);
                }
            }
            _ => self.handle_reliable(now, msg, wire, own),
        }
    }

    /// Heartbeats and RetransmitRequests: no delivery, but their headers
    /// carry the sender's last sequence number (gap evidence for RMP),
    /// timestamp (horizon, if contiguous) and ack (stability) for ROMP.
    fn handle_unreliable_header(&mut self, now: SimTime, msg: &FtmpMessage, own: bool) {
        let Some(g) = self.groups.get_mut(&msg.group) else {
            return;
        };
        if !own {
            self.clock.observe(msg.ts);
            g.pgmp.note_heard(msg.source, now, true);
        }
        let advance = g.rmp.note_header(msg.source, msg.seq) >= msg.seq.0;
        g.romp.handle(RompInput::Evidence {
            source: msg.source,
            ts: msg.ts,
            ack_ts: msg.ack_ts,
            advance,
        });
        if !advance {
            g.romp
                .ordering_mut()
                .hold_evidence(msg.source, msg.seq.0, msg.ts);
        }
        let acked = Event::Acked {
            group: msg.group,
            member: msg.source,
            ts: msg.ack_ts,
        };
        self.tap.emit(now, acked);
        if !own {
            self.maybe_send_exclusion_notice(now, msg.group, msg.source);
        }
        self.try_deliver(now, msg.group);
    }

    /// If `source` transmits to a group it is no longer a member of, re-send
    /// the Membership message that installed the current membership
    /// (rate-limited): the excluded processor may have been partitioned
    /// through the change and cannot recover the original reliable copies.
    fn maybe_send_exclusion_notice(&mut self, now: SimTime, gid: GroupId, source: ProcessorId) {
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        // The two field reads first: the membership look-up is the one that
        // costs, and with no notice to send or its retry not yet due, every
        // packet would pay it for nothing.
        let Some(notice) = &g.pgmp.membership_notice else {
            return;
        };
        if now < g.pgmp.notice_retx_at
            || g.pgmp.membership.contains(&source)
            || g.pgmp.reconfig.is_some()
        {
            return;
        }
        let payload = notice.clone();
        g.pgmp.notice_retx_at = now + JOIN_RETRY;
        let addr = g.addr;
        self.stats.exclusion_notices_sent += 1;
        self.send_wire(now, addr, payload);
    }

    fn handle_reliable(&mut self, now: SimTime, msg: FtmpMessage, wire: Bytes, own: bool) {
        let gid = msg.group;
        if !self.groups.contains_key(&gid) {
            // Not (yet) a member: PGMP handles Connect/AddProcessor that
            // create or join groups; everything else is not for us.
            match &msg.body {
                FtmpBody::Connect { .. } => self.handle_connect_as_outsider(now, msg, wire),
                FtmpBody::AddProcessor { new_member, .. } if *new_member == self.id => {
                    self.handle_add_as_joiner(now, msg, wire)
                }
                _ => {}
            }
            return;
        }
        // Exclusion notice (the Membership analogue of Fig. 3's Connect /
        // AddProcessor exceptions): a Membership message from a current
        // member whose quorate new membership omits us is authoritative —
        // we were convicted while unable to hear it (e.g. partitioned), so
        // leave rather than wait for a reliable delivery that can no longer
        // happen (the survivors may have reclaimed the original copies).
        if !own {
            if let FtmpBody::Membership {
                membership_ts,
                ref membership,
                ref new_membership,
                ..
            } = msg.body
            {
                let Some(g) = self.groups.get(&gid) else {
                    return;
                };
                let quorum = self.cfg.suspect_quorum.required(membership.len());
                // The epoch guard (membership_ts) keeps a joiner from being
                // "excluded" by replayed proposals that predate the
                // membership which admitted it.
                if membership_ts >= g.pgmp.membership_ts
                    && g.pgmp.membership.contains(&msg.source)
                    && membership.contains(&self.id)
                    && !new_membership.contains(&self.id)
                    && new_membership.len() >= quorum
                {
                    self.leave_group(gid);
                    return;
                }
            }
        }
        if !own {
            self.clock.observe(msg.ts);
            // Near-miss signal: how much of this peer's failure timeout had
            // elapsed when it finally spoke again? 1000‰ would have been a
            // suspicion; only notable silences (≥250‰) are recorded.
            if self.tap.measuring() && !msg.retransmission && msg.source != self.id {
                let permille = self.groups.get(&gid).and_then(|g| {
                    let peer = g.pgmp.peers.get(&msg.source)?;
                    let timeout = crate::adaptive::fail_timeout_for(&self.cfg, &peer.arrivals)
                        .as_micros()
                        .max(1);
                    let silence = now.saturating_since(peer.last_heard).as_micros();
                    Some(silence.saturating_mul(1000) / timeout)
                });
                if let Some(permille) = permille.filter(|&p| p >= 250) {
                    self.tap.emit(now, Event::PeerSilence { permille });
                }
            }
            let Some(g) = self.groups.get_mut(&gid) else {
                return;
            };
            g.pgmp.note_heard(msg.source, now, !msg.retransmission);
            self.maybe_send_exclusion_notice(now, gid, msg.source);
        }
        let from_self = msg.source == self.id;
        let (rx_src, rx_seq, rx_ts) = (msg.source, msg.seq, msg.ts);
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        // A retransmission answering our own single outstanding NACK is an
        // RTT sample (Karn's rule enforced by the receive window).
        if msg.retransmission && !own && !from_self {
            if let Some(sample) = g.rmp.rtt_sample_for(msg.source, now) {
                g.rtt.observe(sample);
                self.stats.rtt_samples += 1;
            }
        }
        let (outcome, retained) = g.rmp.receive(msg, wire, own);
        // RMP retains idempotently: the arrival that retained the message
        // is the one reported, before what the window made of it.
        if retained && self.tap.observing() {
            let retained = Event::Retained {
                group: gid,
                source: rx_src,
                seq: rx_seq,
                ts: rx_ts,
            };
            self.tap.emit(now, retained);
        }
        match outcome {
            // Counted by RMP (our own loopback copy is an expected
            // duplicate, not a retransmission anomaly).
            RxOutcome::Duplicate => {}
            RxOutcome::Buffered => {
                let buffered = Event::Buffered {
                    group: gid,
                    source: rx_src,
                    seq: rx_seq.0,
                    depth: g.rmp.buffered_total() as u64,
                };
                self.tap.emit(now, buffered);
            }
            RxOutcome::Delivered(run) => {
                for m in run {
                    if !self.groups.contains_key(&gid) {
                        break; // an earlier message in the run made us leave
                    }
                    let released = Event::Released {
                        group: gid,
                        source: m.source,
                        seq: m.seq.0,
                    };
                    self.tap.emit(now, released);
                    self.source_ordered(now, gid, m);
                }
            }
        }
        self.try_deliver(now, gid);
    }

    /// RMP released `m` in source order: feed it to ROMP and route the
    /// control messages ROMP rejects from total order up to PGMP (Fig. 3).
    fn source_ordered(&mut self, now: SimTime, gid: GroupId, m: FtmpMessage) {
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        // ROMP records the carried ack timestamp for every source-ordered
        // message (§6).
        let acked = Event::Acked {
            group: gid,
            member: m.source,
            ts: m.ack_ts,
        };
        self.tap.emit(now, acked);
        let key = (m.ts, m.source);
        match g.romp.handle(RompInput::SourceOrdered(m)) {
            RompOutput::Enqueued => self.tap.emit(now, Event::Enqueued { group: gid, key }),
            RompOutput::Control(m) => match m.body {
                FtmpBody::Suspect { ref suspects, .. } => {
                    let set: BTreeSet<ProcessorId> = suspects.iter().copied().collect();
                    self.maybe_rescue_laggard(now, gid, m.source, &set);
                    self.on_suspect_report(now, gid, m.source, set);
                }
                FtmpBody::Membership {
                    ref membership,
                    ref seqs,
                    ref new_membership,
                    ..
                } => {
                    // Process a proposal only if the sender counts us in the
                    // membership it is reconfiguring. A proposal that omits
                    // us is either ancient (a joiner replaying traffic from
                    // before its admission — acting on it would self-exclude
                    // the joiner) or an authoritative exclusion, and the
                    // latter is handled by the direct quorate-exclusion
                    // check on reception. A *lagging* peer's proposal (older
                    // epoch but naming us) must be processed: its votes are
                    // what break the stall it is in.
                    if membership.contains(&self.id) {
                        let proposed: BTreeSet<ProcessorId> =
                            new_membership.iter().copied().collect();
                        let seqs = seqs.clone();
                        self.on_membership_proposal(now, gid, m.source, proposed, seqs);
                    }
                }
                _ => unreachable!("only Suspect/Membership are reliable unordered"),
            },
            RompOutput::Noted => unreachable!("SourceOrdered never yields Noted"),
        }
    }

    /// A current member suspecting a processor we already removed is the
    /// signature of the voluntary-leave race: the leaver's final clock
    /// evidence rides on a handful of unreliable heartbeats (or, in tree
    /// mode, digests that stop relaying it the moment healthy nodes drop it
    /// from their view), so a member that missed them can never advance the
    /// leaver's horizon past the remove and wedges at that position —
    /// suspecting the departed forever. We hold the proof it needs: the
    /// tombstone captured when we ordered the remove. The lowest live
    /// member answers with a digest carrying exactly the tombstoned
    /// entries; loss of the rescue is retried for free by the laggard's
    /// periodic Suspect re-announcements.
    fn maybe_rescue_laggard(
        &mut self,
        now: SimTime,
        gid: GroupId,
        sender: ProcessorId,
        suspects: &BTreeSet<ProcessorId>,
    ) {
        let Some(g) = self.groups.get(&gid) else {
            return;
        };
        if sender == self.id || !g.pgmp.membership.contains(&sender) {
            return;
        }
        let entries: wire::DigestVector = g
            .departed
            .iter()
            .filter(|(p, ..)| suspects.contains(p) && !g.pgmp.membership.contains(p))
            .copied()
            .collect();
        if entries.is_empty() {
            return;
        }
        // Deterministic single rescuer — every member holding the tombstone
        // hears the same Suspect, so without this the whole group would
        // answer at once.
        let rescuer = g.pgmp.membership.iter().copied().find(|&p| p != sender);
        if rescuer != Some(self.id)
            || now.saturating_since(g.last_rescue_sent) < self.cfg.heartbeat_interval
        {
            return;
        }
        if let Some(g) = self.groups.get_mut(&gid) {
            g.last_rescue_sent = now;
        }
        self.send_unreliable_to(
            now,
            gid,
            None,
            FtmpBody::OverlayDigest {
                solicit: false,
                entries,
            },
        );
        self.tap.emit(now, Event::OverlayRescue);
    }

    /// Run the ROMP delivery rule to exhaustion, then housekeeping: buffer
    /// reclamation, gate release, the send window, reconfiguration
    /// completion. Asked for after every message; inside a packed
    /// container's run the asking is only noted, and
    /// [`end_run`](Self::end_run) does it once for the run.
    fn try_deliver(&mut self, now: SimTime, gid: GroupId) {
        if let Some((_, asked)) = self.run.as_mut().filter(|(of, _)| *of == gid) {
            *asked = true; // once, when the container's run ends
            return;
        }
        let mut delivered_any = false;
        let mut batch = std::mem::take(&mut self.ordered);
        while let Some(g) = self.groups.get_mut(&gid) {
            // §7.2: ordered delivery pauses while a reconfiguration is in
            // progress. The membership flush delivers exactly up to the
            // agreed per-source targets; a survivor that kept delivering a
            // removed member's late arrivals here would run past the
            // targets its peers flush to (they discard that tail) and the
            // views would diverge. Control traffic and RMP recovery bypass
            // total order, so pausing cannot stall the reconfiguration.
            if g.pgmp.reconfig.is_some() {
                break;
            }
            g.romp.deliver_into(&mut batch);
            if batch.is_empty() {
                break;
            }
            delivered_any = true;
            for m in batch.drain(..) {
                self.handle_ordered(now, gid, m);
            }
        }
        self.ordered = batch;
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        // Starvation clock for the tree-mode solicit fallback: "progress"
        // is either an actual ordered delivery or an empty queue (nothing
        // to starve on).
        if delivered_any || g.romp.ordering().queue_len() == 0 {
            g.last_progress = now;
        }
        if !g.pgmp.reclaim_pinned() {
            let stable_ts = g.romp.ordering().stable_ts();
            let reclaimed = g.rmp.reclaim_stable(stable_ts);
            let stable = Event::Stable {
                group: gid,
                stable_ts,
                reclaimed,
            };
            self.tap.emit(now, stable);
        }
        if let Some(gate) = g.pgmp.gate {
            if g.romp.ordering().gate_released(gate) {
                g.pgmp.gate = None;
                self.flush_pending(now, gid);
            }
        }
        // Stability may have drained our unstable backlog: let the send
        // window reopen and tell the application.
        self.update_send_window(now, gid);
        self.maybe_complete_reconfig(now, gid);
    }

    /// Feed this group's own unstable-retention occupancy (messages we sent
    /// that are not yet stable everywhere — what the members' ack
    /// timestamps bound) into the flow-control window, surfacing edges as
    /// [`Action::Backpressure`] / [`Action::SendReady`]. With flow control
    /// off the window has no edges, and nothing is looked up.
    fn update_send_window(&mut self, now: SimTime, gid: GroupId) {
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        if !g.romp.window().enforced() {
            return;
        }
        let occupancy = g.rmp.held_by(self.id);
        match g.romp.update_window(occupancy) {
            Some(WindowEdge::Closed) => {
                self.stats.backpressure_closes += 1;
                self.tap.emit(now, Event::WindowClosed { group: gid });
                self.sink.push(Action::Backpressure(gid));
            }
            Some(WindowEdge::Reopened) => {
                self.stats.backpressure_opens += 1;
                self.tap.emit(now, Event::WindowReopened { group: gid });
                self.sink.push(Action::SendReady(gid));
                self.flush_pending(now, gid);
            }
            None => {}
        }
    }

    /// Answer a peer's RetransmitRequest from RMP's retention store; the
    /// retransmission bytes are reference-counted handles built at most
    /// once per retained message.
    fn handle_retransmit_request(&mut self, now: SimTime, msg: &FtmpMessage) {
        let FtmpBody::RetransmitRequest {
            missing_from,
            start_seq,
            stop_seq,
        } = msg.body
        else {
            return;
        };
        let gid = msg.group;
        // Our own request, looped back: we asked because we lack those
        // messages, and another holder answers.
        let Some(g) = self.groups.get(&gid).filter(|_| msg.source != self.id) else {
            return;
        };
        // Tree mode: a request from a tree neighbor is neighborhood repair —
        // we are one of the few processors that even heard it, so we must
        // answer (no any-holder coin), and the answer goes to our own
        // neighborhood address instead of waking the whole group. Requests
        // escalated to the group address keep the flat policy and the flat
        // group-address answer; so does anything during a reconfiguration,
        // where reconciliation must reach every survivor.
        let neighborhood: Option<McastAddr> = g
            .overlay
            .as_ref()
            .filter(|o| o.tree.is_neighbor(self.id, msg.source))
            .map(|o| o.self_addr);
        // During a membership change every holder must answer: the
        // reconciliation targets may name messages whose original sender is
        // the convicted processor (the coin only trims the failure-free
        // path; correctness of virtual synchrony cannot hinge on a dead
        // sender). The same override applies after the sender has been
        // removed — a peer still reconciling can ask for a dead member's
        // message after this holder already installed the new membership.
        let everyone = g.pgmp.reconfig.is_some() || !g.pgmp.membership.contains(&missing_from);
        let addr = if everyone {
            g.addr
        } else {
            neighborhood.unwrap_or(g.addr)
        };
        let answer = everyone || neighborhood.is_some() || missing_from == self.id;
        // Both ends are whatever the requester wrote: nothing here may
        // overflow on them.
        let span_cap = MAX_NACK_SPAN.min(stop_seq.saturating_sub(start_seq).saturating_add(1));
        for seq in (start_seq..=u64::MAX).take(span_cap as usize) {
            // The coin is this holder's for this message, this requester
            // and this request: a re-ask draws afresh.
            let holder = draw::pair(self.id.0, gid.0);
            let key = [
                draw::ANY_HOLDER,
                holder,
                draw::pair(missing_from.0, msg.source.0),
                seq,
                msg.ts.0,
            ];
            if !answer && !draw::gen_bool(draw(self.cfg.seed, &key), ANY_HOLDER_P) {
                continue;
            }
            let Some(g) = self.groups.get_mut(&gid) else {
                return;
            };
            let suppress = adaptive::suppress_window(&g.rtt);
            if let Some(payload) = g.rmp.answer_retransmit(missing_from, seq, now, suppress) {
                let answered = Event::RetransmitAnswered {
                    group: gid,
                    source: missing_from,
                    seq,
                };
                self.tap.emit(now, answered);
                self.send_wire(now, addr, payload);
            }
        }
    }
}
