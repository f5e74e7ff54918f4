//! ROMP — the Reliable Ordered Multicast Protocol layer (§6).
//!
//! ROMP receives source-ordered messages from RMP and delivers the
//! totally-ordered types (Regular, Connect, AddProcessor, RemoveProcessor)
//! in a single agreed order: ascending `(timestamp, source id)`.
//!
//! **Delivery rule.** A queued message *m* is deliverable once, for every
//! group member *q*, this processor's *horizon* for *q* — the timestamp of
//! the latest message received contiguously from *q* — is ≥ *m*.ts. Since
//! each source stamps strictly increasing timestamps and RMP delivers its
//! stream gap-free, nothing that could sort before *m* can still arrive.
//! Heartbeats advance horizons when their carried sequence number matches
//! the contiguous front (otherwise they first reveal a gap to RMP).
//!
//! **Ack timestamps.** Every outgoing message carries
//! `ack = min over members of horizon` — "I have received everything with
//! timestamp ≤ ack from everyone". The minimum of all members' *reported*
//! acks is the stability point: messages at or below it can never be asked
//! for again and leave the retention buffer (§6 buffer management).

use crate::config::FlowControl;
use crate::ids::{ProcessorId, Timestamp};
use crate::wire::FtmpMessage;
use std::cell::Cell;
use std::collections::BTreeMap;

/// A totally-ordered delivery position: `(timestamp, source)`.
pub type OrderKey = (Timestamp, ProcessorId);

/// The ordering state for one group.
#[derive(Debug)]
pub struct Ordering {
    /// Ordered-but-undelivered messages keyed by delivery position.
    queue: BTreeMap<OrderKey, FtmpMessage>,
    /// Per-member contiguous timestamp horizon.
    horizon: BTreeMap<ProcessorId, Timestamp>,
    /// Per-member latest reported ack timestamp.
    reported_ack: BTreeMap<ProcessorId, Timestamp>,
    /// Bumped whenever `reported_ack` actually changes; the packing layer
    /// memoizes the encoded piggyback ack vector against this.
    ack_version: u64,
    /// Position of the last delivered message (deliveries only move up).
    last_delivered: OrderKey,
    /// The highest ack timestamp ever returned by [`ack_ts`](Self::ack_ts):
    /// the floor advertised while the horizon map is transiently empty
    /// (every peer removed), so the wire ack never regresses to zero.
    last_ack_floor: Cell<u64>,
    /// Same monotone floor for [`stable_ts`](Self::stable_ts).
    last_stable_floor: Cell<u64>,
}

impl Ordering {
    /// Create ordering state for the given founding members, none of whom
    /// has been heard yet. `floor` is the timestamp before which nothing
    /// will be ordered (group-creation or join position).
    pub fn new(members: impl IntoIterator<Item = ProcessorId>, floor: Timestamp) -> Self {
        Self::with_floor_key(members, floor, (floor, ProcessorId(u32::MAX)))
    }

    /// Create ordering state whose delivery floor is an exact total-order
    /// position: a joiner delivers only messages ordered strictly after its
    /// AddProcessor's `(ts, sponsor)` key (§7.1), while messages at or below
    /// it are covered by the state snapshot.
    pub fn with_floor_key(
        members: impl IntoIterator<Item = ProcessorId>,
        horizon_floor: Timestamp,
        floor_key: OrderKey,
    ) -> Self {
        let horizon: BTreeMap<ProcessorId, Timestamp> =
            members.into_iter().map(|p| (p, horizon_floor)).collect();
        Ordering {
            queue: BTreeMap::new(),
            horizon,
            reported_ack: BTreeMap::new(),
            ack_version: 0,
            last_delivered: floor_key,
            last_ack_floor: Cell::new(0),
            last_stable_floor: Cell::new(0),
        }
    }

    /// Add a member at a given horizon floor (AddProcessor position, §7.1).
    /// Its reported ack starts at zero, pinning retention until it speaks.
    pub fn add_member(&mut self, p: ProcessorId, floor: Timestamp) {
        if let std::collections::btree_map::Entry::Vacant(v) = self.horizon.entry(p) {
            v.insert(floor);
            // The effective per-member ack vector just changed — the joiner
            // reads as zero until it reports — so memoized encodings of it
            // are stale.
            self.ack_version += 1;
        }
    }

    /// Remove a member (RemoveProcessor or conviction); its horizon no
    /// longer gates delivery and its acks no longer gate stability.
    pub fn remove_member(&mut self, p: ProcessorId) {
        let was_member = self.horizon.remove(&p).is_some();
        if self.reported_ack.remove(&p).is_some() || was_member {
            self.ack_version += 1;
        }
    }

    /// Current members known to ordering.
    pub fn members(&self) -> impl Iterator<Item = &ProcessorId> {
        self.horizon.keys()
    }

    /// This processor's horizon for `p`.
    pub fn horizon_of(&self, p: ProcessorId) -> Option<Timestamp> {
        self.horizon.get(&p).copied()
    }

    /// Record that `p`'s stream has contiguously reached `ts` (an in-order
    /// reliable message, or a gap-free Heartbeat).
    pub fn advance_horizon(&mut self, p: ProcessorId, ts: Timestamp) {
        if let Some(h) = self.horizon.get_mut(&p) {
            if ts > *h {
                *h = ts;
            }
        }
    }

    /// Record an ack timestamp reported by `p` (any header from `p`).
    pub fn record_ack(&mut self, p: ProcessorId, ack: Timestamp) {
        match self.reported_ack.entry(p) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(ack);
                self.ack_version += 1;
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                if ack > *o.get() {
                    o.insert(ack);
                    self.ack_version += 1;
                }
            }
        }
    }

    /// The ack timestamp to stamp on outgoing messages: the minimum horizon
    /// across members (we have everything ≤ this from everyone). While the
    /// horizon map is transiently empty — every peer convicted or removed,
    /// just before the survivor's own entry is reinstalled — the value holds
    /// at the highest ack previously advertised (at least the last-delivered
    /// position) instead of collapsing to zero, so wire acks stay monotone.
    pub fn ack_ts(&self) -> Timestamp {
        let v = match self.horizon.values().copied().min() {
            Some(t) => t.0,
            None => self.last_ack_floor.get().max(self.last_delivered.0 .0),
        };
        self.last_ack_floor.set(v);
        Timestamp(v)
    }

    /// The stability point: every member has acknowledged everything at or
    /// below this timestamp. Members that have not reported yet hold it at
    /// zero (deliberately conservative: a joiner pins retention, §7.1).
    /// Empty-horizon behaviour matches [`ack_ts`](Self::ack_ts): the value
    /// floors at what was already declared stable rather than regressing.
    pub fn stable_ts(&self) -> Timestamp {
        let v = match self
            .horizon
            .keys()
            .map(|p| self.reported_ack.get(p).copied().unwrap_or(Timestamp(0)))
            .min()
        {
            Some(t) => t.0,
            None => self.last_stable_floor.get().max(self.last_delivered.0 .0),
        };
        self.last_stable_floor.set(v);
        Timestamp(v)
    }

    /// The per-member reported ack timestamps — the piggyback ack vector
    /// the packing layer attaches to outgoing containers (DESIGN.md §5).
    /// Keyed by the horizon (current membership), not by who happens to have
    /// reported: a joiner appears immediately (at zero, pinning retention)
    /// and a removed member drops out of the advertised vector.
    pub fn reported_acks(&self) -> impl Iterator<Item = (ProcessorId, Timestamp)> + '_ {
        self.horizon.keys().map(|p| {
            (
                *p,
                self.reported_ack.get(p).copied().unwrap_or(Timestamp(0)),
            )
        })
    }

    /// Monotone counter bumped whenever [`reported_acks`](Self::reported_acks)
    /// changes; callers memoize derived encodings against it.
    pub fn ack_version(&self) -> u64 {
        self.ack_version
    }

    /// Enqueue a totally-ordered message at its delivery position. Messages
    /// at or below the join/creation floor are ignored (the state snapshot
    /// covers them).
    pub fn enqueue(&mut self, msg: FtmpMessage) {
        let key = (msg.ts, msg.source);
        if key <= self.last_delivered {
            return;
        }
        self.queue.insert(key, msg);
    }

    /// Pop every message the delivery rule now allows, in order.
    pub fn deliverable(&mut self) -> Vec<FtmpMessage> {
        let mut out = Vec::new();
        while let Some((&(ts, src), _)) = self.queue.first_key_value() {
            let ok = self.horizon.values().all(|&h| h >= ts);
            if !ok {
                break;
            }
            let ((k, s), msg) = self.queue.pop_first().expect("peeked");
            // Monotone max: after a membership-change flush, messages a
            // faster survivor multicast post-flush can sit below the flush
            // ceiling; they deliver here (same relative order at every
            // survivor) without regressing the duplicate-suppression floor.
            self.last_delivered = self.last_delivered.max((k, s));
            debug_assert_eq!((k, s), (ts, src));
            out.push(msg);
        }
        out
    }

    /// Timestamp of the head of the queue, the next message to deliver.
    fn head_ts(&self) -> Option<Timestamp> {
        self.queue.first_key_value().map(|(&(ts, _), _)| ts)
    }

    /// The members holding back the head of the queue: those whose horizon
    /// is still below its timestamp. Empty exactly when
    /// [`deliverable`](Self::deliverable) would pop (or the queue is empty).
    pub fn head_blockers(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        let head = self.head_ts();
        self.horizon
            .iter()
            .filter(move |&(_, &h)| head.is_some_and(|ts| h < ts))
            .map(|(&p, _)| p)
    }

    /// Is `p` one of the [`head_blockers`](Self::head_blockers)? Two
    /// lookups, for the per-packet prompt rule.
    pub fn blocks_head(&self, p: ProcessorId) -> bool {
        matches!((self.head_ts(), self.horizon_of(p)), (Some(ts), Some(h)) if h < ts)
    }

    /// Membership-change flush (§7.2): after reconciliation every survivor
    /// holds the identical message set up to the agreed per-source targets,
    /// so deliver everything queued with `seq ≤ target[source]` in order.
    ///
    /// Beyond-target messages are split by fate: a *removed* processor's are
    /// discarded (no agreement about them is possible — the source is dead
    /// and some survivors may lack them), while a *survivor's* stay queued —
    /// they are messages the survivor multicast after completing its own
    /// reconfiguration (completions are not simultaneous), and they deliver
    /// normally in the new membership. Their timestamps necessarily exceed
    /// every flushed timestamp (the sender's clock passed its own flush
    /// before stamping them), so no order inversion is possible.
    ///
    /// Returns `(delivered, discarded_count)`.
    pub fn flush_with_targets(
        &mut self,
        target: &BTreeMap<ProcessorId, u64>,
        removed: &std::collections::BTreeSet<ProcessorId>,
    ) -> (Vec<FtmpMessage>, usize) {
        let mut delivered = Vec::new();
        let mut discarded = 0;
        let keys: Vec<OrderKey> = self.queue.keys().copied().collect();
        for key in keys {
            let msg = self.queue.get(&key).expect("key just listed");
            let within = target.get(&msg.source).is_some_and(|&t| msg.seq.0 <= t);
            if within {
                let msg = self.queue.remove(&key).expect("present");
                self.last_delivered = self.last_delivered.max(key);
                delivered.push(msg);
            } else if removed.contains(&msg.source) {
                self.queue.remove(&key);
                discarded += 1;
            }
            // else: a survivor's post-reconfiguration message; keep queued.
        }
        (delivered, discarded)
    }

    /// Number of queued, undelivered messages (experiment E6).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Per source, the smallest sequence number still queued (received but
    /// not yet ordered). Used by AddProcessor to cite the sponsor's
    /// *ordered* cut (§7.1: "the most recent message from each member that
    /// has been ordered by the processor originating the message"): for a
    /// source with a queued message, the ordered prefix ends just before it.
    pub fn min_queued_seq_per_source(&self) -> BTreeMap<ProcessorId, u64> {
        let mut out: BTreeMap<ProcessorId, u64> = BTreeMap::new();
        for msg in self.queue.values() {
            let e = out.entry(msg.source).or_insert(u64::MAX);
            if msg.seq.0 < *e {
                *e = msg.seq.0;
            }
        }
        out
    }

    /// The position of the last delivered message.
    pub fn last_delivered(&self) -> OrderKey {
        self.last_delivered
    }

    /// True once every member's horizon strictly exceeds `gate` — the
    /// Connect-gating condition of §7 ("not allowed to transmit … until it
    /// has received from every member a message with a higher timestamp").
    pub fn gate_released(&self, gate: Timestamp) -> bool {
        !self.horizon.is_empty() && self.horizon.values().all(|&h| h > gate)
    }
}

/// A send-window edge reported by [`SendWindow::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEdge {
    /// Occupancy reached the high-water mark: stop admitting ordered sends.
    Closed,
    /// Occupancy drained to the low-water mark: admission may resume.
    Reopened,
}

/// The ack-timestamp-driven send window: a hysteresis gate over the
/// sender's *own unstable retention* (messages it sent that are not yet
/// stable at every member — exactly the backlog ROMP's ack timestamps
/// bound). Closes at `high_water`, reopens at `low_water`, so admission
/// doesn't flap at the boundary.
#[derive(Debug, Clone, Copy)]
pub struct SendWindow {
    fc: FlowControl,
    open: bool,
}

impl Default for SendWindow {
    fn default() -> Self {
        SendWindow {
            fc: FlowControl::default(),
            open: true,
        }
    }
}

impl SendWindow {
    /// A window enforcing the given policy (starts open).
    pub fn new(fc: FlowControl) -> Self {
        SendWindow { fc, open: true }
    }

    /// True when ordered sends may be admitted.
    pub fn is_open(&self) -> bool {
        !self.fc.enabled || self.open
    }

    /// Feed the current unstable-retention occupancy; returns an edge when
    /// the window just closed or reopened.
    pub fn update(&mut self, occupancy: usize) -> Option<WindowEdge> {
        if !self.fc.enabled {
            return None;
        }
        if self.open && occupancy >= self.fc.high_water {
            self.open = false;
            Some(WindowEdge::Closed)
        } else if !self.open && occupancy <= self.fc.low_water {
            self.open = true;
            Some(WindowEdge::Reopened)
        } else {
            None
        }
    }
}

/// Per-layer traffic counters exposed through
/// [`crate::processor::Processor::stats`] and the harness report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RompCounters {
    /// Source-ordered messages consumed from RMP.
    pub msgs_in: u64,
    /// Messages delivered by the normal total-order delivery rule.
    pub delivered: u64,
    /// Messages delivered by a membership-change flush (§7.2).
    pub flushed: u64,
    /// Messages discarded at a flush (removed source, beyond target).
    pub discarded_at_flush: u64,
    /// High-water mark of the ordering queue.
    pub queue_high_water: u64,
}

/// Typed input consumed by [`RompLayer::handle`].
#[derive(Debug)]
pub enum RompInput {
    /// A reliable message released by RMP in source order.
    SourceOrdered(FtmpMessage),
    /// Horizon/ack evidence from an unreliable header: `advance` is true
    /// when the cited sequence number is contiguously covered (gap-free
    /// Heartbeat), letting the horizon move to `ts`.
    Evidence {
        /// The header's source.
        source: ProcessorId,
        /// The header's timestamp.
        ts: Timestamp,
        /// The ack timestamp the header carried.
        ack_ts: Timestamp,
        /// Whether the horizon may advance (no gap revealed).
        advance: bool,
    },
}

/// Typed output emitted by [`RompLayer::handle`].
#[derive(Debug)]
pub enum RompOutput {
    /// A totally-ordered message was queued at its delivery position; call
    /// [`RompLayer::deliverable`] to pop whatever the rule now allows.
    Enqueued,
    /// A source-ordered control message (Suspect, Membership) that bypasses
    /// total order — hand it up to PGMP.
    Control(FtmpMessage),
    /// Evidence noted.
    Noted,
}

/// The ROMP sub-state-machine for one group: wraps [`Ordering`] with the
/// layer interface and delivery counters.
///
/// Sans-io: consumes [`RompInput`]s from RMP, returns [`RompOutput`]s; the
/// shell pops [`RompLayer::deliverable`] messages and routes
/// [`RompOutput::Control`] messages to PGMP.
#[derive(Debug)]
pub struct RompLayer {
    ordering: Ordering,
    counters: RompCounters,
    window: SendWindow,
}

impl RompLayer {
    /// Ordering state for founding members with a creation floor.
    pub fn new(members: impl IntoIterator<Item = ProcessorId>, floor: Timestamp) -> Self {
        RompLayer {
            ordering: Ordering::new(members, floor),
            counters: RompCounters::default(),
            window: SendWindow::default(),
        }
    }

    /// Ordering state whose delivery floor is an exact total-order position
    /// (joiner, §7.1).
    pub fn with_floor_key(
        members: impl IntoIterator<Item = ProcessorId>,
        horizon_floor: Timestamp,
        floor_key: OrderKey,
    ) -> Self {
        RompLayer {
            ordering: Ordering::with_floor_key(members, horizon_floor, floor_key),
            counters: RompCounters::default(),
            window: SendWindow::default(),
        }
    }

    /// Install the flow-control policy (resets the window to open).
    pub fn set_flow_control(&mut self, fc: FlowControl) {
        self.window = SendWindow::new(fc);
    }

    /// The send window gating ordered-send admission.
    pub fn window(&self) -> &SendWindow {
        &self.window
    }

    /// Feed the current unstable-retention occupancy into the send window.
    pub fn update_window(&mut self, occupancy: usize) -> Option<WindowEdge> {
        self.window.update(occupancy)
    }

    /// Feed one input through the layer.
    pub fn handle(&mut self, input: RompInput) -> RompOutput {
        match input {
            RompInput::SourceOrdered(msg) => {
                self.counters.msgs_in += 1;
                self.ordering.record_ack(msg.source, msg.ack_ts);
                self.ordering.advance_horizon(msg.source, msg.ts);
                if msg.msg_type().is_totally_ordered() {
                    self.ordering.enqueue(msg);
                    self.counters.queue_high_water = self
                        .counters
                        .queue_high_water
                        .max(self.ordering.queue_len() as u64);
                    RompOutput::Enqueued
                } else {
                    RompOutput::Control(msg)
                }
            }
            RompInput::Evidence {
                source,
                ts,
                ack_ts,
                advance,
            } => {
                if advance {
                    self.ordering.advance_horizon(source, ts);
                }
                self.ordering.record_ack(source, ack_ts);
                RompOutput::Noted
            }
        }
    }

    /// Pop every message the delivery rule now allows, in total order.
    pub fn deliverable(&mut self) -> Vec<FtmpMessage> {
        let out = self.ordering.deliverable();
        self.counters.delivered += out.len() as u64;
        out
    }

    /// Membership-change flush (§7.2); see [`Ordering::flush_with_targets`].
    /// The discards are counted here and nowhere else.
    pub fn flush_with_targets(
        &mut self,
        target: &BTreeMap<ProcessorId, u64>,
        removed: &std::collections::BTreeSet<ProcessorId>,
    ) -> Vec<FtmpMessage> {
        let (delivered, discarded) = self.ordering.flush_with_targets(target, removed);
        self.counters.flushed += delivered.len() as u64;
        self.counters.discarded_at_flush += discarded as u64;
        delivered
    }

    /// The wrapped [`Ordering`] (horizons, acks, floors).
    pub fn ordering(&self) -> &Ordering {
        &self.ordering
    }

    /// Mutable access to the wrapped [`Ordering`] (membership changes).
    pub fn ordering_mut(&mut self) -> &mut Ordering {
        &mut self.ordering
    }

    /// This layer's traffic counters.
    pub fn counters(&self) -> RompCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, SeqNum};
    use crate::wire::FtmpBody;
    use proptest::prelude::*;

    fn m(src: u32, seq: u64, ts: u64) -> FtmpMessage {
        FtmpMessage {
            retransmission: false,
            source: ProcessorId(src),
            group: GroupId(1),
            seq: SeqNum(seq),
            ts: Timestamp(ts),
            ack_ts: Timestamp(0),
            body: FtmpBody::Heartbeat,
        }
    }

    fn members(n: u32) -> Vec<ProcessorId> {
        (1..=n).map(ProcessorId).collect()
    }

    #[test]
    fn send_window_hysteresis() {
        let mut w = SendWindow::new(FlowControl::window(4, 1));
        assert!(w.is_open());
        assert_eq!(w.update(3), None);
        assert_eq!(w.update(4), Some(WindowEdge::Closed));
        assert!(!w.is_open());
        // Between the marks: still closed, no repeated edge.
        assert_eq!(w.update(3), None);
        assert_eq!(w.update(2), None);
        assert!(!w.is_open());
        assert_eq!(w.update(1), Some(WindowEdge::Reopened));
        assert!(w.is_open());
        // Disabled flow control never closes.
        let mut off = SendWindow::default();
        assert_eq!(off.update(10_000), None);
        assert!(off.is_open());
    }

    #[test]
    fn nothing_delivers_until_all_horizons_cover() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.enqueue(m(1, 1, 10));
        ord.advance_horizon(ProcessorId(1), Timestamp(10));
        ord.advance_horizon(ProcessorId(2), Timestamp(15));
        assert!(ord.deliverable().is_empty(), "P3 not heard yet");
        ord.advance_horizon(ProcessorId(3), Timestamp(9));
        assert!(ord.deliverable().is_empty(), "P3 horizon below ts");
        ord.advance_horizon(ProcessorId(3), Timestamp(10));
        let d = ord.deliverable();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ts, Timestamp(10));
    }

    #[test]
    fn delivery_order_is_ts_then_source() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.enqueue(m(3, 1, 20));
        ord.enqueue(m(1, 1, 20));
        ord.enqueue(m(2, 1, 10));
        for p in members(3) {
            ord.advance_horizon(p, Timestamp(100));
        }
        let d = ord.deliverable();
        let order: Vec<(u64, u32)> = d.iter().map(|x| (x.ts.0, x.source.0)).collect();
        assert_eq!(order, vec![(10, 2), (20, 1), (20, 3)]);
    }

    #[test]
    fn equal_ts_tie_broken_by_processor_id() {
        let mut ord = Ordering::new(members(2), Timestamp(0));
        ord.enqueue(m(2, 1, 5));
        ord.enqueue(m(1, 1, 5));
        ord.advance_horizon(ProcessorId(1), Timestamp(5));
        ord.advance_horizon(ProcessorId(2), Timestamp(5));
        let d = ord.deliverable();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].source, ProcessorId(1));
        assert_eq!(d[1].source, ProcessorId(2));
    }

    #[test]
    fn floor_suppresses_pre_join_messages() {
        let mut ord = Ordering::new(members(2), Timestamp(50));
        ord.enqueue(m(1, 1, 40)); // before the join position: ignored
        ord.enqueue(m(1, 2, 60));
        for p in members(2) {
            ord.advance_horizon(p, Timestamp(100));
        }
        let d = ord.deliverable();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ts, Timestamp(60));
    }

    #[test]
    fn ack_is_min_horizon_and_stability_min_reported() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.advance_horizon(ProcessorId(1), Timestamp(30));
        ord.advance_horizon(ProcessorId(2), Timestamp(20));
        ord.advance_horizon(ProcessorId(3), Timestamp(25));
        assert_eq!(ord.ack_ts(), Timestamp(20));
        ord.record_ack(ProcessorId(1), Timestamp(18));
        ord.record_ack(ProcessorId(2), Timestamp(12));
        // P3 has not reported: stability pinned at zero.
        assert_eq!(ord.stable_ts(), Timestamp(0));
        ord.record_ack(ProcessorId(3), Timestamp(15));
        assert_eq!(ord.stable_ts(), Timestamp(12));
        // Acks never regress.
        ord.record_ack(ProcessorId(2), Timestamp(3));
        assert_eq!(ord.stable_ts(), Timestamp(12));
    }

    #[test]
    fn removing_member_unblocks_delivery() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.enqueue(m(1, 1, 10));
        ord.advance_horizon(ProcessorId(1), Timestamp(10));
        ord.advance_horizon(ProcessorId(2), Timestamp(10));
        assert!(ord.deliverable().is_empty(), "blocked by silent P3");
        ord.remove_member(ProcessorId(3));
        assert_eq!(ord.deliverable().len(), 1);
    }

    #[test]
    fn head_blockers_name_the_members_below_the_queue_head() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        assert_eq!(ord.head_blockers().count(), 0, "empty queue: nobody blocks");
        ord.enqueue(m(1, 1, 10));
        ord.enqueue(m(1, 2, 30));
        ord.advance_horizon(ProcessorId(1), Timestamp(30));
        ord.advance_horizon(ProcessorId(2), Timestamp(9));
        let blockers: Vec<ProcessorId> = ord.head_blockers().collect();
        assert_eq!(blockers, vec![ProcessorId(2), ProcessorId(3)]);
        // Only the head counts: P2 at 10 is below the second message (30)
        // but no longer holds the first.
        ord.advance_horizon(ProcessorId(2), Timestamp(10));
        let blockers: Vec<ProcessorId> = ord.head_blockers().collect();
        assert_eq!(blockers, vec![ProcessorId(3)]);
        ord.remove_member(ProcessorId(3));
        assert_eq!(ord.head_blockers().count(), 0);
        assert_eq!(ord.deliverable().len(), 1);
        let blockers: Vec<ProcessorId> = ord.head_blockers().collect();
        assert_eq!(blockers, vec![ProcessorId(2)], "the new head is at 30");
    }

    proptest! {
        /// `head_blockers` is the delivery rule read backwards: with a
        /// message queued it is empty exactly when `deliverable` pops.
        #[test]
        fn prop_head_blockers_empty_iff_deliverable_pops(
            ops in proptest::collection::vec((0u8..3, 1u32..=4, 1u64..60), 1..60),
        ) {
            let mut ord = Ordering::new(members(4), Timestamp(0));
            let mut seq = 0u64;
            for (op, p, t) in ops {
                match op {
                    0 => {
                        seq += 1;
                        ord.enqueue(m(p, seq, t));
                    }
                    1 => ord.advance_horizon(ProcessorId(p), Timestamp(t)),
                    _ => ord.remove_member(ProcessorId(p)),
                }
                let queued = ord.queue_len() > 0;
                for q in 1..=5u32 {
                    let q = ProcessorId(q);
                    prop_assert_eq!(ord.blocks_head(q), ord.head_blockers().any(|b| b == q));
                }
                let unblocked = ord.head_blockers().next().is_none();
                let popped = !ord.deliverable().is_empty();
                prop_assert_eq!(queued && unblocked, popped);
            }
        }
    }

    #[test]
    fn add_member_gates_future_delivery() {
        let mut ord = Ordering::new(members(2), Timestamp(0));
        ord.advance_horizon(ProcessorId(1), Timestamp(100));
        ord.advance_horizon(ProcessorId(2), Timestamp(100));
        ord.add_member(ProcessorId(3), Timestamp(50));
        ord.enqueue(m(1, 1, 80));
        assert!(ord.deliverable().is_empty(), "P3 horizon at 50 < 80");
        ord.advance_horizon(ProcessorId(3), Timestamp(80));
        assert_eq!(ord.deliverable().len(), 1);
    }

    #[test]
    fn membership_changes_bump_ack_version() {
        let mut ord = Ordering::new(members(2), Timestamp(0));
        let v0 = ord.ack_version();
        ord.add_member(ProcessorId(3), Timestamp(5));
        assert!(
            ord.ack_version() > v0,
            "join invalidates the memoized vector"
        );
        let v1 = ord.ack_version();
        ord.add_member(ProcessorId(3), Timestamp(9));
        assert_eq!(ord.ack_version(), v1, "re-adding a member is a no-op");
        ord.remove_member(ProcessorId(3));
        assert!(ord.ack_version() > v1, "removal invalidates it too");
        let v2 = ord.ack_version();
        ord.remove_member(ProcessorId(3));
        assert_eq!(ord.ack_version(), v2, "removing a non-member is a no-op");
    }

    #[test]
    fn reported_acks_track_membership() {
        let mut ord = Ordering::new(members(2), Timestamp(0));
        ord.record_ack(ProcessorId(1), Timestamp(7));
        ord.add_member(ProcessorId(3), Timestamp(5));
        let v: Vec<(ProcessorId, Timestamp)> = ord.reported_acks().collect();
        assert_eq!(
            v,
            vec![
                (ProcessorId(1), Timestamp(7)),
                (ProcessorId(2), Timestamp(0)),
                (ProcessorId(3), Timestamp(0)),
            ],
            "joiner appears at zero before it reports"
        );
        ord.remove_member(ProcessorId(1));
        assert!(
            ord.reported_acks().all(|(p, _)| p != ProcessorId(1)),
            "removed member drops out even though it reported"
        );
    }

    #[test]
    fn ack_never_regresses_when_horizon_empties() {
        let mut ord = Ordering::new(members(2), Timestamp(0));
        ord.advance_horizon(ProcessorId(1), Timestamp(30));
        ord.advance_horizon(ProcessorId(2), Timestamp(20));
        ord.record_ack(ProcessorId(1), Timestamp(20));
        ord.record_ack(ProcessorId(2), Timestamp(20));
        assert_eq!(ord.ack_ts(), Timestamp(20));
        assert_eq!(ord.stable_ts(), Timestamp(20));
        // Every member removed (e.g. conviction of all peers mid-flush):
        // the advertised values hold instead of collapsing to zero.
        ord.remove_member(ProcessorId(1));
        ord.remove_member(ProcessorId(2));
        assert_eq!(ord.ack_ts(), Timestamp(20));
        assert_eq!(ord.stable_ts(), Timestamp(20));
    }

    #[test]
    fn empty_horizon_ack_floors_at_last_delivered() {
        // Even when ack_ts was never sampled before the horizon emptied,
        // the delivered prefix bounds what must have been advertised.
        let mut ord = Ordering::new(members(1), Timestamp(0));
        ord.advance_horizon(ProcessorId(1), Timestamp(40));
        ord.enqueue(m(1, 1, 40));
        assert_eq!(ord.deliverable().len(), 1);
        ord.remove_member(ProcessorId(1));
        assert_eq!(ord.ack_ts(), Timestamp(40));
        assert_eq!(ord.stable_ts(), Timestamp(40));
    }

    proptest! {
        /// The memoization contract: a cache keyed solely on `ack_version`
        /// always reads back the same vector as a fresh `reported_acks()`
        /// computation, under any interleaving of acks and membership
        /// changes. (Fails without the `add_member` version bump.)
        #[test]
        fn prop_ack_version_keys_vector_memoization(
            ops in proptest::collection::vec((0u8..3, 1u32..6, 0u64..50), 0..60),
        ) {
            let mut ord = Ordering::new(members(3), Timestamp(0));
            let mut cache: Option<(u64, Vec<(ProcessorId, Timestamp)>)> = None;
            for (op, p, t) in ops {
                let p = ProcessorId(p);
                match op {
                    0 => ord.record_ack(p, Timestamp(t)),
                    1 => ord.add_member(p, Timestamp(t)),
                    _ => ord.remove_member(p),
                }
                let fresh: Vec<(ProcessorId, Timestamp)> = ord.reported_acks().collect();
                let ver = ord.ack_version();
                let served = match &cache {
                    Some((v, entries)) if *v == ver => entries.clone(),
                    _ => {
                        cache = Some((ver, fresh.clone()));
                        fresh.clone()
                    }
                };
                prop_assert_eq!(served, fresh);
            }
        }
    }

    #[test]
    fn flush_respects_targets() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.enqueue(m(1, 5, 10));
        ord.enqueue(m(1, 6, 20));
        ord.enqueue(m(3, 2, 15)); // from the removed processor, beyond target
        let mut target = BTreeMap::new();
        target.insert(ProcessorId(1), 6u64);
        target.insert(ProcessorId(2), 0u64);
        target.insert(ProcessorId(3), 1u64);
        let removed: std::collections::BTreeSet<ProcessorId> =
            [ProcessorId(3)].into_iter().collect();
        let (delivered, discarded) = ord.flush_with_targets(&target, &removed);
        let seqs: Vec<(u64, u32)> = delivered.iter().map(|x| (x.ts.0, x.source.0)).collect();
        assert_eq!(seqs, vec![(10, 1), (20, 1)]);
        assert_eq!(discarded, 1);
        assert_eq!(ord.queue_len(), 0);
    }

    #[test]
    fn flush_retains_survivor_post_reconfiguration_messages() {
        // A survivor that completed its reconfiguration earlier already
        // multicast seq 13 (beyond the target of 12). The flush must keep it
        // queued for normal delivery in the new membership, not discard it.
        let mut ord = Ordering::new(members(3), Timestamp(0));
        ord.enqueue(m(1, 12, 30)); // pre-reconfig, within target
        ord.enqueue(m(2, 13, 60)); // survivor's post-reconfig message
        ord.enqueue(m(3, 9, 40)); // removed member, beyond its target
        let mut target = BTreeMap::new();
        target.insert(ProcessorId(1), 12u64);
        target.insert(ProcessorId(2), 12u64);
        target.insert(ProcessorId(3), 8u64);
        let removed: std::collections::BTreeSet<ProcessorId> =
            [ProcessorId(3)].into_iter().collect();
        let (delivered, discarded) = ord.flush_with_targets(&target, &removed);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].source, ProcessorId(1));
        assert_eq!(discarded, 1, "only the removed member's tail is dropped");
        assert_eq!(ord.queue_len(), 1, "the survivor's message stays queued");
        // It delivers normally once the new membership's horizons cover it.
        ord.remove_member(ProcessorId(3));
        ord.advance_horizon(ProcessorId(1), Timestamp(100));
        ord.advance_horizon(ProcessorId(2), Timestamp(100));
        let d = ord.deliverable();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].seq.0, 13);
    }

    #[test]
    fn min_queued_seq_reports_ordered_cut_boundaries() {
        let mut ord = Ordering::new(members(3), Timestamp(0));
        assert!(ord.min_queued_seq_per_source().is_empty());
        ord.enqueue(m(1, 7, 70));
        ord.enqueue(m(1, 5, 50));
        ord.enqueue(m(2, 9, 90));
        let q = ord.min_queued_seq_per_source();
        assert_eq!(q[&ProcessorId(1)], 5);
        assert_eq!(q[&ProcessorId(2)], 9);
        assert!(!q.contains_key(&ProcessorId(3)));
        // Delivering shrinks the map.
        for p in members(3) {
            ord.advance_horizon(p, Timestamp(50));
        }
        ord.deliverable();
        let q = ord.min_queued_seq_per_source();
        assert_eq!(q[&ProcessorId(1)], 7);
    }

    #[test]
    fn gate_release_requires_strictly_higher_everywhere() {
        let mut ord = Ordering::new(members(2), Timestamp(10));
        assert!(!ord.gate_released(Timestamp(10)));
        ord.advance_horizon(ProcessorId(1), Timestamp(11));
        assert!(!ord.gate_released(Timestamp(10)));
        ord.advance_horizon(ProcessorId(2), Timestamp(12));
        assert!(ord.gate_released(Timestamp(10)));
    }

    #[test]
    fn romp_layer_gates_delivery_until_all_horizons_cover() {
        use crate::ids::{ConnectionId, ObjectGroupId, RequestNum};
        let regular = |src: u32, seq: u64, ts: u64| FtmpMessage {
            retransmission: false,
            source: ProcessorId(src),
            group: GroupId(1),
            seq: SeqNum(seq),
            ts: Timestamp(ts),
            ack_ts: Timestamp(0),
            body: FtmpBody::Regular {
                conn: ConnectionId::new(ObjectGroupId::new(1, 7), ObjectGroupId::new(1, 8)),
                request_num: RequestNum(seq),
                giop: bytes::Bytes::new(),
            },
        };
        let mut layer = RompLayer::new(members(3), Timestamp(0));
        // A Regular message queues at its total-order position.
        assert!(matches!(
            layer.handle(RompInput::SourceOrdered(regular(1, 1, 10))),
            RompOutput::Enqueued
        ));
        assert!(layer.deliverable().is_empty(), "P2 and P3 not heard");
        // Gap-free heartbeat evidence from P2 advances its horizon.
        layer.handle(RompInput::Evidence {
            source: ProcessorId(2),
            ts: Timestamp(15),
            ack_ts: Timestamp(0),
            advance: true,
        });
        assert!(layer.deliverable().is_empty(), "P3 still below ts 10");
        // Evidence from P3 that revealed a gap must NOT advance its horizon.
        layer.handle(RompInput::Evidence {
            source: ProcessorId(3),
            ts: Timestamp(40),
            ack_ts: Timestamp(0),
            advance: false,
        });
        assert!(
            layer.deliverable().is_empty(),
            "gapped heartbeat is no cover"
        );
        // Gap-free evidence finally releases the delivery.
        layer.handle(RompInput::Evidence {
            source: ProcessorId(3),
            ts: Timestamp(12),
            ack_ts: Timestamp(0),
            advance: true,
        });
        let d = layer.deliverable();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ts, Timestamp(10));
        // A reliable control message (Suspect) bypasses total order.
        let suspect = FtmpMessage {
            body: FtmpBody::Suspect {
                membership_ts: Timestamp(0),
                suspects: vec![ProcessorId(3)],
            },
            ..regular(2, 2, 20)
        };
        assert!(matches!(
            layer.handle(RompInput::SourceOrdered(suspect)),
            RompOutput::Control(_)
        ));
        let c = layer.counters();
        assert_eq!(c.msgs_in, 2);
        assert_eq!(c.delivered, 1);
        assert_eq!(c.queue_high_water, 1);
    }

    #[test]
    fn redelivery_impossible_after_position_passes() {
        let mut ord = Ordering::new(members(1), Timestamp(0));
        ord.enqueue(m(1, 1, 10));
        ord.advance_horizon(ProcessorId(1), Timestamp(10));
        assert_eq!(ord.deliverable().len(), 1);
        // A late duplicate (same position) must not re-enter.
        ord.enqueue(m(1, 1, 10));
        assert_eq!(ord.queue_len(), 0);
        assert!(ord.deliverable().is_empty());
    }

    proptest! {
        /// Two processors receiving the same per-source streams in different
        /// cross-source interleavings (RMP preserves source order, so only
        /// the interleaving across sources can vary) deliver identical
        /// sequences — the heart of total order.
        #[test]
        fn prop_identical_delivery_sequences(
            msgs in proptest::collection::vec((1u32..=4, 1u64..50), 1..40),
            pick_a in proptest::collection::vec(0usize..4, 0..80),
            pick_b in proptest::collection::vec(0usize..4, 0..80),
        ) {
            // Build per-source strictly increasing (seq, ts) streams.
            let mut streams: BTreeMap<u32, Vec<FtmpMessage>> = BTreeMap::new();
            let mut per_source_ts: BTreeMap<u32, u64> = BTreeMap::new();
            for (src, dts) in msgs {
                let ts = per_source_ts.entry(src).or_insert(0);
                *ts += dts;
                let stream = streams.entry(src).or_default();
                let seq = stream.len() as u64 + 1;
                stream.push(m(src, seq, *ts));
            }
            let run = |picks: &[usize]| -> Vec<(u64, u32)> {
                let mut cursors: BTreeMap<u32, usize> = BTreeMap::new();
                let mut ord = Ordering::new(members(4), Timestamp(0));
                let mut out = Vec::new();
                let mut feed = |ord: &mut Ordering, out: &mut Vec<(u64, u32)>, src: u32| {
                    let Some(stream) = streams.get(&src) else { return };
                    let cur = cursors.entry(src).or_insert(0);
                    if *cur >= stream.len() { return; }
                    let msg = stream[*cur].clone();
                    *cur += 1;
                    // RMP in-order arrival: horizon tracks the source's ts.
                    ord.advance_horizon(msg.source, msg.ts);
                    ord.enqueue(msg);
                    out.extend(ord.deliverable().iter().map(|x| (x.ts.0, x.source.0)));
                };
                for &p in picks {
                    feed(&mut ord, &mut out, p as u32 + 1);
                }
                // Drain every remaining stream, then final heartbeats: each
                // member's horizon moves past its own last send only.
                for (src, stream) in &streams {
                    for _ in 0..stream.len() {
                        feed(&mut ord, &mut out, *src);
                    }
                }
                for p in members(4) {
                    let last = per_source_ts.get(&p.0).copied().unwrap_or(0);
                    ord.advance_horizon(p, Timestamp(last + 1));
                }
                out.extend(ord.deliverable().iter().map(|x| (x.ts.0, x.source.0)));
                out
            };
            let a = run(&pick_a);
            let b = run(&pick_b);
            prop_assert_eq!(a, b, "total order must not depend on arrival interleaving");
        }

        /// Deliveries are always in strictly ascending (ts, src) order.
        #[test]
        fn prop_delivery_monotone(
            msgs in proptest::collection::vec((1u32..=3, 1u64..100), 1..30),
        ) {
            let mut per_source_ts: BTreeMap<u32, u64> = BTreeMap::new();
            let mut ord = Ordering::new(members(3), Timestamp(0));
            let mut delivered = Vec::new();
            for (i, (src, dts)) in msgs.into_iter().enumerate() {
                let ts = per_source_ts.entry(src).or_insert(0);
                *ts += dts;
                ord.advance_horizon(ProcessorId(src), Timestamp(*ts));
                ord.enqueue(m(src, i as u64 + 1, *ts));
                delivered.extend(ord.deliverable());
            }
            for p in members(3) {
                ord.advance_horizon(p, Timestamp(u64::MAX));
            }
            delivered.extend(ord.deliverable());
            let keys: Vec<OrderKey> = delivered.iter().map(|x| (x.ts, x.source)).collect();
            for w in keys.windows(2) {
                prop_assert!(w[0] < w[1], "non-monotone delivery {:?}", w);
            }
        }
    }
}
