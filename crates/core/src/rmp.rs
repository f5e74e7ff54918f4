//! RMP — the Reliable Multicast Protocol layer (§5).
//!
//! RMP gives each (source, group) pair a gap-free stream of sequence
//! numbers. Receivers detect holes (from a later message's sequence number,
//! or from the sequence number a Heartbeat carries), schedule a jittered
//! NACK ([`wire::FtmpBody::RetransmitRequest`]), and deliver messages
//! upward strictly in source order. Any processor that still buffers a
//! message may answer a NACK — the *any-holder* retransmission that
//! distinguishes FTMP from sender-based ARQ.
//!
//! This module holds the RMP sub-state-machine ([`RmpLayer`]): the
//! per-source receive windows ([`SourceRx`]), the send counter
//! ([`SendState`]) and the any-holder [`RetentionStore`]. The layer consumes
//! typed [`RmpInput`]s (reliable messages and header sequence evidence) and
//! emits typed [`RmpOutput`]s upward to ROMP; the
//! [`crate::processor`] shell wires it to the clock and the network.
//!
//! **Zero-copy retransmission.** The retention store keeps each message's
//! original wire bytes (an [`Bytes`] handle sharing the received datagram's
//! buffer) and nothing else of it — no second decoded copy. A retransmission
//! differs from the original only in one header flag bit, so the
//! retransmission form is materialized at most once per message and every
//! NACK answer after that is a reference-counted handle clone — no
//! re-encoding, no buffer copy.
//!
//! **Retention that knows its own order.** [`RetentionStore`] is one queue
//! per source, sorted by sequence number, so every operation costs what it
//! touches: an in-order arrival is a `push_back`, a look-up a binary search,
//! [`reclaim_stable`](RetentionStore::reclaim_stable) pops each source's
//! front while it is stable and stops at the first entry that is not (a
//! reclaim that reclaims nothing looks at one entry per source),
//! [`held_by`](RetentionStore::held_by) is a length. Two properties it
//! leans on, both tested below:
//!
//! * The queue is *sorted by* sequence number, never *indexed by*
//!   `seq − base`: a wild sequence number from a confused peer costs one
//!   entry, not an allocation sized by the number.
//! * Reclaiming from the front relies on a source's timestamps rising with
//!   its sequence numbers — `Clock::stamp_send` and
//!   [`RmpLayer::allocate_seq`] are both monotone and a retransmission keeps
//!   its stamp. An entry that breaks this is reclaimed *late*, once the
//!   entry in front of it is stable too, never *early*.
//!
//! **Bounded NACK work.** Sequence numbers in headers are unauthenticated:
//! [`SourceRx::missing_ranges`] returns at most [`MAX_NACK_RANGES`] ranges
//! per call, earliest gaps first (the next retry asks for the rest), and
//! its arithmetic saturates, so a Heartbeat citing `seq = u64::MAX` costs a
//! bounded burst of requests instead of an unbounded allocation.
//!
//! [`wire::FtmpBody::RetransmitRequest`]: crate::wire::FtmpBody::RetransmitRequest

use crate::ids::{ProcessorId, SeqNum, Timestamp};
use crate::wire::FtmpMessage;
use bytes::Bytes;
use ftmp_net::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// A contiguous source-ordered run released upward: the message that
/// arrived in order, inline, then any buffered successors it released. The
/// followers exist only after a gap fill, so the in-order fast path
/// allocates nothing here.
#[derive(Debug, PartialEq, Eq)]
pub struct Run {
    first: FtmpMessage,
    rest: Vec<FtmpMessage>,
}

impl Run {
    /// Messages in the run (at least one).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// The run in source order.
    pub fn iter(&self) -> impl Iterator<Item = &FtmpMessage> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

impl IntoIterator for Run {
    type Item = FtmpMessage;
    type IntoIter = std::iter::Chain<std::iter::Once<FtmpMessage>, std::vec::IntoIter<FtmpMessage>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

/// Outcome of offering a reliable message to a [`SourceRx`].
#[derive(Debug, PartialEq, Eq)]
pub enum RxOutcome {
    /// Already received (retransmission or duplicate); dropped.
    Duplicate,
    /// Out of order; buffered awaiting the gap fill.
    Buffered,
    /// In order; the contained run (this message plus any buffered
    /// successors it released) is delivered upward in source order.
    Delivered(Run),
}

/// Most ranges one [`SourceRx::missing_ranges`] call returns. A header's
/// sequence number is unauthenticated evidence, so the work one of them can
/// ask for is capped; honest gaps are far fewer (each range is one
/// RetransmitRequest datagram) and what a call leaves out the next retry
/// asks for.
pub const MAX_NACK_RANGES: usize = 64;

/// Per-(source, group) receive window.
#[derive(Debug)]
pub struct SourceRx {
    /// Next sequence number expected in contiguous order.
    next_seq: u64,
    /// Out-of-order messages awaiting earlier ones.
    buffer: BTreeMap<u64, FtmpMessage>,
    /// Highest sequence number seen in any header from this source
    /// (including Heartbeats), i.e. how far the source has provably sent.
    highest_seen: u64,
    /// When the next RetransmitRequest for this source's gaps is due.
    nack_at: Option<SimTime>,
    /// RetransmitRequests issued since the stream was last contiguous or a
    /// retransmission last advanced it; drives exponential backoff.
    nack_attempts: u32,
    /// When the *first* RetransmitRequest of the episode was sent. Cleared
    /// on re-issue: per Karn's rule a round-trip measured across more than
    /// one outstanding request is ambiguous and must be discarded.
    nack_sent_at: Option<SimTime>,
}

impl SourceRx {
    /// A window expecting the stream to start at `first_seq` (1 for a
    /// founding member; `cited + 1` for a joiner, §7.1).
    pub fn starting_at(first_seq: u64) -> Self {
        SourceRx {
            next_seq: first_seq,
            buffer: BTreeMap::new(),
            highest_seen: first_seq.saturating_sub(1),
            nack_at: None,
            nack_attempts: 0,
            nack_sent_at: None,
        }
    }

    /// Highest contiguously received sequence number (0 = none yet).
    pub fn contiguous(&self) -> u64 {
        self.next_seq - 1
    }

    /// Highest sequence number evidenced by any header.
    pub fn highest_seen(&self) -> u64 {
        self.highest_seen
    }

    /// Number of buffered out-of-order messages.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Offer a reliable message bearing `seq`.
    pub fn on_reliable(&mut self, msg: FtmpMessage) -> RxOutcome {
        let seq = msg.seq.0;
        self.highest_seen = self.highest_seen.max(seq);
        if seq < self.next_seq || self.buffer.contains_key(&seq) {
            return RxOutcome::Duplicate;
        }
        if seq > self.next_seq {
            self.buffer.insert(seq, msg);
            return RxOutcome::Buffered;
        }
        // In order: release this message plus any contiguous run behind it.
        let answered = msg.retransmission;
        let mut rest = Vec::new();
        self.next_seq += 1;
        while let Some(m) = self.buffer.remove(&self.next_seq) {
            rest.push(m);
            self.next_seq += 1;
        }
        if !self.has_gap() {
            self.nack_at = None;
            self.nack_attempts = 0;
        } else if answered {
            // A request was answered: repair works, so the next one waits
            // the first retry, not a backoff grown while the gap stayed
            // open. Fresh in-order traffic does not count — a wild
            // `highest_seen` would otherwise keep the backoff at its floor.
            self.nack_attempts = 0;
        }
        RxOutcome::Delivered(Run { first: msg, rest })
    }

    /// Note a sequence number carried by an unreliable header (Heartbeat or
    /// RetransmitRequest): evidence of how far the source has sent.
    pub fn note_header_seq(&mut self, seq: SeqNum) {
        self.highest_seen = self.highest_seen.max(seq.0);
    }

    /// True when messages are known to be missing.
    pub fn has_gap(&self) -> bool {
        self.highest_seen >= self.next_seq
    }

    /// The missing ranges `[start, stop]` (inclusive), each capped at
    /// `max_span` sequence numbers: the earliest [`MAX_NACK_RANGES`] of
    /// them. `highest_seen` is whatever a header claimed, so nothing here
    /// may overflow or grow with it.
    pub fn missing_ranges(&self, max_span: u64) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        let mut cursor = self.next_seq;
        let mut received = self.buffer.keys().copied().peekable();
        while cursor <= self.highest_seen {
            // Skip past buffered (already received) sequence numbers.
            while received.peek().is_some_and(|&s| s < cursor) {
                received.next();
            }
            let gap_end = match received.peek() {
                Some(&s) if s <= self.highest_seen => s - 1,
                _ => self.highest_seen,
            };
            let mut start = cursor;
            while start <= gap_end {
                if ranges.len() == MAX_NACK_RANGES {
                    return ranges;
                }
                let stop = gap_end.min(start.saturating_add(max_span.saturating_sub(1)));
                ranges.push((start, stop));
                let Some(next) = stop.checked_add(1) else {
                    return ranges;
                };
                start = next;
            }
            // Step past the gap and the contiguous run of buffered messages
            // behind it.
            cursor = gap_end;
            loop {
                let Some(next) = cursor.checked_add(1) else {
                    return ranges;
                };
                cursor = next;
                if received.next_if_eq(&cursor).is_none() {
                    break;
                }
            }
        }
        ranges
    }

    /// NACK scheduler: called on gap detection and on ticks. Returns true
    /// when a RetransmitRequest should be emitted now; reschedules itself
    /// with period `retry`.
    pub fn nack_due(
        &mut self,
        now: SimTime,
        initial_jitter: SimDuration,
        retry: SimDuration,
    ) -> bool {
        if !self.has_gap() {
            self.nack_at = None;
            self.nack_attempts = 0;
            return false;
        }
        match self.nack_at {
            None => {
                self.nack_at = Some(now + initial_jitter);
                false
            }
            Some(at) if now >= at => {
                self.nack_at = Some(now + retry);
                self.nack_attempts += 1;
                // Karn's rule: time only the first request of the episode;
                // a re-issue makes any later answer ambiguous.
                self.nack_sent_at = if self.nack_attempts == 1 {
                    Some(now)
                } else {
                    None
                };
                true
            }
            Some(_) => false,
        }
    }

    /// RetransmitRequests issued for the current gap episode.
    pub fn nack_attempts(&self) -> u32 {
        self.nack_attempts
    }

    /// Offer an RTT sample: a retransmission addressed at this window's gap
    /// arrived at `now`. Returns the NACK→retransmission round-trip only
    /// when exactly one request is outstanding (Karn's rule) and the gap is
    /// still open (the retransmission answers *this* episode, not a
    /// suppression-window echo of someone else's). Consumes the sample.
    pub fn rtt_sample(&mut self, now: SimTime) -> Option<SimDuration> {
        if !self.has_gap() || self.nack_attempts != 1 {
            return None;
        }
        self.nack_sent_at
            .take()
            .map(|sent| now.saturating_since(sent))
    }
}

/// Per-group send counter.
#[derive(Debug, Default)]
pub struct SendState {
    last: u64,
}

impl SendState {
    /// Allocate the next sequence number (first is 1).
    pub fn allocate(&mut self) -> SeqNum {
        self.last += 1;
        SeqNum(self.last)
    }

    /// The sequence number of the most recent reliable message, carried by
    /// Heartbeats and RetransmitRequests (§5).
    pub fn last(&self) -> SeqNum {
        SeqNum(self.last)
    }
}

/// The any-holder retransmission buffer for one group.
///
/// Every reliable message — ours or anyone's — is retained until the ack
/// timestamps prove every member has it (§6 buffer management). While
/// retained, it can answer a RetransmitRequest from any processor.
///
/// One queue per source, sorted by sequence number (see the module doc for
/// what each operation costs and the stamp-rises-with-seq invariant the
/// front-first reclaim relies on). Each entry keeps the message's original
/// wire bytes (sharing the received datagram's buffer — no copy on insert)
/// and lazily materializes the retransmission form (same bytes with the
/// retransmission flag bit set) at most once; subsequent retransmissions are
/// reference-counted clones of that one buffer.
#[derive(Debug, Default)]
pub struct RetentionStore {
    sources: BTreeMap<ProcessorId, VecDeque<(u64, Retained)>>,
    /// Messages currently retained, over every source.
    len: usize,
    /// Bytes currently retained (payload accounting for experiment E6).
    bytes: usize,
    /// Entries [`reclaim_stable`](Self::reclaim_stable) has looked at (the
    /// complexity guard's counter).
    #[cfg(test)]
    visits: usize,
}

#[derive(Debug)]
struct Retained {
    /// The message's send timestamp: stable, hence reclaimable, once every
    /// member acknowledged past it.
    ts: Timestamp,
    /// The message exactly as it crossed (or will cross) the wire.
    wire: Bytes,
    /// Cached retransmission form: `wire` with the retransmission flag bit
    /// set. Built on first use; cheap handle clones after that.
    retx: Option<Bytes>,
    /// Last time we retransmitted it (implosion suppression).
    last_retransmit: Option<SimTime>,
}

/// Byte offset of the flags octet in the FTMP header.
const FLAGS_OFFSET: usize = 5;
/// Retransmission flag bit within the flags octet.
const RETRANSMISSION_BIT: u8 = 0x02;

impl Retained {
    /// The retransmission form of the wire bytes, built at most once.
    fn retx_bytes(&mut self) -> Bytes {
        if let Some(b) = &self.retx {
            return b.clone();
        }
        let b = if self
            .wire
            .get(FLAGS_OFFSET)
            .is_some_and(|f| f & RETRANSMISSION_BIT != 0)
        {
            // Received as a retransmission already: the wire form IS the
            // retransmission form; share the same buffer.
            self.wire.clone()
        } else {
            let mut v = self.wire.to_vec();
            if let Some(f) = v.get_mut(FLAGS_OFFSET) {
                *f |= RETRANSMISSION_BIT;
            }
            Bytes::from(v)
        };
        self.retx = Some(b.clone());
        b
    }
}

/// A queue this small is never shrunk: a quiet source's queue empties and
/// refills with every message and must not reallocate each time.
const QUEUE_FLOOR: usize = 16;

/// Give back a queue's spare capacity once its depth has fallen to a quarter
/// of it, so a backlog a lagging member once pinned is not held for ever;
/// the factor-of-two slack left keeps growth and shrinking from chasing each
/// other.
fn shrink(q: &mut VecDeque<(u64, Retained)>) {
    if q.capacity() > QUEUE_FLOOR && q.len() < q.capacity() / 4 {
        q.shrink_to((2 * q.len()).max(QUEUE_FLOOR));
    }
}

impl RetentionStore {
    /// Retain `source`'s message `seq`, stamped `ts`, as its encoded wire
    /// bytes (idempotent): a `push_back` for an in-order arrival, a
    /// binary-search insert otherwise.
    pub fn insert(&mut self, source: ProcessorId, seq: u64, ts: Timestamp, wire: Bytes) {
        let q = self.sources.entry(source).or_default();
        let size = wire.len();
        let entry = Retained {
            ts,
            wire,
            retx: None,
            last_retransmit: None,
        };
        match q.back() {
            Some(&(last, _)) if last >= seq => match q.binary_search_by_key(&seq, |e| e.0) {
                Ok(_) => return,
                Err(at) => q.insert(at, (seq, entry)),
            },
            _ => q.push_back((seq, entry)),
        }
        self.len += 1;
        self.bytes += size;
    }

    fn entry(&self, source: ProcessorId, seq: u64) -> Option<&Retained> {
        let q = self.sources.get(&source)?;
        let at = q.binary_search_by_key(&seq, |e| e.0).ok()?;
        Some(&q[at].1)
    }

    fn entry_mut(&mut self, source: ProcessorId, seq: u64) -> Option<&mut Retained> {
        let q = self.sources.get_mut(&source)?;
        let at = q.binary_search_by_key(&seq, |e| e.0).ok()?;
        Some(&mut q[at].1)
    }

    /// Whether `(source, seq)` is retained.
    pub fn contains(&self, source: ProcessorId, seq: u64) -> bool {
        self.entry(source, seq).is_some()
    }

    /// The retransmission-form wire bytes of a retained message, without
    /// touching the suppression window (used for proactive resends such as
    /// sponsor-join and membership-notice retries).
    pub fn retx_bytes(&mut self, source: ProcessorId, seq: u64) -> Option<Bytes> {
        self.entry_mut(source, seq).map(Retained::retx_bytes)
    }

    /// The original (non-retransmission) wire bytes of a retained message —
    /// a shared handle, no copy.
    pub fn wire_bytes(&self, source: ProcessorId, seq: u64) -> Option<Bytes> {
        self.entry(source, seq).map(|r| r.wire.clone())
    }

    /// Check the suppression window and, if clear, mark a retransmission of
    /// `(source, seq)` at `now` and return the ready-to-send wire bytes
    /// (retransmission flag set, buffer shared — no copy in steady state).
    pub fn take_for_retransmit(
        &mut self,
        source: ProcessorId,
        seq: u64,
        now: SimTime,
        suppress: SimDuration,
    ) -> Option<Bytes> {
        let r = self.entry_mut(source, seq)?;
        if let Some(last) = r.last_retransmit {
            if now.saturating_since(last) < suppress {
                return None;
            }
        }
        r.last_retransmit = Some(now);
        Some(r.retx_bytes())
    }

    /// Reclaim every message with timestamp ≤ `stable`: all members have
    /// acknowledged receiving everything up to `stable`, so no retransmission
    /// can ever be needed (§6). Returns the number reclaimed.
    ///
    /// Each source's queue is popped from the front and left at its first
    /// unstable entry, so the cost is what is reclaimed plus one look per
    /// source. A stable entry queued behind an unstable one (stamps that do
    /// not rise with sequence numbers) waits for it.
    pub fn reclaim_stable(&mut self, stable: Timestamp) -> usize {
        let mut reclaimed = 0;
        for q in self.sources.values_mut() {
            let before = reclaimed;
            while let Some((_, r)) = q.front() {
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                if r.ts > stable {
                    break;
                }
                self.bytes -= r.wire.len();
                q.pop_front();
                reclaimed += 1;
            }
            if reclaimed > before {
                shrink(q);
            }
        }
        self.len -= reclaimed;
        reclaimed
    }

    /// Drop retained messages from a removed/convicted source whose
    /// sequence numbers exceed the agreed reconciliation target (`0`: all of
    /// them — a restarting member's old incarnation).
    pub fn drop_beyond(&mut self, source: ProcessorId, beyond: u64) {
        let Some(q) = self.sources.get_mut(&source) else {
            return;
        };
        while let Some((_, r)) = q.back().filter(|e| e.0 > beyond) {
            self.bytes -= r.wire.len();
            self.len -= 1;
            q.pop_back();
        }
        shrink(q);
    }

    /// Number of retained messages originated by `source` — for our own id
    /// this is the unstable send backlog the flow-control window bounds.
    pub fn held_by(&self, source: ProcessorId) -> usize {
        self.sources.get(&source).map_or(0, VecDeque::len)
    }

    /// Number of retained messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes currently retained.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Per-layer traffic counters exposed through
/// [`crate::processor::Processor::stats`] and the harness report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RmpCounters {
    /// Reliable messages offered to the layer (including own loopbacks).
    pub msgs_in: u64,
    /// Messages released upward in source order.
    pub msgs_out: u64,
    /// Duplicate arrivals discarded (own loopbacks excluded).
    pub duplicates: u64,
    /// RetransmitRequests answered from the retention store.
    pub retransmits_answered: u64,
    /// High-water mark of out-of-order messages buffered at once.
    pub reorder_depth_max: u64,
}

/// Typed input consumed by [`RmpLayer::handle`].
#[derive(Debug)]
pub enum RmpInput {
    /// A decoded reliable message together with the wire bytes it arrived
    /// in (shared with the datagram buffer — retained without copying).
    /// `own` marks the loopback of a message this processor sent.
    Reliable {
        /// The decoded message.
        msg: FtmpMessage,
        /// Its encoded form exactly as received or sent.
        wire: Bytes,
        /// True for the synchronous loopback of our own send.
        own: bool,
    },
    /// Sequence-number evidence carried by an unreliable header (Heartbeat
    /// or RetransmitRequest): proof of how far `source` has sent.
    HeaderSeq {
        /// The source the header came from.
        source: ProcessorId,
        /// The last-sent sequence number it cited.
        seq: SeqNum,
    },
}

/// Typed output emitted upward by [`RmpLayer::handle`] for ROMP to consume.
#[derive(Debug)]
pub enum RmpOutput {
    /// A contiguous source-ordered run released for total ordering.
    Released(Run),
    /// Out of order; buffered awaiting a gap fill. NACKs are scheduled.
    Buffered,
    /// Already held; dropped.
    Duplicate,
    /// Header evidence noted; `contiguous` is the source's highest
    /// contiguously received sequence number after the note.
    Noted {
        /// Highest contiguous sequence number from that source.
        contiguous: u64,
    },
}

/// The RMP sub-state-machine for one group: send counter, per-source
/// receive windows and the any-holder retention store.
///
/// Sans-io: consumes [`RmpInput`]s, returns [`RmpOutput`]s; the composition
/// shell turns NACK schedules and retransmission answers into datagrams.
#[derive(Debug)]
pub struct RmpLayer {
    self_id: ProcessorId,
    send: SendState,
    rx: BTreeMap<ProcessorId, SourceRx>,
    retention: RetentionStore,
    counters: RmpCounters,
}

impl RmpLayer {
    /// A fresh layer for a group this processor (`self_id`) belongs to.
    pub fn new(self_id: ProcessorId) -> Self {
        RmpLayer {
            self_id,
            send: SendState::default(),
            rx: BTreeMap::new(),
            retention: RetentionStore::default(),
            counters: RmpCounters::default(),
        }
    }

    /// Allocate the next send sequence number (first is 1).
    pub fn allocate_seq(&mut self) -> SeqNum {
        self.send.allocate()
    }

    /// The sequence number of our most recent reliable send.
    pub fn last_seq(&self) -> SeqNum {
        self.send.last()
    }

    /// Feed one input through the layer.
    pub fn handle(&mut self, input: RmpInput) -> RmpOutput {
        match input {
            RmpInput::Reliable { msg, wire, own } => {
                self.counters.msgs_in += 1;
                let source = msg.source;
                // Retain first: any-holder retransmission must cover
                // buffered and duplicate arrivals too (idempotent).
                self.retention.insert(source, msg.seq.0, msg.ts, wire);
                let rx = self
                    .rx
                    .entry(source)
                    .or_insert_with(|| SourceRx::starting_at(1));
                match rx.on_reliable(msg) {
                    RxOutcome::Duplicate => {
                        if !own && source != self.self_id {
                            self.counters.duplicates += 1;
                        }
                        RmpOutput::Duplicate
                    }
                    RxOutcome::Buffered => {
                        let depth: u64 = self.rx.values().map(|r| r.buffered() as u64).sum();
                        self.counters.reorder_depth_max =
                            self.counters.reorder_depth_max.max(depth);
                        RmpOutput::Buffered
                    }
                    RxOutcome::Delivered(run) => {
                        self.counters.msgs_out += run.len() as u64;
                        RmpOutput::Released(run)
                    }
                }
            }
            RmpInput::HeaderSeq { source, seq } => {
                let rx = self
                    .rx
                    .entry(source)
                    .or_insert_with(|| SourceRx::starting_at(1));
                rx.note_header_seq(seq);
                RmpOutput::Noted {
                    contiguous: rx.contiguous(),
                }
            }
        }
    }

    /// Seed a receive window for `source` expecting the stream to start at
    /// `first_seq` (joiner reconciliation, §7.1).
    pub fn seed_window(&mut self, source: ProcessorId, first_seq: u64) {
        self.rx.insert(source, SourceRx::starting_at(first_seq));
    }

    /// Highest contiguously received sequence number from `source` (0 when
    /// nothing is known about it).
    pub fn contiguous_of(&self, source: ProcessorId) -> u64 {
        self.rx.get(&source).map(|rx| rx.contiguous()).unwrap_or(0)
    }

    /// RetransmitRequests issued for `source`'s current gap episode (0 when
    /// the stream is contiguous or unknown). Read by the telemetry hooks
    /// right after [`nack_requests`](Self::nack_requests) issues a request.
    pub fn nack_attempts_of(&self, source: ProcessorId) -> u32 {
        self.rx
            .get(&source)
            .map(|rx| rx.nack_attempts())
            .unwrap_or(0)
    }

    /// Total out-of-order messages buffered across all sources.
    pub fn buffered_total(&self) -> usize {
        self.rx.values().map(|rx| rx.buffered()).sum()
    }

    /// Highest contiguous sequence number for every source ever heard.
    pub fn contiguous_map(&self) -> BTreeMap<ProcessorId, u64> {
        self.rx
            .iter()
            .map(|(&p, rx)| (p, rx.contiguous()))
            .collect()
    }

    /// Run the NACK schedulers for every remote source and collect the
    /// missing ranges whose RetransmitRequests are due now. `jitter` is
    /// drawn once per remote window on every call, gap or not (randomness
    /// stays in the shell, and its idle tick repeats the draws);
    /// `retry` maps the window's current attempt count to its next re-issue
    /// delay, which is how the shell injects exponential backoff. `next_due`
    /// is lowered to the earliest time a window with a gap checks again.
    pub fn nack_requests(
        &mut self,
        now: SimTime,
        max_span: u64,
        mut jitter: impl FnMut() -> SimDuration,
        mut retry: impl FnMut(u32) -> SimDuration,
        next_due: &mut SimTime,
    ) -> Vec<(ProcessorId, Vec<(u64, u64)>)> {
        let self_id = self.self_id;
        let mut due = Vec::new();
        for (&source, rx) in self.rx.iter_mut() {
            if source == self_id {
                continue;
            }
            let r = retry(rx.nack_attempts());
            if rx.nack_due(now, jitter(), r) {
                let ranges = rx.missing_ranges(max_span);
                if !ranges.is_empty() {
                    due.push((source, ranges));
                }
            }
            if let Some(at) = rx.nack_at {
                *next_due = (*next_due).min(at);
            }
        }
        due
    }

    /// Offer an RTT sample for a retransmission just received from
    /// `source`'s stream (see [`SourceRx::rtt_sample`]).
    pub fn rtt_sample_for(&mut self, source: ProcessorId, now: SimTime) -> Option<SimDuration> {
        self.rx.get_mut(&source)?.rtt_sample(now)
    }

    /// Answer a RetransmitRequest for `(source, seq)` from the retention
    /// store, honoring the implosion-suppression window. Returns the
    /// ready-to-send retransmission bytes.
    pub fn answer_retransmit(
        &mut self,
        source: ProcessorId,
        seq: u64,
        now: SimTime,
        suppress: SimDuration,
    ) -> Option<Bytes> {
        let b = self
            .retention
            .take_for_retransmit(source, seq, now, suppress)?;
        self.counters.retransmits_answered += 1;
        Some(b)
    }

    /// The any-holder retention store (reclamation and notice lookups).
    pub fn retention(&self) -> &RetentionStore {
        &self.retention
    }

    /// Mutable access to the retention store.
    pub fn retention_mut(&mut self) -> &mut RetentionStore {
        &mut self.retention
    }

    /// This layer's traffic counters.
    pub fn counters(&self) -> RmpCounters {
        self.counters
    }
}

#[cfg(test)]
mod retention_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::wire::{FtmpBody, FTMP_HEADER_LEN};
    use ftmp_cdr::ByteOrder;
    use proptest::prelude::*;

    fn msg(src: u32, seq: u64, ts: u64) -> FtmpMessage {
        FtmpMessage {
            retransmission: false,
            source: ProcessorId(src),
            group: GroupId(1),
            seq: SeqNum(seq),
            ts: Timestamp(ts),
            ack_ts: Timestamp(0),
            body: FtmpBody::Heartbeat, // body type irrelevant to RMP tests
        }
    }

    fn wire_of(m: &FtmpMessage) -> Bytes {
        m.encode(ByteOrder::Big)
    }

    fn retain(store: &mut RetentionStore, m: &FtmpMessage) {
        store.insert(m.source, m.seq.0, m.ts, wire_of(m));
    }

    #[test]
    fn in_order_stream_delivers_immediately() {
        let mut rx = SourceRx::starting_at(1);
        for seq in 1..=5 {
            match rx.on_reliable(msg(1, seq, seq * 10)) {
                RxOutcome::Delivered(run) => assert_eq!(run.len(), 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(rx.contiguous(), 5);
        assert!(!rx.has_gap());
    }

    #[test]
    fn gap_buffers_then_releases_run() {
        let mut rx = SourceRx::starting_at(1);
        assert_eq!(rx.on_reliable(msg(1, 2, 20)), RxOutcome::Buffered);
        assert_eq!(rx.on_reliable(msg(1, 3, 30)), RxOutcome::Buffered);
        assert!(rx.has_gap());
        match rx.on_reliable(msg(1, 1, 10)) {
            RxOutcome::Delivered(run) => {
                let seqs: Vec<u64> = run.iter().map(|m| m.seq.0).collect();
                assert_eq!(seqs, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!rx.has_gap());
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn duplicates_detected() {
        let mut rx = SourceRx::starting_at(1);
        rx.on_reliable(msg(1, 1, 10));
        assert_eq!(rx.on_reliable(msg(1, 1, 10)), RxOutcome::Duplicate);
        rx.on_reliable(msg(1, 3, 30));
        assert_eq!(rx.on_reliable(msg(1, 3, 30)), RxOutcome::Duplicate);
    }

    #[test]
    fn heartbeat_seq_reveals_gap() {
        let mut rx = SourceRx::starting_at(1);
        rx.on_reliable(msg(1, 1, 10));
        assert!(!rx.has_gap());
        rx.note_header_seq(SeqNum(4));
        assert!(rx.has_gap());
        assert_eq!(rx.missing_ranges(64), vec![(2, 4)]);
    }

    #[test]
    fn missing_ranges_split_around_buffered() {
        let mut rx = SourceRx::starting_at(1);
        rx.on_reliable(msg(1, 3, 30));
        rx.on_reliable(msg(1, 6, 60));
        rx.note_header_seq(SeqNum(8));
        assert_eq!(rx.missing_ranges(64), vec![(1, 2), (4, 5), (7, 8)]);
    }

    #[test]
    fn missing_ranges_capped_by_span() {
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(10));
        assert_eq!(rx.missing_ranges(4), vec![(1, 4), (5, 8), (9, 10)]);
    }

    /// A header's sequence number is a claim, not a fact: whatever it says,
    /// one call returns a capped list, the real gap first, and overflows
    /// nothing on the way to `u64::MAX`.
    #[test]
    fn missing_ranges_bounded_by_count_whatever_a_header_claims() {
        for wild in [1u64 << 60, u64::MAX] {
            let mut rx = SourceRx::starting_at(1);
            rx.on_reliable(msg(1, 1, 10));
            rx.on_reliable(msg(1, 4, 40));
            rx.note_header_seq(SeqNum(wild));
            let ranges = rx.missing_ranges(64);
            assert_eq!(ranges.len(), MAX_NACK_RANGES);
            assert_eq!(ranges[..3], [(2, 3), (5, 68), (69, 132)]);
            assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
            assert!(ranges.iter().all(|&(a, b)| a <= b && b - a < 64));
        }
        // The far end itself, with a span that covers everything.
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(u64::MAX));
        assert_eq!(rx.missing_ranges(u64::MAX), vec![(1, u64::MAX)]);
        assert_eq!(rx.on_reliable(msg(1, u64::MAX, 9)), RxOutcome::Buffered);
        assert_eq!(rx.missing_ranges(u64::MAX), vec![(1, u64::MAX - 1)]);
        assert_eq!(rx.missing_ranges(0).len(), MAX_NACK_RANGES);
    }

    #[test]
    fn joiner_window_starts_after_cited_seq() {
        let mut rx = SourceRx::starting_at(6);
        assert_eq!(rx.contiguous(), 5);
        assert!(!rx.has_gap());
        match rx.on_reliable(msg(1, 6, 60)) {
            RxOutcome::Delivered(run) => assert_eq!(run.iter().next().unwrap().seq.0, 6),
            other => panic!("unexpected {other:?}"),
        }
        // Old traffic is a duplicate, not a gap trigger.
        assert_eq!(rx.on_reliable(msg(1, 2, 20)), RxOutcome::Duplicate);
    }

    #[test]
    fn nack_scheduling_jitter_then_retry() {
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(3));
        let jitter = SimDuration::from_millis(2);
        let retry = SimDuration::from_millis(8);
        // First call arms the timer, does not fire.
        assert!(!rx.nack_due(SimTime(0), jitter, retry));
        // Before the jitter elapses: no fire.
        assert!(!rx.nack_due(SimTime(1_000), jitter, retry));
        // After: fire once, rearmed at +retry.
        assert!(rx.nack_due(SimTime(2_500), jitter, retry));
        assert!(!rx.nack_due(SimTime(3_000), jitter, retry));
        assert!(rx.nack_due(SimTime(11_000), jitter, retry));
        // Gap fills: no more NACKs.
        rx.on_reliable(msg(1, 1, 1));
        rx.on_reliable(msg(1, 2, 2));
        rx.on_reliable(msg(1, 3, 3));
        assert!(!rx.nack_due(SimTime(30_000), jitter, retry));
    }

    #[test]
    fn karn_rule_samples_only_single_outstanding_nack() {
        let jitter = SimDuration::from_millis(0);
        let retry = SimDuration::from_millis(8);
        // One outstanding request: the answer is an unambiguous sample.
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(2));
        assert!(!rx.nack_due(SimTime(0), jitter, retry)); // arm
        assert!(rx.nack_due(SimTime(1_000), jitter, retry)); // fire #1
        let s = rx.rtt_sample(SimTime(4_500)).expect("one NACK outstanding");
        assert_eq!(s.as_micros(), 3_500);
        // The sample is consumed: a second retransmission gives nothing.
        assert!(rx.rtt_sample(SimTime(5_000)).is_none());

        // Two outstanding requests: ambiguous, Karn discards.
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(2));
        assert!(!rx.nack_due(SimTime(0), jitter, retry));
        assert!(rx.nack_due(SimTime(1_000), jitter, retry)); // fire #1
        assert!(rx.nack_due(SimTime(20_000), jitter, retry)); // fire #2
        assert!(rx.rtt_sample(SimTime(21_000)).is_none());

        // No gap (suppression-window echo of someone else's NACK): no sample.
        let mut rx = SourceRx::starting_at(1);
        rx.on_reliable(msg(1, 1, 1));
        assert!(rx.rtt_sample(SimTime(9_000)).is_none());
    }

    #[test]
    fn nack_attempts_reset_when_gap_closes() {
        let jitter = SimDuration::from_millis(0);
        let retry = SimDuration::from_millis(8);
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(2));
        assert!(!rx.nack_due(SimTime(0), jitter, retry));
        assert!(rx.nack_due(SimTime(1_000), jitter, retry));
        assert!(rx.nack_due(SimTime(20_000), jitter, retry));
        assert_eq!(rx.nack_attempts(), 2);
        rx.on_reliable(msg(1, 1, 1));
        rx.on_reliable(msg(1, 2, 2));
        assert_eq!(rx.nack_attempts(), 0);
    }

    #[test]
    fn nack_attempts_reset_when_a_retransmission_advances_an_open_gap() {
        let jitter = SimDuration::from_millis(0);
        let retry = SimDuration::from_millis(8);
        let mut rx = SourceRx::starting_at(1);
        rx.note_header_seq(SeqNum(9));
        assert!(!rx.nack_due(SimTime(0), jitter, retry));
        assert!(rx.nack_due(SimTime(1_000), jitter, retry));
        assert!(rx.nack_due(SimTime(20_000), jitter, retry));
        // Fresh in-order traffic behind a claimed gap is not an answer.
        rx.on_reliable(msg(1, 1, 1));
        assert_eq!(rx.nack_attempts(), 2);
        // A retransmission that moves the frontier is, though a gap stays.
        let mut answer = msg(1, 2, 2);
        answer.retransmission = true;
        rx.on_reliable(answer);
        assert!(rx.has_gap());
        assert_eq!(rx.nack_attempts(), 0);
    }

    #[test]
    fn retention_held_by_counts_per_source() {
        let mut store = RetentionStore::default();
        for m in [msg(1, 1, 10), msg(1, 2, 20), msg(2, 1, 15)] {
            retain(&mut store, &m);
        }
        assert_eq!(store.held_by(ProcessorId(1)), 2);
        assert_eq!(store.held_by(ProcessorId(2)), 1);
        assert_eq!(store.held_by(ProcessorId(3)), 0);
    }

    #[test]
    fn send_state_counts_from_one() {
        let mut s = SendState::default();
        assert_eq!(s.last(), SeqNum(0));
        assert_eq!(s.allocate(), SeqNum(1));
        assert_eq!(s.allocate(), SeqNum(2));
        assert_eq!(s.last(), SeqNum(2));
    }

    #[test]
    fn retention_insert_get_reclaim() {
        let mut store = RetentionStore::default();
        for m in [msg(1, 1, 10), msg(1, 2, 20), msg(2, 1, 15)] {
            retain(&mut store, &m);
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.bytes(), 3 * FTMP_HEADER_LEN);
        assert!(store.contains(ProcessorId(1), 2));
        // Idempotent insert does not double count.
        let dup = msg(1, 1, 10);
        retain(&mut store, &dup);
        assert_eq!(store.bytes(), 3 * FTMP_HEADER_LEN);
        // Stability at ts 15 reclaims ts 10 and 15.
        let n = store.reclaim_stable(Timestamp(15));
        assert_eq!(n, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), FTMP_HEADER_LEN);
        assert!(store.contains(ProcessorId(1), 2));
    }

    #[test]
    fn retransmit_suppression_window() {
        let mut store = RetentionStore::default();
        let m = msg(1, 1, 10);
        retain(&mut store, &m);
        let sup = SimDuration::from_millis(4);
        assert!(store
            .take_for_retransmit(ProcessorId(1), 1, SimTime(0), sup)
            .is_some());
        // Within the window: suppressed.
        assert!(store
            .take_for_retransmit(ProcessorId(1), 1, SimTime(2_000), sup)
            .is_none());
        // After: allowed again.
        assert!(store
            .take_for_retransmit(ProcessorId(1), 1, SimTime(5_000), sup)
            .is_some());
        // Unknown message: none.
        assert!(store
            .take_for_retransmit(ProcessorId(9), 1, SimTime(0), sup)
            .is_none());
    }

    #[test]
    fn drop_beyond_discards_tail() {
        let mut store = RetentionStore::default();
        for seq in 1..=5 {
            let m = msg(1, seq, seq * 10);
            retain(&mut store, &m);
        }
        let m = msg(2, 1, 10);
        retain(&mut store, &m);
        store.drop_beyond(ProcessorId(1), 3);
        assert_eq!(store.len(), 4);
        assert!(store.contains(ProcessorId(1), 3));
        assert!(!store.contains(ProcessorId(1), 4));
        assert!(store.contains(ProcessorId(2), 1));
        assert_eq!(store.bytes(), 4 * FTMP_HEADER_LEN);
    }

    #[test]
    fn retransmission_bytes_built_once_then_shared() {
        let mut store = RetentionStore::default();
        let m = msg(1, 1, 10);
        let w = wire_of(&m);
        assert_eq!(w[FLAGS_OFFSET] & RETRANSMISSION_BIT, 0);
        store.insert(m.source, m.seq.0, m.ts, w);
        let sup = SimDuration::from_millis(0);
        let b1 = store
            .take_for_retransmit(ProcessorId(1), 1, SimTime(0), sup)
            .unwrap();
        assert_ne!(b1[FLAGS_OFFSET] & RETRANSMISSION_BIT, 0);
        // Round-trips as the same message with the retransmission flag.
        let decoded = FtmpMessage::decode(&b1).unwrap();
        assert!(decoded.retransmission);
        assert_eq!(decoded.seq, SeqNum(1));
        // The second answer is the SAME buffer — pointer-equal, no copy.
        let b2 = store
            .take_for_retransmit(ProcessorId(1), 1, SimTime(10_000), sup)
            .unwrap();
        assert_eq!(b1.as_ref().as_ptr(), b2.as_ref().as_ptr());
        let b3 = store.retx_bytes(ProcessorId(1), 1).unwrap();
        assert_eq!(b1.as_ref().as_ptr(), b3.as_ref().as_ptr());
    }

    #[test]
    fn received_retransmission_reuses_wire_buffer_directly() {
        let mut store = RetentionStore::default();
        let mut m = msg(1, 1, 10);
        m.retransmission = true;
        let w = m.encode(ByteOrder::Big);
        assert_ne!(w[FLAGS_OFFSET] & RETRANSMISSION_BIT, 0);
        let wire_ptr = w.as_ref().as_ptr();
        store.insert(m.source, m.seq.0, m.ts, w);
        let b = store.retx_bytes(ProcessorId(1), 1).unwrap();
        // Already in retransmission form: zero materialization, shares the
        // received datagram's buffer.
        assert_eq!(b.as_ref().as_ptr(), wire_ptr);
    }

    #[test]
    fn rmp_layer_gap_fill_releases_in_source_order() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        let offer = |layer: &mut RmpLayer, m: FtmpMessage| {
            let wire = wire_of(&m);
            layer.handle(RmpInput::Reliable {
                msg: m,
                wire,
                own: false,
            })
        };
        assert!(matches!(
            offer(&mut layer, msg(1, 2, 20)),
            RmpOutput::Buffered
        ));
        assert!(matches!(
            offer(&mut layer, msg(1, 3, 30)),
            RmpOutput::Buffered
        ));
        // Header evidence shows seq 3 exists; contiguous is still 0.
        match layer.handle(RmpInput::HeaderSeq {
            source: ProcessorId(1),
            seq: SeqNum(3),
        }) {
            RmpOutput::Noted { contiguous } => assert_eq!(contiguous, 0),
            other => panic!("unexpected {other:?}"),
        }
        // The gap fill releases the whole run in source order.
        match offer(&mut layer, msg(1, 1, 10)) {
            RmpOutput::Released(run) => {
                let seqs: Vec<u64> = run.iter().map(|m| m.seq.0).collect();
                assert_eq!(seqs, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            offer(&mut layer, msg(1, 2, 20)),
            RmpOutput::Duplicate
        ));
        let c = layer.counters();
        assert_eq!(c.msgs_in, 4);
        assert_eq!(c.msgs_out, 3);
        assert_eq!(c.duplicates, 1);
        assert_eq!(c.reorder_depth_max, 2);
    }

    #[test]
    fn rmp_layer_nacks_then_answers_retransmit() {
        let mut layer = RmpLayer::new(ProcessorId(2));
        let m = msg(1, 1, 10);
        let w = wire_of(&m);
        layer.handle(RmpInput::Reliable {
            msg: m,
            wire: w,
            own: false,
        });
        let m3 = msg(1, 3, 30);
        let w3 = wire_of(&m3);
        layer.handle(RmpInput::Reliable {
            msg: m3,
            wire: w3,
            own: false,
        });
        let retry = |_attempts: u32| SimDuration::from_millis(8);
        let zero_jitter = || SimDuration::from_millis(0);
        // First pass arms the per-source NACK timer.
        let mut next = SimTime(u64::MAX);
        assert!(layer
            .nack_requests(SimTime(0), 64, zero_jitter, retry, &mut next)
            .is_empty());
        assert_eq!(next, SimTime(0), "armed with no jitter");
        // Second pass fires: seq 2 is missing.
        let due = layer.nack_requests(SimTime(1), 64, zero_jitter, retry, &mut next);
        assert_eq!(due, vec![(ProcessorId(1), vec![(2, 2)])]);
        // Any holder answers from retention, counting the retransmit.
        let sup = SimDuration::from_millis(4);
        let b = layer
            .answer_retransmit(ProcessorId(1), 1, SimTime(2), sup)
            .unwrap();
        assert!(FtmpMessage::decode(&b).unwrap().retransmission);
        assert_eq!(layer.counters().retransmits_answered, 1);
        // Suppression window blocks an immediate second answer.
        assert!(layer
            .answer_retransmit(ProcessorId(1), 1, SimTime(3), sup)
            .is_none());
        assert_eq!(layer.counters().retransmits_answered, 1);
    }

    proptest! {
        /// Whatever the arrival permutation, the delivered stream is exactly
        /// 1..=n in order, with no duplicates.
        #[test]
        fn prop_source_order_restored(perm in proptest::sample::subsequence((1u64..=20).collect::<Vec<_>>(), 20).prop_shuffle()) {
            let mut rx = SourceRx::starting_at(1);
            let mut delivered = Vec::new();
            for seq in perm {
                if let RxOutcome::Delivered(run) = rx.on_reliable(msg(1, seq, seq)) {
                    delivered.extend(run.into_iter().map(|m| m.seq.0));
                }
            }
            prop_assert_eq!(delivered, (1u64..=20).collect::<Vec<_>>());
        }

        /// Duplicated, shuffled arrivals still deliver each message once.
        #[test]
        fn prop_duplicates_never_redeliver(
            arrivals in proptest::collection::vec(1u64..=10, 0..60),
        ) {
            let mut rx = SourceRx::starting_at(1);
            let mut delivered = Vec::new();
            for seq in arrivals {
                if let RxOutcome::Delivered(run) = rx.on_reliable(msg(1, seq, seq)) {
                    delivered.extend(run.into_iter().map(|m| m.seq.0));
                }
            }
            let mut sorted = delivered.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&sorted, &delivered, "delivery is in order, no dups");
        }

        /// missing_ranges exactly complements {buffered} ∪ {contiguous} up
        /// to highest_seen.
        #[test]
        fn prop_missing_ranges_complete(
            received in proptest::collection::btree_set(1u64..40, 0..25),
            highest in 1u64..40,
        ) {
            let mut rx = SourceRx::starting_at(1);
            for &seq in &received {
                rx.on_reliable(msg(1, seq, seq));
            }
            rx.note_header_seq(SeqNum(highest));
            let ranges = rx.missing_ranges(1_000);
            let mut missing = std::collections::BTreeSet::new();
            for (a, b) in &ranges {
                for s in *a..=*b {
                    missing.insert(s);
                }
            }
            let hi = rx.highest_seen();
            for s in 1..=hi {
                let have = s <= rx.contiguous() || received.contains(&s);
                prop_assert_eq!(missing.contains(&s), !have, "seq {}", s);
            }
        }
    }
}
