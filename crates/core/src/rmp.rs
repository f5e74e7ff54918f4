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
//! This module holds the RMP sub-state-machine ([`RmpLayer`]): the send
//! counter and one log per source. The layer consumes typed
//! [`RmpInput`]s (reliable messages and header sequence evidence) and emits
//! typed [`RmpOutput`]s upward to ROMP; the [`crate::processor`] shell calls
//! the typed methods behind them ([`RmpLayer::receive`],
//! [`RmpLayer::note_header`]) and wires the layer to the clock and the
//! network.
//!
//! **One log per source.** Everything RMP holds of a source's stream is one
//! queue of slots sorted by sequence number, with two cursors: the next
//! sequence number expected in order (everything below it was released)
//! and the highest one any header has cited. A slot below the contiguous
//! cursor is a released message kept for any-holder retransmission until
//! the ack timestamps make it stable (§6); a slot above it is an early
//! arrival, kept for retransmission too, that waits for the gap in front of
//! it to fill and is decoded again from its wire bytes when released. Each
//! reliable message lives in exactly one slot. What each operation costs:
//!
//! * an in-order arrival is a `push_back`, and the early arrivals it
//!   releases are the slots right behind it, walked once;
//! * an early arrival, a duplicate and a retransmission look-up are a
//!   binary search;
//! * [`reclaim_stable`](RmpLayer::reclaim_stable) pops each source's front
//!   while it is stable and stops at the first slot that is not (a reclaim
//!   that reclaims nothing looks at one slot per source), and skips every
//!   log when stability has not passed the last pass or nothing is
//!   retained;
//! * [`held_by`](RmpLayer::held_by), [`buffered_total`](RmpLayer::buffered_total)
//!   and [`retained_len`](RmpLayer::retained_len) are kept counts;
//!   [`retained_bytes`](RmpLayer::retained_bytes), read by the metrics
//!   only, walks the slots.
//!
//! The log is *sorted by* sequence number, never *indexed by* `seq − base`:
//! a wild sequence number from a confused peer costs one slot, not an
//! allocation sized by the number. Reclaiming from the front relies on a
//! source's timestamps rising with its sequence numbers — `Clock::stamp_send`
//! and [`RmpLayer::allocate_seq`] are both monotone and a retransmission
//! keeps its stamp. A slot that breaks this is reclaimed *late*, once the
//! slot in front of it is stable too, never *early*.
//!
//! **Retained, or only waiting.** Retention (what answers a request and
//! counts in `held_by`) and the receive window (what is released in order)
//! let go of a message at different times where a stability point passes
//! a hole (a source no longer in the view, whose stamps stability no
//! longer waits for): it reclaims early arrivals from retention, and the
//! log keeps both by letting a slot lose its retention part while it
//! stays. Such an early arrival is still no gap to NACK, a copy of it is
//! still a duplicate (which retains it again), and a gap fill still
//! releases it, taking the slot out of the log.
//!
//! **A cut seals the stream.** A source that left the view — by conviction,
//! cut at the agreed reconciliation target, or by a voluntary leave, cut at
//! our contiguous cursor ([`drop_beyond`](RmpLayer::drop_beyond)) — is
//! sealed at the cut, or at our cursor if that is past it: everything held
//! above the cut leaves the log, and whatever arrives above the seal
//! afterwards is refused as a duplicate and asked for by no NACK. A source
//! never heard from is sealed in an empty log. No survivor delivers past
//! the agreed target, so a member that did would break the total order.
//!
//! **Zero-copy retransmission.** A slot keeps the message's original wire
//! bytes (a [`Bytes`] handle sharing the received datagram's buffer) and
//! nothing else of it — no decoded copy, not even of an early arrival. A
//! retransmission differs from the original only in one header flag bit, so
//! the retransmission form is materialized at most once per message and
//! every NACK answer after that is a reference-counted handle clone — no
//! re-encoding, no buffer copy.
//!
//! **Bounded NACK work.** Sequence numbers in headers are unauthenticated:
//! a NACK pass asks for at most [`MAX_NACK_RANGES`] ranges per source,
//! earliest gaps first (the next retry asks for the rest), and its
//! arithmetic saturates, so a Heartbeat citing `seq = u64::MAX` costs a
//! bounded burst of requests instead of an unbounded allocation.
//!
//! [`wire::FtmpBody::RetransmitRequest`]: crate::wire::FtmpBody::RetransmitRequest

use crate::ids::{ProcessorId, SeqNum, Timestamp};
use crate::wire::{self, FtmpMessage};
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

/// What the receive window made of a reliable message
/// ([`RmpLayer::receive`]).
#[derive(Debug, PartialEq, Eq)]
pub enum RxOutcome {
    /// Already received (retransmission or duplicate), or past a departed
    /// source's seal; dropped.
    Duplicate,
    /// Out of order; buffered awaiting the gap fill.
    Buffered,
    /// In order; the contained run (this message plus any buffered
    /// successors it released) is delivered upward in source order.
    Delivered(Run),
}

/// Most ranges one NACK pass asks of a source. A header's sequence number
/// is unauthenticated evidence, so the work one of them can ask for is
/// capped; honest gaps are far fewer (each range is one RetransmitRequest
/// datagram) and what a pass leaves out the next retry asks for.
pub const MAX_NACK_RANGES: usize = 64;

/// One message of a source's stream, as its log holds it: 80 bytes, what
/// a retention entry was before the log.
#[derive(Debug)]
struct Slot {
    seq: u64,
    /// The message's send timestamp: stable, hence reclaimable, once every
    /// member acknowledged past it.
    ts: Timestamp,
    /// The message exactly as it crossed (or will cross) the wire. An early
    /// arrival is decoded from it again when a gap fill releases it.
    wire: Bytes,
    /// Retention's part: `None` for an early arrival retention let go of
    /// while it still waits in the window (the module doc's "Retained, or
    /// only waiting").
    kept: Option<Kept>,
}

/// What a retained slot keeps for answering requests.
#[derive(Debug, Default)]
struct Kept {
    /// Cached retransmission form: `wire` with the retransmission flag bit
    /// set. Built on first use; cheap handle clones after that.
    retx: Option<Bytes>,
    /// Last time we retransmitted it (implosion suppression).
    last_retransmit: Option<SimTime>,
}

impl Slot {
    /// The retransmission form of a retained slot's wire bytes, built at
    /// most once.
    fn retx_bytes(&mut self) -> Option<Bytes> {
        let (wire, kept) = (&self.wire, self.kept.as_mut()?);
        let retx = kept
            .retx
            .get_or_insert_with(|| wire::retransmission_form(wire));
        Some(retx.clone())
    }
}

/// A queue this small is never shrunk: a quiet source's queue empties and
/// refills with every message and must not reallocate each time.
pub(crate) const QUEUE_FLOOR: usize = 16;

/// Give back a queue's spare capacity once its depth has fallen to a quarter
/// of it, so a backlog a lagging member once pinned is not held for ever;
/// the factor-of-two slack left keeps growth and shrinking from chasing each
/// other.
pub(crate) fn shrink<T>(q: &mut VecDeque<T>) {
    if q.capacity() > QUEUE_FLOOR && q.len() < q.capacity() / 4 {
        q.shrink_to((2 * q.len()).max(QUEUE_FLOOR));
    }
}

/// One source's stream in one group: its slots sorted by sequence number,
/// the two cursors and the NACK schedule for its gaps.
#[derive(Debug, Default)]
struct SourceLog {
    slots: VecDeque<Slot>,
    /// Next sequence number expected in contiguous order.
    next_seq: u64,
    /// Highest sequence number seen in any header from this source
    /// (including Heartbeats), i.e. how far the source has provably sent,
    /// up to `ceiling`.
    highest_seen: u64,
    /// The seal: the highest sequence number taken in or asked for.
    /// `u64::MAX` while the source is in the view, its cut (or our cursor,
    /// if that is past it) once it has left, so that what it still sends
    /// above the cut is refused and arms nothing.
    ceiling: u64,
    /// Retained slots.
    held: usize,
    /// When the next RetransmitRequest for this source's gaps is due.
    nack_at: Option<SimTime>,
    /// RetransmitRequests issued since the stream was last contiguous or a
    /// retransmission last advanced it; drives exponential backoff.
    nack_attempts: u32,
    /// When the *first* RetransmitRequest of the episode was sent. Cleared
    /// on re-issue: per Karn's rule a round-trip measured across more than
    /// one outstanding request is ambiguous and must be discarded.
    nack_sent_at: Option<SimTime>,
    /// Slots reclaim passes have looked at (the complexity guard's counter).
    #[cfg(test)]
    visits: usize,
}

impl SourceLog {
    /// A log expecting the stream to start at `first_seq` (1 for a founding
    /// member; `cited + 1` for a joiner, §7.1).
    fn starting_at(first_seq: u64) -> Self {
        SourceLog {
            next_seq: first_seq,
            highest_seen: first_seq.saturating_sub(1),
            ceiling: u64::MAX,
            ..SourceLog::default()
        }
    }

    /// Highest contiguously received sequence number (0 = none yet).
    fn contiguous(&self) -> u64 {
        self.next_seq - 1
    }

    /// True when messages are known to be missing.
    fn has_gap(&self) -> bool {
        self.highest_seen >= self.next_seq
    }

    /// Index of the first early arrival (the first slot above the cursor).
    fn early_from(&self) -> usize {
        self.slots.partition_point(|s| s.seq < self.next_seq)
    }

    /// Where the slot for `seq` sits.
    fn find(&self, seq: u64) -> Option<usize> {
        self.slots.binary_search_by_key(&seq, |s| s.seq).ok()
    }

    /// Offer a reliable message with its wire bytes: what the window made
    /// of it, and whether this copy is the one that retained it.
    fn receive(&mut self, msg: FtmpMessage, wire: Bytes) -> (RxOutcome, bool) {
        let seq = msg.seq.0;
        self.highest_seen = self.highest_seen.max(seq).min(self.ceiling);
        if seq > self.ceiling {
            // Past a departed source's seal: no survivor delivers it.
            return (RxOutcome::Duplicate, false);
        }
        let at = match self.slots.back() {
            Some(last) if last.seq >= seq => self.slots.binary_search_by_key(&seq, |s| s.seq),
            _ => Err(self.slots.len()),
        };
        let at = match at {
            Ok(at) if self.slots[at].kept.is_some() => return (RxOutcome::Duplicate, false),
            Ok(at) => {
                // An early arrival retention let go of while it waited:
                // this copy retains it again.
                self.slots[at].kept = Some(Kept::default());
                self.held += 1;
                return (RxOutcome::Duplicate, true);
            }
            Err(at) => at,
        };
        self.held += 1;
        let kept = Some(Kept::default());
        let slot = Slot {
            seq,
            ts: msg.ts,
            wire,
            kept,
        };
        self.slots.insert(at, slot);
        if seq < self.next_seq {
            // A late copy of a reclaimed message, retained again.
            return (RxOutcome::Duplicate, true);
        }
        if seq > self.next_seq {
            return (RxOutcome::Buffered, true);
        }
        // In order: release this message plus the early arrivals right
        // behind it.
        let answered = msg.retransmission;
        self.next_seq += 1;
        let rest = match self.slots.get(at + 1) {
            Some(s) if s.seq == self.next_seq => self.release_early(at + 1),
            _ => Vec::new(),
        };
        if !self.has_gap() || answered {
            // The episode is over. An answered request ends it too, though a
            // gap stays: repair works, so what is still missing re-arms at
            // the next pass and is asked for within the first retry, not at
            // a deadline the backoff grew while the gap stayed open. Fresh
            // in-order traffic does not count — a wild `highest_seen` would
            // otherwise keep the backoff at its floor.
            self.nack_at = None;
            self.nack_attempts = 0;
        }
        (RxOutcome::Delivered(Run { first: msg, rest }), true)
    }

    /// Release the run of early arrivals from slot `from` on, decoding each
    /// again from its bytes (they decoded on arrival). Out of line: only a
    /// gap fill comes here, and the decoder would crowd the in-order path.
    #[cold]
    fn release_early(&mut self, mut from: usize) -> Vec<FtmpMessage> {
        let (mut run, mut let_go) = (Vec::new(), false);
        while let Some(s) = self.slots.get(from).filter(|s| s.seq == self.next_seq) {
            let m = FtmpMessage::decode_shared(&s.wire);
            debug_assert!(m.is_ok(), "a held message does not decode");
            run.extend(m.ok());
            let_go |= s.kept.is_none();
            self.next_seq += 1;
            from += 1;
        }
        if let_go {
            self.forget_released();
        }
        run
    }

    /// The missing ranges `[start, stop]` (inclusive), each capped at
    /// `max_span` sequence numbers: the earliest [`MAX_NACK_RANGES`] of
    /// them. `highest_seen` is whatever a header claimed, so nothing here
    /// may overflow or grow with it.
    fn missing_ranges(&self, max_span: u64) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        let mut cursor = self.next_seq;
        let mut received = self
            .slots
            .range(self.early_from()..)
            .map(|s| s.seq)
            .peekable();
        while cursor <= self.highest_seen {
            // Skip past early (already received) sequence numbers.
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
            // Step past the gap and the contiguous run of early arrivals
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
    /// with period `retry`. `initial_jitter` is called only when a gap
    /// episode arms, with the first missing seq and the attempt count, so
    /// a log without a gap, or one already armed, draws nothing.
    fn nack_due(
        &mut self,
        now: SimTime,
        initial_jitter: impl FnOnce(u64, u32) -> SimDuration,
        retry: SimDuration,
    ) -> bool {
        if !self.has_gap() {
            self.nack_at = None;
            self.nack_attempts = 0;
            return false;
        }
        match self.nack_at {
            None => {
                self.nack_at = Some(now + initial_jitter(self.next_seq, self.nack_attempts));
                false
            }
            Some(at) if now >= at => {
                self.nack_at = Some(now + retry);
                self.nack_attempts += 1;
                // Karn's rule: time only the first request of the episode;
                // a re-issue makes any later answer ambiguous.
                self.nack_sent_at = (self.nack_attempts == 1).then_some(now);
                true
            }
            Some(_) => false,
        }
    }

    /// Reclaim every retained slot stamped at or below `stable`, front
    /// first, stopping at the first retained slot that is not: released
    /// slots leave the log, early arrivals stop being retained and keep
    /// waiting. Returns the number reclaimed.
    fn reclaim_stable(&mut self, stable: Timestamp) -> usize {
        let mut reclaimed = 0;
        while let Some(s) = self.slots.front().filter(|s| s.seq < self.next_seq) {
            #[cfg(test)]
            {
                self.visits += 1;
            }
            if s.ts > stable {
                break;
            }
            self.slots.pop_front();
            reclaimed += 1;
        }
        if reclaimed > 0 {
            shrink(&mut self.slots);
        }
        if self.slots.front().is_some_and(|s| s.seq > self.next_seq) {
            // Every released slot went: a stability point past a hole.
            for s in self.slots.iter_mut().filter(|s| s.kept.is_some()) {
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                if s.ts > stable {
                    break;
                }
                s.kept = None;
                reclaimed += 1;
            }
        }
        self.held -= reclaimed;
        reclaimed
    }

    /// Seal the stream at `beyond`, or at the cursor if that is past it
    /// (what was released stays released): every slot above `beyond` leaves
    /// retention, every slot above the seal leaves the log, and nothing
    /// above the seal is taken in or asked for again. Returns the retained
    /// slots dropped and the early arrivals that left the log.
    fn seal(&mut self, beyond: u64) -> (usize, usize) {
        self.ceiling = beyond.max(self.contiguous());
        self.highest_seen = self.highest_seen.min(self.ceiling);
        let mut dropped = 0;
        for s in self.slots.iter_mut().filter(|s| s.seq > beyond) {
            dropped += usize::from(s.kept.take().is_some());
        }
        let sealed = self.slots.partition_point(|s| s.seq <= self.ceiling);
        let waiting = self.slots.len() - sealed;
        self.slots.truncate(sealed);
        self.forget_released();
        shrink(&mut self.slots);
        self.held -= dropped;
        (dropped, waiting)
    }

    /// Take out of the log the released slots retention let go of.
    fn forget_released(&mut self) {
        let next = self.next_seq;
        self.slots.retain(|s| s.kept.is_some() || s.seq >= next);
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
    /// RetransmitRequests answered from retention.
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

/// The RMP sub-state-machine for one group: send counter and one log per
/// source (receive window and any-holder retention in one).
///
/// Every reliable message — ours or anyone's — is retained until the ack
/// timestamps prove every member has it (§6 buffer management). While
/// retained, it can answer a RetransmitRequest from any processor.
///
/// Sans-io: consumes [`RmpInput`]s, returns [`RmpOutput`]s; the composition
/// shell turns NACK schedules and retransmission answers into datagrams.
#[derive(Debug)]
pub struct RmpLayer {
    self_id: ProcessorId,
    /// The sequence number of our most recent reliable send (0: none).
    last_seq: u64,
    logs: BTreeMap<ProcessorId, SourceLog>,
    /// Retained slots, over every source: read on every heartbeat a member
    /// might defer, so kept rather than summed.
    len: usize,
    /// Early arrivals waiting, over every source.
    buffered: usize,
    /// The stability point of the last full reclaim pass, while every
    /// log's first retained slot is still known to be stamped above it:
    /// `None` once a slot was retained at or below it or one was dropped.
    swept: Option<Timestamp>,
    counters: RmpCounters,
    /// Some log of a remote source may have a gap or an armed NACK. Set
    /// whenever a reliable message or a header leaves a log with a gap;
    /// cleared only by a [`nack_requests`](Self::nack_requests) pass that
    /// leaves every log with neither. While clear, such a pass would do
    /// nothing (DESIGN.md §4 "The busy tick").
    nacks_pending: bool,
}

impl RmpLayer {
    /// A fresh layer for a group this processor (`self_id`) belongs to.
    pub fn new(self_id: ProcessorId) -> Self {
        RmpLayer {
            self_id,
            last_seq: 0,
            logs: BTreeMap::new(),
            len: 0,
            buffered: 0,
            swept: None,
            counters: RmpCounters::default(),
            nacks_pending: false,
        }
    }

    /// Allocate the next send sequence number (first is 1).
    pub fn allocate_seq(&mut self) -> SeqNum {
        self.last_seq += 1;
        SeqNum(self.last_seq)
    }

    /// The sequence number of our most recent reliable send, carried by
    /// Heartbeats and RetransmitRequests (§5).
    pub fn last_seq(&self) -> SeqNum {
        SeqNum(self.last_seq)
    }

    /// Feed one input through the layer: [`receive`](Self::receive) or
    /// [`note_header`](Self::note_header).
    pub fn handle(&mut self, input: RmpInput) -> RmpOutput {
        match input {
            RmpInput::Reliable { msg, wire, own } => match self.receive(msg, wire, own).0 {
                RxOutcome::Duplicate => RmpOutput::Duplicate,
                RxOutcome::Buffered => RmpOutput::Buffered,
                RxOutcome::Delivered(run) => RmpOutput::Released(run),
            },
            RmpInput::HeaderSeq { source, seq } => RmpOutput::Noted {
                contiguous: self.note_header(source, seq),
            },
        }
    }

    fn log(&mut self, source: ProcessorId) -> &mut SourceLog {
        self.logs
            .entry(source)
            .or_insert_with(|| SourceLog::starting_at(1))
    }

    /// [`RmpInput::Reliable`]: offer a reliable message and the wire bytes
    /// it arrived in (its encoding: an early arrival is decoded from them
    /// again when a gap fill releases it). Returns what the receive window
    /// made of it, and whether this arrival retained it (the first copy of
    /// a message not held, whatever the window says: any-holder
    /// retransmission covers buffered and duplicate arrivals too).
    pub fn receive(&mut self, msg: FtmpMessage, wire: Bytes, own: bool) -> (RxOutcome, bool) {
        self.counters.msgs_in += 1;
        let (source, ts) = (msg.source, msg.ts);
        let log = self.log(source);
        let (outcome, retained) = log.receive(msg, wire);
        self.nacks_pending |= log.has_gap();
        self.len += usize::from(retained);
        if retained && self.swept.is_some_and(|s| ts <= s) {
            self.swept = None;
        }
        match &outcome {
            RxOutcome::Duplicate => {
                if !own && source != self.self_id {
                    self.counters.duplicates += 1;
                }
            }
            RxOutcome::Buffered => {
                self.buffered += 1;
                self.counters.reorder_depth_max =
                    self.counters.reorder_depth_max.max(self.buffered as u64);
            }
            RxOutcome::Delivered(run) => {
                self.buffered -= run.len() - 1;
                self.counters.msgs_out += run.len() as u64;
            }
        }
        (outcome, retained)
    }

    /// [`RmpInput::HeaderSeq`]: note that `source` has sent up to `seq`, and
    /// return its highest contiguously received sequence number.
    pub fn note_header(&mut self, source: ProcessorId, seq: SeqNum) -> u64 {
        let log = self.log(source);
        log.highest_seen = log.highest_seen.max(seq.0).min(log.ceiling);
        let (gap, contiguous) = (log.has_gap(), log.contiguous());
        self.nacks_pending |= gap;
        contiguous
    }

    /// Start `source`'s log afresh, expecting the stream to start at
    /// `first_seq`: a joiner's reconciliation (§7.1), or a member re-added
    /// under the same id, whose new incarnation counts from 1 again and
    /// whose old `(source, seq)` slots would shadow the new stream's.
    /// Everything held of the old stream goes.
    pub fn seed_window(&mut self, source: ProcessorId, first_seq: u64) {
        let Some(old) = self.logs.insert(source, SourceLog::starting_at(first_seq)) else {
            return;
        };
        // The old slots go whole, so no log is left with a first retained
        // slot at or below the reclaim mark: the mark stands.
        self.buffered -= old.slots.len() - old.early_from();
        self.len -= old.held;
    }

    /// Highest contiguously received sequence number from `source` (0 when
    /// nothing is known about it).
    pub fn contiguous_of(&self, source: ProcessorId) -> u64 {
        self.logs.get(&source).map_or(0, SourceLog::contiguous)
    }

    /// RetransmitRequests issued for `source`'s current gap episode (0 when
    /// the stream is contiguous or unknown). Read by the telemetry hooks
    /// right after [`nack_requests`](Self::nack_requests) issues a request.
    pub fn nack_attempts_of(&self, source: ProcessorId) -> u32 {
        self.logs.get(&source).map_or(0, |log| log.nack_attempts)
    }

    /// Total out-of-order messages buffered across all sources.
    pub fn buffered_total(&self) -> usize {
        self.buffered
    }

    /// Highest contiguous sequence number for every source ever heard.
    pub fn contiguous_map(&self) -> BTreeMap<ProcessorId, u64> {
        self.logs
            .iter()
            .map(|(&p, log)| (p, log.contiguous()))
            .collect()
    }

    /// False only while no remote source's log has a gap or an armed
    /// NACK, so that a [`nack_requests`](Self::nack_requests) pass would
    /// draw no jitter, issue nothing and lower no deadline.
    pub fn nacks_pending(&self) -> bool {
        debug_assert!(
            self.nacks_pending
                || self.logs.iter().all(|(&source, log)| {
                    source == self.self_id || (!log.has_gap() && log.nack_at.is_none())
                }),
            "a skipped NACK pass would act"
        );
        self.nacks_pending
    }

    /// Run the NACK schedulers for every remote source and collect the
    /// missing ranges whose RetransmitRequests are due now. `jitter` is
    /// called once per gap episode, when the episode arms (randomness stays
    /// in the shell); `retry` maps the log's current attempt count to its
    /// next re-issue delay, which is how the shell injects exponential
    /// backoff. `next_due` is lowered to the earliest time a log with a
    /// gap checks again.
    pub fn nack_requests(
        &mut self,
        now: SimTime,
        max_span: u64,
        mut jitter: impl FnMut(ProcessorId, u64, u32) -> SimDuration,
        mut retry: impl FnMut(u32) -> SimDuration,
        next_due: &mut SimTime,
    ) -> Vec<(ProcessorId, Vec<(u64, u64)>)> {
        let self_id = self.self_id;
        let mut due = Vec::new();
        let mut pending = false;
        for (&source, log) in self.logs.iter_mut() {
            if source == self_id {
                continue;
            }
            let r = retry(log.nack_attempts);
            if log.nack_due(now, |seq, attempt| jitter(source, seq, attempt), r) {
                let ranges = log.missing_ranges(max_span);
                if !ranges.is_empty() {
                    due.push((source, ranges));
                }
            }
            if let Some(at) = log.nack_at {
                *next_due = (*next_due).min(at);
                pending = true;
            }
        }
        self.nacks_pending = pending;
        due
    }

    /// Offer an RTT sample: a retransmission of `source`'s stream arrived
    /// at `now`. Returns the NACK→retransmission round-trip only when
    /// exactly one request is outstanding (Karn's rule) and the gap is
    /// still open (the retransmission answers *this* episode, not a
    /// suppression-window echo of someone else's). Consumes the sample.
    pub fn rtt_sample_for(&mut self, source: ProcessorId, now: SimTime) -> Option<SimDuration> {
        let log = self.logs.get_mut(&source)?;
        if !log.has_gap() || log.nack_attempts != 1 {
            return None;
        }
        let sent = log.nack_sent_at.take()?;
        Some(now.saturating_since(sent))
    }

    /// Answer a RetransmitRequest for `(source, seq)` from retention,
    /// honoring the implosion-suppression window: if clear, mark a
    /// retransmission at `now` and return the ready-to-send bytes
    /// (retransmission flag set, buffer shared — no copy in steady state).
    pub fn answer_retransmit(
        &mut self,
        source: ProcessorId,
        seq: u64,
        now: SimTime,
        suppress: SimDuration,
    ) -> Option<Bytes> {
        let log = self.logs.get_mut(&source)?;
        let at = log.find(seq)?;
        let slot = &mut log.slots[at];
        let kept = slot.kept.as_mut()?;
        if kept
            .last_retransmit
            .is_some_and(|last| now.saturating_since(last) < suppress)
        {
            return None;
        }
        kept.last_retransmit = Some(now);
        self.counters.retransmits_answered += 1;
        slot.retx_bytes()
    }

    /// The retransmission-form wire bytes of a retained message, without
    /// touching the suppression window (used for proactive resends such as
    /// sponsor-join and membership-notice retries).
    pub fn retx_bytes(&mut self, source: ProcessorId, seq: u64) -> Option<Bytes> {
        let log = self.logs.get_mut(&source)?;
        let at = log.find(seq)?;
        log.slots[at].retx_bytes()
    }

    /// The original (non-retransmission) wire bytes of a retained message —
    /// a shared handle, no copy.
    pub fn wire_bytes(&self, source: ProcessorId, seq: u64) -> Option<Bytes> {
        let log = self.logs.get(&source)?;
        let slot = &log.slots[log.find(seq)?];
        slot.kept.as_ref().map(|_| slot.wire.clone())
    }

    /// Reclaim every retained message with timestamp ≤ `stable`: all
    /// members have acknowledged receiving everything up to `stable`, so no
    /// retransmission can ever be needed (§6). Returns the number
    /// reclaimed.
    ///
    /// Each log is reclaimed from the front and left at its first unstable
    /// retained slot, so the cost is what is reclaimed plus one look per
    /// source. A stable slot behind an unstable one (stamps that do not
    /// rise with sequence numbers) waits for it.
    ///
    /// Skip rule: a pass leaves every log's first retained slot stamped
    /// above the point it ran at, and only stability passing that point, a
    /// slot retained at or below it, or a drop can change that; with none
    /// of them since the last pass, or nothing retained at all, this
    /// returns 0 without looking at any log (a log is kept for every
    /// source heard, retaining or not). A pass at a lower point (a
    /// joiner's zero ack pulls stability down) lowers the mark.
    pub fn reclaim_stable(&mut self, stable: Timestamp) -> usize {
        if self.len == 0 || self.swept.is_some_and(|s| stable <= s) {
            debug_assert!(
                self.logs.values().all(|log| {
                    let first = log.slots.iter().find(|s| s.kept.is_some());
                    first.is_none_or(|s| s.ts > stable)
                }),
                "a skipped reclaim would reclaim"
            );
            return 0;
        }
        self.swept = Some(stable);
        let reclaimed = self
            .logs
            .values_mut()
            .filter(|log| log.held > 0)
            .map(|log| log.reclaim_stable(stable))
            .sum();
        self.len -= reclaimed;
        reclaimed
    }

    /// `source` left the view with its stream cut at `beyond` (a leaver's
    /// contiguous cursor, a convicted source's agreed reconciliation
    /// target): the stream is sealed there (the module doc's "A cut seals
    /// the stream"). What is held above the cut goes, and nothing above it
    /// is taken in or asked for again, whatever the source still sends. A
    /// gap below the cut stays armed, the slots at or below it keep
    /// answering others until stability reclaims them, and a re-add under
    /// the same id starts a fresh log. A source never heard from is sealed
    /// too, in a log of its own: else its first arrival would open a
    /// fresh, unsealed one and be released here alone.
    pub fn drop_beyond(&mut self, source: ProcessorId, beyond: u64) {
        let (dropped, waiting) = self.log(source).seal(beyond);
        self.buffered -= waiting;
        if dropped > 0 {
            self.len -= dropped;
            self.swept = None;
        }
    }

    /// Number of retained messages originated by `source` — for our own id
    /// this is the unstable send backlog the flow-control window bounds.
    pub fn held_by(&self, source: ProcessorId) -> usize {
        self.logs.get(&source).map_or(0, |log| log.held)
    }

    /// Number of retained messages, over every source.
    pub fn retained_len(&self) -> usize {
        self.len
    }

    /// Bytes currently retained (payload accounting for experiment E6):
    /// a walk over every slot, for the metrics only.
    pub fn retained_bytes(&self) -> usize {
        let slots = self.logs.values().flat_map(|log| &log.slots);
        slots
            .filter(|s| s.kept.is_some())
            .map(|s| s.wire.len())
            .sum()
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
    use crate::wire::{FtmpBody, FtmpHeader, FTMP_HEADER_LEN};
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

    /// The retransmission flag `wire`'s header carries.
    fn retransmission(wire: &[u8]) -> bool {
        FtmpHeader::decode(wire).unwrap().0.retransmission
    }

    /// Header evidence that `log`'s source has sent up to `seq`.
    fn claim(log: &mut SourceLog, seq: SeqNum) {
        log.highest_seen = log.highest_seen.max(seq.0);
    }

    /// Offer `m` to one source's log.
    fn offer(log: &mut SourceLog, m: FtmpMessage) -> RxOutcome {
        let wire = wire_of(&m);
        log.receive(m, wire).0
    }

    /// Offer `m` to a layer as a peer's message.
    fn retain(layer: &mut RmpLayer, m: &FtmpMessage) -> RxOutcome {
        layer.receive(m.clone(), wire_of(m), false).0
    }

    fn held(layer: &RmpLayer, src: u32, seq: u64) -> bool {
        layer.wire_bytes(ProcessorId(src), seq).is_some()
    }

    #[test]
    fn in_order_stream_delivers_immediately() {
        let mut log = SourceLog::starting_at(1);
        for seq in 1..=5 {
            match offer(&mut log, msg(1, seq, seq * 10)) {
                RxOutcome::Delivered(run) => assert_eq!(run.len(), 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(log.contiguous(), 5);
        assert!(!log.has_gap());
    }

    #[test]
    fn gap_buffers_then_releases_run() {
        let mut log = SourceLog::starting_at(1);
        assert_eq!(offer(&mut log, msg(1, 2, 20)), RxOutcome::Buffered);
        assert_eq!(offer(&mut log, msg(1, 3, 30)), RxOutcome::Buffered);
        assert!(log.has_gap());
        match offer(&mut log, msg(1, 1, 10)) {
            RxOutcome::Delivered(run) => {
                let seqs: Vec<u64> = run.iter().map(|m| m.seq.0).collect();
                assert_eq!(seqs, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!log.has_gap());
        assert_eq!(log.early_from(), log.slots.len(), "nothing waits");
        assert!(log.slots.iter().all(|s| s.kept.is_some()));
    }

    #[test]
    fn duplicates_detected() {
        let mut log = SourceLog::starting_at(1);
        offer(&mut log, msg(1, 1, 10));
        assert_eq!(offer(&mut log, msg(1, 1, 10)), RxOutcome::Duplicate);
        offer(&mut log, msg(1, 3, 30));
        assert_eq!(offer(&mut log, msg(1, 3, 30)), RxOutcome::Duplicate);
        assert_eq!(log.slots.len(), 2, "one slot per message");
    }

    #[test]
    fn heartbeat_seq_reveals_gap() {
        let mut log = SourceLog::starting_at(1);
        offer(&mut log, msg(1, 1, 10));
        assert!(!log.has_gap());
        claim(&mut log, SeqNum(4));
        assert!(log.has_gap());
        assert_eq!(log.missing_ranges(64), vec![(2, 4)]);
    }

    #[test]
    fn missing_ranges_split_around_buffered() {
        let mut log = SourceLog::starting_at(1);
        offer(&mut log, msg(1, 3, 30));
        offer(&mut log, msg(1, 6, 60));
        claim(&mut log, SeqNum(8));
        assert_eq!(log.missing_ranges(64), vec![(1, 2), (4, 5), (7, 8)]);
    }

    #[test]
    fn missing_ranges_capped_by_span() {
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(10));
        assert_eq!(log.missing_ranges(4), vec![(1, 4), (5, 8), (9, 10)]);
    }

    /// A header's sequence number is a claim, not a fact: whatever it says,
    /// one call returns a capped list, the real gap first, and overflows
    /// nothing on the way to `u64::MAX`.
    #[test]
    fn missing_ranges_bounded_by_count_whatever_a_header_claims() {
        for wild in [1u64 << 60, u64::MAX] {
            let mut log = SourceLog::starting_at(1);
            offer(&mut log, msg(1, 1, 10));
            offer(&mut log, msg(1, 4, 40));
            claim(&mut log, SeqNum(wild));
            let ranges = log.missing_ranges(64);
            assert_eq!(ranges.len(), MAX_NACK_RANGES);
            assert_eq!(ranges[..3], [(2, 3), (5, 68), (69, 132)]);
            assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
            assert!(ranges.iter().all(|&(a, b)| a <= b && b - a < 64));
        }
        // The far end itself, with a span that covers everything.
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(u64::MAX));
        assert_eq!(log.missing_ranges(u64::MAX), vec![(1, u64::MAX)]);
        assert_eq!(offer(&mut log, msg(1, u64::MAX, 9)), RxOutcome::Buffered);
        assert_eq!(log.missing_ranges(u64::MAX), vec![(1, u64::MAX - 1)]);
        assert_eq!(log.missing_ranges(0).len(), MAX_NACK_RANGES);
    }

    #[test]
    fn joiner_window_starts_after_cited_seq() {
        let mut log = SourceLog::starting_at(6);
        assert_eq!(log.contiguous(), 5);
        assert!(!log.has_gap());
        match offer(&mut log, msg(1, 6, 60)) {
            RxOutcome::Delivered(run) => assert_eq!(run.iter().next().unwrap().seq.0, 6),
            other => panic!("unexpected {other:?}"),
        }
        // Old traffic is a duplicate, not a gap trigger.
        assert_eq!(offer(&mut log, msg(1, 2, 20)), RxOutcome::Duplicate);
    }

    #[test]
    fn nack_scheduling_jitter_then_retry() {
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(3));
        let jitter = SimDuration::from_millis(2);
        let retry = SimDuration::from_millis(8);
        // First call arms the timer, does not fire.
        assert!(!log.nack_due(SimTime(0), |_, _| jitter, retry));
        // Before the jitter elapses: no fire.
        assert!(!log.nack_due(SimTime(1_000), |_, _| jitter, retry));
        // After: fire once, rearmed at +retry.
        assert!(log.nack_due(SimTime(2_500), |_, _| jitter, retry));
        assert!(!log.nack_due(SimTime(3_000), |_, _| jitter, retry));
        assert!(log.nack_due(SimTime(11_000), |_, _| jitter, retry));
        // Gap fills: no more NACKs.
        offer(&mut log, msg(1, 1, 1));
        offer(&mut log, msg(1, 2, 2));
        offer(&mut log, msg(1, 3, 3));
        assert!(!log.nack_due(SimTime(30_000), |_, _| jitter, retry));
    }

    #[test]
    fn karn_rule_samples_only_single_outstanding_nack() {
        let p = ProcessorId(1);
        let pass = |layer: &mut RmpLayer, at: u64| {
            let zero = |_, _, _| SimDuration::from_millis(0);
            let retry = |_| SimDuration::from_millis(8);
            let mut next = SimTime(u64::MAX);
            layer
                .nack_requests(SimTime(at), 64, zero, retry, &mut next)
                .len()
        };
        // One outstanding request: the answer is an unambiguous sample.
        let mut layer = RmpLayer::new(ProcessorId(9));
        layer.note_header(p, SeqNum(2));
        assert_eq!(pass(&mut layer, 0), 0, "arm");
        assert_eq!(pass(&mut layer, 1_000), 1, "fire #1");
        let s = layer.rtt_sample_for(p, SimTime(4_500));
        assert_eq!(s.expect("one NACK outstanding").as_micros(), 3_500);
        // The sample is consumed: a second retransmission gives nothing.
        assert!(layer.rtt_sample_for(p, SimTime(5_000)).is_none());

        // Two outstanding requests: ambiguous, Karn discards.
        let mut layer = RmpLayer::new(ProcessorId(9));
        layer.note_header(p, SeqNum(2));
        pass(&mut layer, 0);
        assert_eq!(pass(&mut layer, 1_000), 1, "fire #1");
        assert_eq!(pass(&mut layer, 20_000), 1, "fire #2");
        assert!(layer.rtt_sample_for(p, SimTime(21_000)).is_none());

        // No gap (suppression-window echo of someone else's NACK): no sample.
        let mut layer = RmpLayer::new(ProcessorId(9));
        retain(&mut layer, &msg(1, 1, 1));
        assert!(layer.rtt_sample_for(p, SimTime(9_000)).is_none());
    }

    #[test]
    fn nack_attempts_reset_when_gap_closes() {
        let jitter = SimDuration::from_millis(0);
        let retry = SimDuration::from_millis(8);
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(2));
        assert!(!log.nack_due(SimTime(0), |_, _| jitter, retry));
        assert!(log.nack_due(SimTime(1_000), |_, _| jitter, retry));
        assert!(log.nack_due(SimTime(20_000), |_, _| jitter, retry));
        assert_eq!(log.nack_attempts, 2);
        offer(&mut log, msg(1, 1, 1));
        offer(&mut log, msg(1, 2, 2));
        assert_eq!(log.nack_attempts, 0);
    }

    #[test]
    fn nack_attempts_reset_when_a_retransmission_advances_an_open_gap() {
        let jitter = SimDuration::from_millis(0);
        let retry = SimDuration::from_millis(8);
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(9));
        assert!(!log.nack_due(SimTime(0), |_, _| jitter, retry));
        assert!(log.nack_due(SimTime(1_000), |_, _| jitter, retry));
        assert!(log.nack_due(SimTime(20_000), |_, _| jitter, retry));
        // Fresh in-order traffic behind a claimed gap is not an answer.
        offer(&mut log, msg(1, 1, 1));
        assert_eq!(log.nack_attempts, 2);
        // A retransmission that moves the frontier is, though a gap stays.
        let mut answer = msg(1, 2, 2);
        answer.retransmission = true;
        offer(&mut log, answer);
        assert!(log.has_gap());
        assert_eq!(log.nack_attempts, 0);
    }

    /// A gap backed off to the cap, then a retransmission that advances the
    /// frontier but leaves a second gap: repair works, so the next request
    /// falls due within the first retry, not at the deadline the backoff
    /// set before the answer.
    #[test]
    fn a_repair_that_leaves_a_gap_asks_again_within_the_first_retry() {
        let first = SimDuration::from_millis(8);
        let retry = |attempts: u32| {
            let cap = crate::adaptive::NACK_BACKOFF_CAP;
            SimDuration::from_micros(first.as_micros() << attempts.min(cap))
        };
        let jitter = |_, _| SimDuration::from_micros(500);
        let tick = SimDuration::from_millis(1);
        let mut log = SourceLog::starting_at(1);
        claim(&mut log, SeqNum(9));
        let mut now = SimTime(0);
        while log.nack_attempts <= crate::adaptive::NACK_BACKOFF_CAP {
            now += tick;
            log.nack_due(now, jitter, retry(log.nack_attempts));
        }
        let mut answer = msg(1, 1, 1);
        answer.retransmission = true;
        offer(&mut log, answer);
        assert!(log.has_gap());
        let repaired = now;
        let asked = (1..=first.as_micros() / tick.as_micros()).find_map(|k| {
            now = repaired + SimDuration::from_micros(k * tick.as_micros());
            log.nack_due(now, jitter, retry(log.nack_attempts))
                .then_some(now.saturating_since(repaired))
        });
        assert!(
            asked.is_some_and(|d| d <= first),
            "asked again after {asked:?}, deadline {:?}",
            log.nack_at.map(|t| t.saturating_since(repaired))
        );
    }

    #[test]
    fn retention_held_by_counts_per_source() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for m in [msg(1, 1, 10), msg(1, 2, 20), msg(2, 1, 15)] {
            retain(&mut layer, &m);
        }
        assert_eq!(layer.held_by(ProcessorId(1)), 2);
        assert_eq!(layer.held_by(ProcessorId(2)), 1);
        assert_eq!(layer.held_by(ProcessorId(3)), 0);
    }

    #[test]
    fn send_sequence_numbers_count_from_one() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        assert_eq!(layer.last_seq(), SeqNum(0));
        assert_eq!(layer.allocate_seq(), SeqNum(1));
        assert_eq!(layer.allocate_seq(), SeqNum(2));
        assert_eq!(layer.last_seq(), SeqNum(2));
    }

    #[test]
    fn retention_insert_get_reclaim() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for m in [msg(1, 1, 10), msg(1, 2, 20), msg(2, 1, 15)] {
            assert!(layer.receive(m.clone(), wire_of(&m), false).1, "retained");
        }
        assert_eq!(layer.retained_len(), 3);
        assert_eq!(layer.retained_bytes(), 3 * FTMP_HEADER_LEN);
        assert!(held(&layer, 1, 2));
        // A second copy is not retained again and does not double count.
        let dup = msg(1, 1, 10);
        assert!(!layer.receive(dup.clone(), wire_of(&dup), false).1);
        assert_eq!(layer.retained_bytes(), 3 * FTMP_HEADER_LEN);
        // Stability at ts 15 reclaims ts 10 and 15.
        let n = layer.reclaim_stable(Timestamp(15));
        assert_eq!(n, 2);
        assert_eq!(layer.retained_len(), 1);
        assert_eq!(layer.retained_bytes(), FTMP_HEADER_LEN);
        assert!(held(&layer, 1, 2));
        // A late copy of a reclaimed message is retained again.
        assert!(layer.receive(dup.clone(), wire_of(&dup), false).1);
        assert_eq!(layer.retained_len(), 2);
    }

    #[test]
    fn retransmit_suppression_window() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        retain(&mut layer, &msg(1, 1, 10));
        let sup = SimDuration::from_millis(4);
        let mut answer = |at| layer.answer_retransmit(ProcessorId(1), 1, SimTime(at), sup);
        assert!(answer(0).is_some());
        // Within the window: suppressed.
        assert!(answer(2_000).is_none());
        // After: allowed again.
        assert!(answer(5_000).is_some());
        // Unknown message: none.
        assert!(layer
            .answer_retransmit(ProcessorId(9), 1, SimTime(0), sup)
            .is_none());
        assert_eq!(layer.counters().retransmits_answered, 2);
    }

    #[test]
    fn drop_beyond_discards_tail() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        for seq in 1..=5 {
            retain(&mut layer, &msg(1, seq, seq * 10));
        }
        retain(&mut layer, &msg(2, 1, 10));
        layer.drop_beyond(ProcessorId(1), 3);
        assert_eq!(layer.retained_len(), 4);
        assert!(held(&layer, 1, 3));
        assert!(!held(&layer, 1, 4));
        assert!(held(&layer, 2, 1));
        assert_eq!(layer.retained_bytes(), 4 * FTMP_HEADER_LEN);
    }

    #[test]
    fn retransmission_bytes_built_once_then_shared() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        let m = msg(1, 1, 10);
        let w = wire_of(&m);
        assert!(!retransmission(&w));
        layer.receive(m, w, false);
        let sup = SimDuration::from_millis(0);
        let b1 = layer
            .answer_retransmit(ProcessorId(1), 1, SimTime(0), sup)
            .unwrap();
        // Round-trips as the same message with the retransmission flag.
        let decoded = FtmpMessage::decode_shared(&b1).unwrap();
        assert!(decoded.retransmission);
        assert_eq!(decoded.seq, SeqNum(1));
        // The second answer is the SAME buffer — pointer-equal, no copy.
        let b2 = layer
            .answer_retransmit(ProcessorId(1), 1, SimTime(10_000), sup)
            .unwrap();
        assert_eq!(b1.as_ref().as_ptr(), b2.as_ref().as_ptr());
        let b3 = layer.retx_bytes(ProcessorId(1), 1).unwrap();
        assert_eq!(b1.as_ref().as_ptr(), b3.as_ref().as_ptr());
    }

    #[test]
    fn received_retransmission_reuses_wire_buffer_directly() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        let mut m = msg(1, 1, 10);
        m.retransmission = true;
        let w = m.encode(ByteOrder::Big);
        assert!(retransmission(&w));
        let wire_ptr = w.as_ref().as_ptr();
        layer.receive(m, w, false);
        let b = layer.retx_bytes(ProcessorId(1), 1).unwrap();
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
        assert_eq!(layer.buffered_total(), 2);
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
        assert_eq!(layer.buffered_total(), 0);
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
        retain(&mut layer, &msg(1, 1, 10));
        retain(&mut layer, &msg(1, 3, 30));
        let retry = |_attempts: u32| SimDuration::from_millis(8);
        let zero_jitter = |_, _, _| SimDuration::from_millis(0);
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
        assert!(retransmission(&b));
        assert_eq!(layer.counters().retransmits_answered, 1);
        // Suppression window blocks an immediate second answer.
        assert!(layer
            .answer_retransmit(ProcessorId(1), 1, SimTime(3), sup)
            .is_none());
        assert_eq!(layer.counters().retransmits_answered, 1);
    }

    #[test]
    fn nack_jitter_is_drawn_once_per_gap_episode() {
        let mut layer = RmpLayer::new(ProcessorId(9));
        // Source 1 claims seq 3 and nothing has arrived: a gap. Source 2's
        // log is level: no gap.
        layer.note_header(ProcessorId(1), SeqNum(3));
        retain(&mut layer, &msg(2, 1, 10));
        let retry = |_attempts: u32| SimDuration::from_millis(8);
        let mut draws = 0;
        let mut pass = |layer: &mut RmpLayer, at: u64| {
            let mut next = SimTime(u64::MAX);
            let mut jitter = |_, _, _| {
                draws += 1;
                SimDuration::from_millis(2)
            };
            let due = layer.nack_requests(SimTime(at), 64, &mut jitter, retry, &mut next);
            (due.len(), std::mem::take(&mut draws))
        };
        assert_eq!(pass(&mut layer, 0), (0, 1), "the episode arms: one draw");
        assert_eq!(pass(&mut layer, 1_000), (0, 0), "armed, not yet due");
        assert_eq!(pass(&mut layer, 2_500), (1, 0), "first request");
        assert_eq!(pass(&mut layer, 11_000), (1, 0), "a re-issue");
        for seq in 1..=3 {
            retain(&mut layer, &msg(1, seq, seq));
        }
        assert_eq!(pass(&mut layer, 12_000), (0, 0), "gap closed");
        layer.note_header(ProcessorId(1), SeqNum(5));
        assert_eq!(pass(&mut layer, 13_000), (0, 1), "a new episode arms");
    }

    proptest! {
        /// Whatever the arrival permutation, the delivered stream is exactly
        /// 1..=n in order, with no duplicates.
        #[test]
        fn prop_source_order_restored(perm in proptest::sample::subsequence((1u64..=20).collect::<Vec<_>>(), 20).prop_shuffle()) {
            let mut log = SourceLog::starting_at(1);
            let mut delivered = Vec::new();
            for seq in perm {
                if let RxOutcome::Delivered(run) = offer(&mut log, msg(1, seq, seq)) {
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
            let mut log = SourceLog::starting_at(1);
            let mut delivered = Vec::new();
            for seq in arrivals {
                if let RxOutcome::Delivered(run) = offer(&mut log, msg(1, seq, seq)) {
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
            let mut log = SourceLog::starting_at(1);
            for &seq in &received {
                offer(&mut log, msg(1, seq, seq));
            }
            claim(&mut log, SeqNum(highest));
            let ranges = log.missing_ranges(1_000);
            let mut missing = std::collections::BTreeSet::new();
            for (a, b) in &ranges {
                for s in *a..=*b {
                    missing.insert(s);
                }
            }
            for s in 1..=log.highest_seen {
                let have = s <= log.contiguous() || received.contains(&s);
                prop_assert_eq!(missing.contains(&s), !have, "seq {}", s);
            }
        }
    }
}
