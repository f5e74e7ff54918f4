//! The per-source logs of [`RmpLayer`] against the two structures they
//! replaced, kept here as the model: a receive window per source (the early
//! arrivals above its cursor, `next_seq`, `highest_seen`, the NACK
//! schedule) beside one `BTreeMap` over `(source, seq)` of what is
//! retained, whose reclaim and drop are a `retain` over every entry.
//! Whatever order things arrive in, the two agree on everything a caller
//! can read while a source's stamps rise with its sequence numbers; where
//! they do not, the logs reclaim late, never early. Plus the guards on what
//! an operation may cost.

use super::*;
use crate::ids::{ConnectionId, GroupId, ObjectGroupId, RequestNum};
use crate::wire::FtmpBody;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SOURCES: u32 = 4;
/// The layer's own id: one of the sources, so its duplicates go uncounted
/// and its log is never NACKed.
const SELF: ProcessorId = ProcessorId(1);
const SUPPRESS: SimDuration = SimDuration::from_millis(4);
const WILD: [u64; 2] = [1 << 60, u64::MAX];

/// One source's receive window as the model keeps it.
struct Window {
    next_seq: u64,
    buffer: BTreeMap<u64, FtmpMessage>,
    highest_seen: u64,
    /// The seal of a departed source: nothing above it is taken in or
    /// asked for, so neither arrivals nor headers raise `highest_seen` past
    /// it.
    ceiling: u64,
    nack_at: Option<SimTime>,
    nack_attempts: u32,
    nack_sent_at: Option<SimTime>,
}

impl Window {
    fn starting_at(first: u64) -> Self {
        Window {
            next_seq: first,
            buffer: BTreeMap::new(),
            highest_seen: first - 1,
            ceiling: u64::MAX,
            nack_at: None,
            nack_attempts: 0,
            nack_sent_at: None,
        }
    }

    fn has_gap(&self) -> bool {
        self.highest_seen >= self.next_seq
    }

    fn receive(&mut self, msg: FtmpMessage) -> RxOutcome {
        let seq = msg.seq.0;
        self.highest_seen = self.highest_seen.max(seq).min(self.ceiling);
        if seq < self.next_seq || seq > self.ceiling || self.buffer.contains_key(&seq) {
            return RxOutcome::Duplicate;
        }
        if seq > self.next_seq {
            self.buffer.insert(seq, msg);
            return RxOutcome::Buffered;
        }
        let answered = msg.retransmission;
        let mut rest = Vec::new();
        self.next_seq += 1;
        while let Some(m) = self.buffer.remove(&self.next_seq) {
            rest.push(m);
            self.next_seq += 1;
        }
        if !self.has_gap() || answered {
            self.nack_at = None;
            self.nack_attempts = 0;
        }
        RxOutcome::Delivered(Run { first: msg, rest })
    }

    /// The gaps up to `highest_seen`, each cut into spans of `max_span`,
    /// the first `MAX_NACK_RANGES` of them.
    fn missing_ranges(&self, max_span: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        let mut from = Some(self.next_seq);
        for &k in self.buffer.keys().filter(|&&k| k <= self.highest_seen) {
            let Some(f) = from else { break };
            if k > f {
                gaps.push((f, k - 1));
            }
            from = k.checked_add(1);
        }
        if let Some(f) = from.filter(|&f| f <= self.highest_seen) {
            gaps.push((f, self.highest_seen));
        }
        let span = max_span.max(1);
        let mut out = Vec::new();
        for (mut a, b) in gaps {
            loop {
                if out.len() == MAX_NACK_RANGES {
                    return out;
                }
                let stop = if b - a < span { b } else { a + (span - 1) };
                out.push((a, stop));
                if stop == b {
                    break;
                }
                a = stop + 1;
            }
        }
        out
    }

    fn nack_due(&mut self, now: SimTime, jitter: SimDuration, retry: SimDuration) -> bool {
        if !self.has_gap() {
            self.nack_at = None;
            self.nack_attempts = 0;
            return false;
        }
        match self.nack_at {
            None => {
                self.nack_at = Some(now + jitter);
                false
            }
            Some(at) if now >= at => {
                self.nack_at = Some(now + retry);
                self.nack_attempts += 1;
                self.nack_sent_at = (self.nack_attempts == 1).then_some(now);
                true
            }
            Some(_) => false,
        }
    }
}

/// The receive windows and the retention map, with the layer's counters.
#[derive(Default)]
struct Model {
    windows: BTreeMap<ProcessorId, Window>,
    msgs: BTreeMap<(ProcessorId, u64), (Timestamp, Bytes, Option<SimTime>)>,
    bytes: usize,
    counters: RmpCounters,
}

impl Model {
    fn window(&mut self, p: ProcessorId) -> &mut Window {
        self.windows
            .entry(p)
            .or_insert_with(|| Window::starting_at(1))
    }

    /// Retain, then offer to the window: the outcome and whether retained.
    fn receive(&mut self, msg: FtmpMessage, wire: Bytes) -> (RxOutcome, bool) {
        self.counters.msgs_in += 1;
        let (p, seq, ts) = (msg.source, msg.seq.0, msg.ts);
        let sealed = seq > self.window(p).ceiling;
        let retained = !sealed && !self.msgs.contains_key(&(p, seq));
        if retained {
            self.bytes += wire.len();
            self.msgs.insert((p, seq), (ts, wire, None));
        }
        let outcome = self.window(p).receive(msg);
        match &outcome {
            RxOutcome::Duplicate if p != SELF => self.counters.duplicates += 1,
            RxOutcome::Duplicate => {}
            RxOutcome::Buffered => {
                let depth = self.buffered() as u64;
                self.counters.reorder_depth_max = self.counters.reorder_depth_max.max(depth);
            }
            RxOutcome::Delivered(run) => self.counters.msgs_out += run.len() as u64,
        }
        (outcome, retained)
    }

    fn buffered(&self) -> usize {
        self.windows.values().map(|w| w.buffer.len()).sum()
    }

    fn take_for_retransmit(&mut self, source: ProcessorId, seq: u64, now: SimTime) -> bool {
        let Some(r) = self.msgs.get_mut(&(source, seq)) else {
            return false;
        };
        if r.2
            .is_some_and(|last| now.saturating_since(last) < SUPPRESS)
        {
            return false;
        }
        r.2 = Some(now);
        self.counters.retransmits_answered += 1;
        true
    }

    fn reclaim_stable(&mut self, stable: Timestamp) -> usize {
        self.drop_where(|_, _, ts| ts <= stable)
    }

    /// A departed source's cut: sealed at `beyond`, or at the cursor if
    /// that is past it. What is retained above `beyond` goes, and so does
    /// what waits above the seal.
    fn drop_beyond(&mut self, source: ProcessorId, beyond: u64) {
        let w = self.window(source);
        let seal = beyond.max(w.next_seq - 1);
        w.ceiling = seal;
        w.highest_seen = w.highest_seen.min(seal);
        w.buffer.retain(|&seq, _| seq <= seal);
        self.drop_where(|p, seq, _| p == source && seq > beyond);
    }

    fn drop_where(&mut self, drop: impl Fn(ProcessorId, u64, Timestamp) -> bool) -> usize {
        let before = self.msgs.len();
        let bytes = &mut self.bytes;
        self.msgs.retain(|&(p, seq), r| {
            let gone = drop(p, seq, r.0);
            if gone {
                *bytes -= r.1.len();
            }
            !gone
        });
        before - self.msgs.len()
    }

    /// A rejoin: a fresh window, nothing retained of the old stream.
    fn reset(&mut self, p: ProcessorId) {
        self.windows.insert(p, Window::starting_at(1));
        self.drop_where(|q, _, _| q == p);
    }

    fn held_by(&self, source: ProcessorId) -> usize {
        self.msgs.range((source, 0)..=(source, u64::MAX)).count()
    }

    fn nack_requests(&mut self, now: SimTime, max_span: u64) -> NackPass {
        let mut pass = NackPass {
            due: Vec::new(),
            next: SimTime(u64::MAX),
            draws: 0,
        };
        for (&p, w) in self.windows.iter_mut().filter(|(&p, _)| p != SELF) {
            let armed = w.nack_at.is_some() || !w.has_gap();
            pass.draws += usize::from(!armed);
            if w.nack_due(now, jitter(p), retry(w.nack_attempts)) {
                let ranges = w.missing_ranges(max_span);
                if !ranges.is_empty() {
                    pass.due.push((p, ranges));
                }
            }
            if let Some(at) = w.nack_at {
                pass.next = pass.next.min(at);
            }
        }
        pass
    }
}

#[derive(Debug, PartialEq)]
struct NackPass {
    due: Vec<(ProcessorId, Vec<(u64, u64)>)>,
    next: SimTime,
    draws: usize,
}

/// The jitter a source's episode arms with: fixed per source, so both
/// sides draw the same.
fn jitter(p: ProcessorId) -> SimDuration {
    SimDuration::from_micros(500 * u64::from(p.0))
}

fn retry(attempts: u32) -> SimDuration {
    SimDuration::from_millis(2 << attempts.min(4))
}

fn layer_nacks(layer: &mut RmpLayer, now: SimTime, max_span: u64) -> NackPass {
    let mut next = SimTime(u64::MAX);
    // The layer visits sources in id order and draws once per arming
    // source, so the source a draw is for is the next one with an
    // unarmed gap.
    let arming: Vec<ProcessorId> = layer
        .logs
        .iter()
        .filter(|(&p, log)| p != SELF && log.has_gap() && log.nack_at.is_none())
        .map(|(&p, _)| p)
        .collect();
    let mut draws = arming.iter();
    let due = layer.nack_requests(
        now,
        max_span,
        |src, _, _| {
            assert_eq!(
                draws.next(),
                Some(&src),
                "a draw per arming source, in order"
            );
            jitter(src)
        },
        retry,
        &mut next,
    );
    let drawn = arming.len() - draws.len();
    NackPass {
        due,
        next,
        draws: drawn,
    }
}

/// A Regular whose length varies with `(source, seq)`, so the byte counts
/// can tell slots apart.
fn message(src: u32, seq: u64, ts: Timestamp, retransmission: bool) -> FtmpMessage {
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
    FtmpMessage {
        retransmission,
        source: ProcessorId(src),
        group: GroupId(1),
        seq: SeqNum(seq),
        ts,
        ack_ts: Timestamp(0),
        body: FtmpBody::Regular {
            conn,
            request_num: RequestNum(seq),
            giop: Bytes::from(vec![src as u8; (seq % 7) as usize]),
        },
    }
}

fn wire(m: &FtmpMessage) -> Bytes {
    m.encode(ftmp_cdr::ByteOrder::Big)
}

/// Both sides driven through one interleaving. `kind` picks the step: an
/// in-order arrival, a jump ahead (leaving holes), the fill of a hole (a
/// retransmission), any sequence number sent so far again (a duplicate while
/// held, a late copy once reclaimed), a wild early arrival, header
/// evidence (near the stream or wild), a reclaim at a risen stability
/// point, a rejoin (the source counts from 1 again), a conviction's cut of
/// a source's tail, a retransmission answer, a NACK pass, an RTT sample.
struct Pair {
    model: Model,
    layer: RmpLayer,
    stamp: fn(u32, u64) -> Timestamp,
    /// Highest sequence number each source has sent, and the holes below
    /// it the layer has not been offered.
    sent: BTreeMap<u32, u64>,
    holes: BTreeMap<u32, BTreeSet<u64>>,
    stable: Timestamp,
    now: SimTime,
    /// Whether retention is compared at every arrival: not while stamps
    /// are scrambled, where the log may still hold what the map reclaimed.
    strict: bool,
    seen: Seen,
}

/// What the schedules reached, counted so a test can say they reached it.
#[derive(Default, Debug)]
struct Seen {
    /// Arrivals a window buffered.
    early: usize,
    /// Releases of more than one message (a gap fill).
    runs: usize,
    /// Copies that retained a message again (a late copy, or an early
    /// arrival retention had let go of).
    retained_again: usize,
    /// Steps after which some early arrival waited unretained.
    let_go: usize,
    /// Gap fills that released an early arrival retention had let go of.
    freed: usize,
    /// NACK passes that asked for something.
    nacks: usize,
    /// Rejoins of a source with something held of it.
    resets: usize,
}

impl Pair {
    fn new(stamp: fn(u32, u64) -> Timestamp) -> Self {
        Pair {
            model: Model::default(),
            layer: RmpLayer::new(SELF),
            stamp,
            sent: BTreeMap::new(),
            holes: BTreeMap::new(),
            stable: Timestamp(0),
            now: SimTime(0),
            strict: true,
            seen: Seen::default(),
        }
    }

    fn offer(&mut self, src: u32, seq: u64, retransmission: bool) {
        let m = message(src, seq, (self.stamp)(src, seq), retransmission);
        let let_go = |layer: &RmpLayer| {
            let log = layer.logs.get(&ProcessorId(src));
            log.map_or(0, |l| l.slots.iter().filter(|s| s.kept.is_none()).count())
        };
        let before = let_go(&self.layer);
        let want = self.model.receive(m.clone(), wire(&m));
        let got = self.layer.receive(m.clone(), wire(&m), false);
        if !self.strict {
            assert_eq!(got.0, want.0, "P{src} {seq}");
            return;
        }
        assert_eq!(got, want, "P{src} {seq}");
        match got {
            (RxOutcome::Buffered, _) => self.seen.early += 1,
            (RxOutcome::Delivered(run), _) if run.len() > 1 => {
                self.seen.runs += 1;
                self.seen.freed += usize::from(let_go(&self.layer) < before);
            }
            (RxOutcome::Duplicate, true) => self.seen.retained_again += 1,
            _ => {}
        }
        if let Some(r) = self.layer.retx_bytes(ProcessorId(src), seq) {
            let model = &self.model.msgs[&(ProcessorId(src), seq)].1;
            assert_eq!(r, wire::retransmission_form(model), "P{src} {seq}");
        }
    }

    fn step(&mut self, kind: u8, src: u32, a: u64) {
        let p = ProcessorId(src);
        let sent = self.sent.get(&src).copied().unwrap_or(0);
        match kind {
            0..=3 => {
                self.sent.insert(src, sent + 1);
                self.offer(src, sent + 1, false);
            }
            4 => {
                let skipped = 1 + a % 3;
                let seq = sent + skipped + 1;
                self.holes.entry(src).or_default().extend(sent + 1..seq);
                self.sent.insert(src, seq);
                self.offer(src, seq, false);
            }
            5 | 6 => {
                let holes = self.holes.entry(src).or_default();
                if let Some(&seq) = holes.iter().nth(a as usize % holes.len().max(1)) {
                    holes.remove(&seq);
                    self.offer(src, seq, true);
                }
            }
            7 if sent > 0 => self.offer(src, 1 + a % sent, a.is_multiple_of(2)),
            8 if a.is_multiple_of(8) => self.offer(src, WILD[(a / 8 % 2) as usize], false),
            9 => {
                let seq = match a % 10 {
                    0 => WILD[0],
                    1 => WILD[1],
                    _ => sent + a % 3,
                };
                let want = self.model.window(p);
                want.highest_seen = want.highest_seen.max(seq).min(want.ceiling);
                let want = (want.next_seq - 1, want.has_gap());
                let got = self.layer.note_header(p, SeqNum(seq));
                assert_eq!(got, want.0, "P{src} contiguous");
            }
            10 | 11 => {
                self.stable = Timestamp(self.stable.0 + a % 40);
                assert_eq!(
                    self.layer.reclaim_stable(self.stable),
                    self.model.reclaim_stable(self.stable),
                    "reclaimed at {:?}",
                    self.stable
                );
            }
            12 if a.is_multiple_of(3) => {
                self.seen.resets +=
                    usize::from(self.layer.logs.get(&p).is_some_and(|l| !l.slots.is_empty()));
                self.model.reset(p);
                self.layer.seed_window(p, 1);
                self.sent.remove(&src);
                self.holes.remove(&src);
            }
            13 => {
                let beyond = a % (sent + 1);
                self.model.drop_beyond(p, beyond);
                self.layer.drop_beyond(p, beyond);
            }
            14 => {
                self.now = SimTime(self.now.0 + (a % 6) * 1_000);
                let seq = 1 + a % (sent + 2);
                let answered = self.layer.answer_retransmit(p, seq, self.now, SUPPRESS);
                assert_eq!(
                    answered.is_some(),
                    self.model.take_for_retransmit(p, seq, self.now)
                );
            }
            15 => {
                self.now = SimTime(self.now.0 + (a % 6) * 1_000);
                let span = [1, 3, 64][a as usize % 3];
                let want = self.model.nack_requests(self.now, span);
                self.seen.nacks += usize::from(!want.due.is_empty());
                assert_eq!(layer_nacks(&mut self.layer, self.now, span), want);
                assert_eq!(self.layer.nacks_pending(), want.next != SimTime(u64::MAX));
            }
            _ => {
                let want = self.model.windows.get_mut(&p).and_then(|w| {
                    if !w.has_gap() || w.nack_attempts != 1 {
                        return None;
                    }
                    w.nack_sent_at.take().map(|t| self.now.saturating_since(t))
                });
                assert_eq!(self.layer.rtt_sample_for(p, self.now), want);
            }
        }
    }

    /// Everything a caller can read agrees.
    fn assert_equal(&mut self) {
        let waiting = |log: &SourceLog| log.slots.iter().any(|s| s.kept.is_none());
        self.seen.let_go += usize::from(self.layer.logs.values().any(waiting));
        let (layer, model) = (&self.layer, &self.model);
        assert_eq!(layer.retained_len(), model.msgs.len());
        assert_eq!(layer.retained_bytes(), model.bytes);
        assert_eq!(layer.buffered_total(), model.buffered());
        assert_eq!(layer.counters(), model.counters);
        let windows: BTreeMap<ProcessorId, u64> = model
            .windows
            .iter()
            .map(|(&p, w)| (p, w.next_seq - 1))
            .collect();
        assert_eq!(layer.contiguous_map(), windows);
        for src in 1..=SOURCES {
            let p = ProcessorId(src);
            assert_eq!(layer.held_by(p), model.held_by(p), "P{src}");
            if let Some(w) = model.windows.get(&p) {
                let log = &layer.logs[&p];
                // Below the cursor the top of what was seen asks for
                // nothing, and a cut under the cursor may leave the
                // model's there.
                let top = |seen: u64, contiguous: u64| seen.max(contiguous);
                assert_eq!(
                    top(log.highest_seen, log.contiguous()),
                    top(w.highest_seen, w.next_seq - 1),
                    "P{src}"
                );
                assert_eq!(layer.nack_attempts_of(p), w.nack_attempts, "P{src}");
                for span in [1, 5, 64] {
                    assert_eq!(log.missing_ranges(span), w.missing_ranges(span), "P{src}");
                }
                // One slot per message: what is retained or waiting.
                let waiting: BTreeSet<_> = w.buffer.keys().map(|&seq| (p, seq)).collect();
                let held: BTreeSet<_> = model
                    .msgs
                    .range((p, 0)..=(p, u64::MAX))
                    .map(|e| *e.0)
                    .collect();
                assert_eq!(log.slots.len(), held.union(&waiting).count(), "P{src}");
            }
            let sent = self.sent.get(&src).copied().unwrap_or(0);
            // Up to the retransmission flag: a copy that retains a waiting
            // early arrival again leaves the first copy's bytes in the log.
            for seq in (0..=sent + 2).chain(WILD) {
                let want = model
                    .msgs
                    .get(&(p, seq))
                    .map(|r| wire::retransmission_form(&r.1));
                let got = layer
                    .wire_bytes(p, seq)
                    .map(|w| wire::retransmission_form(&w));
                assert_eq!(got, want, "P{src} {seq}");
            }
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    proptest::collection::vec((0u8..17, 1u32..=SOURCES, 0u64..1_000), 0..300)
}

/// Stamps that rise with the sequence number, sources interleaved.
fn rising(src: u32, seq: u64) -> Timestamp {
    Timestamp(seq.saturating_mul(8).saturating_add(u64::from(src)))
}

/// Stamps that do not: a fixed scramble of `(source, seq)` below 500.
fn scrambled(src: u32, seq: u64) -> Timestamp {
    Timestamp((seq % 0x10000 * 0x9E37 + u64::from(src) * 0x79B9) % 499 + 1)
}

/// The differential, step by step, over schedules that reach every case
/// the log and the two structures could disagree on.
#[test]
fn the_log_equals_the_window_and_the_map() {
    const SCHEDULES: usize = 640;
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::log"));
    let mut seen = Seen::default();
    for _ in 0..SCHEDULES {
        let mut pair = Pair::new(rising);
        for (kind, src, a) in steps().generate(&mut rng) {
            pair.step(kind, src, a);
            pair.assert_equal();
        }
        let s = pair.seen;
        seen.early += s.early;
        seen.runs += s.runs;
        seen.retained_again += s.retained_again;
        seen.let_go += s.let_go;
        seen.freed += s.freed;
        seen.nacks += s.nacks;
        seen.resets += s.resets;
    }
    println!("{seen:?}");
    assert!(
        seen.early > 3_000 && seen.runs > 500 && seen.freed > 50,
        "{seen:?}"
    );
    assert!(
        seen.retained_again > 1_000 && seen.let_go > 1_000,
        "{seen:?}"
    );
    // A cut seals a source: what it goes on sending in these schedules is
    // refused and arms no NACK. An answered repair re-arms its gap, which
    // spends a pass arming. Since the seal a cut source is quiet until it
    // rejoins, so a schedule reaches less: 320 schedules saw runs 868 ->
    // 441, early arrivals 8736 -> 3894 and gap fills of let-go slots 715 ->
    // 333, so there are 640 of them now, against the same floors: runs
    // 825, early 8056, freed 619, NACK passes 2184, resets 716.
    assert!(seen.nacks > 850 && seen.resets > 200, "{seen:?}");
}

proptest! {

    /// Without the invariant a stable slot can wait behind an unstable
    /// one: the logs then hold a superset of what the map holds — never
    /// less — and the two meet again once stability passes every stamp.
    #[test]
    fn prop_broken_stamps_reclaim_late_never_early(steps in steps()) {
        let mut pair = Pair::new(scrambled);
        pair.strict = false;
        for (kind, src, a) in steps {
            // Reclaim counts and suppression marks may differ on the way.
            match kind {
                10 | 11 => {
                    pair.stable = Timestamp(pair.stable.0 + a % 40);
                    pair.layer.reclaim_stable(pair.stable);
                    pair.model.reclaim_stable(pair.stable);
                }
                14.. => {}
                _ => pair.step(kind, src, a),
            }
            prop_assert!(pair.layer.retained_len() >= pair.model.msgs.len());
            for &(p, seq) in pair.model.msgs.keys() {
                prop_assert!(pair.layer.wire_bytes(p, seq).is_some(), "{p:?} {seq} reclaimed early");
            }
        }
        pair.layer.reclaim_stable(Timestamp(500));
        pair.model.reclaim_stable(Timestamp(500));
        pair.assert_equal();
        prop_assert_eq!(pair.layer.retained_len(), 0);
    }
}

fn receive(layer: &mut RmpLayer, src: u32, seq: u64, ts: u64) -> (RxOutcome, bool) {
    let m = message(src, seq, Timestamp(ts), false);
    layer.receive(m.clone(), wire(&m), false)
}

fn seqs(outcome: RxOutcome) -> Vec<u64> {
    match outcome {
        RxOutcome::Delivered(run) => run.iter().map(|m| m.seq.0).collect(),
        other => panic!("not a release: {other:?}"),
    }
}

/// Retention and the window disagree where stability passes a hole (a
/// source the view no longer waits for): the early arrival is reclaimed
/// from retention and keeps waiting; a copy retains it again; the gap fill
/// releases it and its slot leaves the log.
#[test]
fn a_stability_point_past_a_hole_keeps_the_early_arrival_waiting() {
    let mut layer = RmpLayer::new(SELF);
    let p = ProcessorId(2);
    receive(&mut layer, 2, 1, 10);
    assert_eq!(receive(&mut layer, 2, 3, 30), (RxOutcome::Buffered, true));
    assert_eq!(layer.reclaim_stable(Timestamp(40)), 2);
    assert_eq!((layer.retained_len(), layer.retained_bytes()), (0, 0));
    assert_eq!((layer.held_by(p), layer.buffered_total()), (0, 1));
    assert!(
        layer.wire_bytes(p, 3).is_none(),
        "no longer answers a request"
    );
    assert_eq!(layer.logs[&p].missing_ranges(64), [(2, 2)], "3 is no gap");
    // A copy is a duplicate that retains it again, and is reclaimed again.
    assert_eq!(receive(&mut layer, 2, 3, 30), (RxOutcome::Duplicate, true));
    assert_eq!(layer.held_by(p), 1);
    assert_eq!(layer.reclaim_stable(Timestamp(41)), 1);
    // The fill releases both; the let-go slot leaves the log with it.
    let (released, retained) = receive(&mut layer, 2, 2, 20);
    assert_eq!((seqs(released), retained), (vec![2, 3], true));
    assert_eq!(layer.logs[&p].slots.len(), 1);
    assert_eq!((layer.held_by(p), layer.buffered_total()), (1, 0));
}

/// A departed source's stream is sealed at its cut: what arrives above it
/// afterwards is refused, in order or not, and no fill releases a run past
/// it. Minimised from the latency-spike chaos run at seed 2713, where a
/// survivor took in and delivered the convicted source's next message,
/// which no other survivor delivered (a total-order violation).
#[test]
fn a_cut_seals_the_stream() {
    let p = ProcessorId(2);
    let mut layer = RmpLayer::new(SELF);
    for seq in 1..=3 {
        receive(&mut layer, 2, seq, seq * 10);
    }
    layer.drop_beyond(p, 3);
    assert_eq!(receive(&mut layer, 2, 4, 40), (RxOutcome::Duplicate, false));
    assert_eq!(layer.contiguous_of(p), 3);
    assert_eq!((layer.held_by(p), layer.buffered_total()), (3, 0));

    // The agreed target above our cursor: the gap below it is filled, the
    // run stops at the seal, and what waited above the seal is gone.
    let mut layer = RmpLayer::new(SELF);
    receive(&mut layer, 2, 1, 10);
    for seq in [3, 4, 6] {
        assert_eq!(receive(&mut layer, 2, seq, seq * 10).0, RxOutcome::Buffered);
    }
    layer.drop_beyond(p, 4);
    assert_eq!((layer.held_by(p), layer.buffered_total()), (3, 2));
    assert!(layer.wire_bytes(p, 6).is_none());
    let (released, _) = receive(&mut layer, 2, 2, 20);
    assert_eq!(seqs(released), [2, 3, 4]);
    assert_eq!(receive(&mut layer, 2, 5, 50), (RxOutcome::Duplicate, false));
    assert_eq!(receive(&mut layer, 2, 6, 60), (RxOutcome::Duplicate, false));
    assert_eq!((layer.contiguous_of(p), layer.buffered_total()), (4, 0));
    let kept: Vec<u64> = layer.logs[&p].slots.iter().map(|s| s.seq).collect();
    assert_eq!(kept, [1, 2, 3, 4]);
}

/// A source convicted before we heard anything from it is sealed all the
/// same: its first arrival must not open a fresh, unsealed log and be
/// released here while every survivor that did hold a log refuses it.
#[test]
fn a_cut_seals_a_source_never_heard_from() {
    let p = ProcessorId(2);
    let mut layer = RmpLayer::new(SELF);
    layer.drop_beyond(p, 0);
    assert_eq!(receive(&mut layer, 2, 1, 10), (RxOutcome::Duplicate, false));
    assert_eq!(receive(&mut layer, 2, 2, 20), (RxOutcome::Duplicate, false));
    assert_eq!((layer.contiguous_of(p), layer.held_by(p)), (0, 0));
    assert_eq!((layer.retained_len(), layer.buffered_total()), (0, 0));

    // A re-add under the same id still starts a fresh, open log.
    layer.seed_window(p, 1);
    let (released, retained) = receive(&mut layer, 2, 1, 30);
    assert_eq!((seqs(released), retained), (vec![1], true));
}

/// A conviction cuts a source at the agreed target, under our cursor
/// here: released slots above the target leave the log with their
/// retention, the early arrivals above the seal (our cursor) leave too, and
/// neither a copy of one nor a fill is taken in. (This test used to pin a
/// fill releasing the run past the cut: the fault the seal mends.)
#[test]
fn a_conviction_cut_takes_what_waits_above_it_out() {
    let mut layer = RmpLayer::new(SELF);
    let p = ProcessorId(2);
    for seq in 1..=3 {
        receive(&mut layer, 2, seq, seq * 10);
    }
    receive(&mut layer, 2, 6, 60);
    receive(&mut layer, 2, 7, 70);
    layer.drop_beyond(p, 2);
    assert_eq!((layer.held_by(p), layer.retained_len()), (2, 2));
    assert!(layer.wire_bytes(p, 3).is_none() && layer.wire_bytes(p, 6).is_none());
    assert_eq!((layer.contiguous_of(p), layer.buffered_total()), (3, 0));
    assert!(layer.logs[&p].missing_ranges(64).is_empty());
    for seq in [7, 4, 5] {
        let refused = receive(&mut layer, 2, seq, seq * 10);
        assert_eq!(refused, (RxOutcome::Duplicate, false), "{seq}");
    }
    let kept: Vec<u64> = layer.logs[&p].slots.iter().map(|s| s.seq).collect();
    assert_eq!(kept, [1, 2]);
    assert_eq!((layer.contiguous_of(p), layer.held_by(p)), (3, 2));
}

/// A cut is a seal on what is taken in and asked for. A conviction's
/// agreed target may lie above our cursor: the gap below it is still asked
/// for, nothing above it is, whatever the source still sends. A leave cuts
/// at our cursor, so nothing is asked for at all.
#[test]
fn a_cut_asks_only_for_the_gap_below_it() {
    let p = ProcessorId(2);
    let cut_at = |beyond: Option<u64>| {
        let mut layer = RmpLayer::new(SELF);
        for seq in [1, 2, 6] {
            receive(&mut layer, 2, seq, seq * 10);
        }
        layer.note_header(p, SeqNum(9));
        assert_eq!(layer.logs[&p].missing_ranges(64), [(3, 5), (7, 9)]);
        let beyond = beyond.unwrap_or(layer.contiguous_of(p));
        layer.drop_beyond(p, beyond);
        layer.note_header(p, SeqNum(12));
        receive(&mut layer, 2, 11, 110);
        layer
    };
    let convicted = cut_at(Some(4));
    assert_eq!(convicted.logs[&p].missing_ranges(64), [(3, 4)]);
    let left = cut_at(None);
    assert!(left.logs[&p].missing_ranges(64).is_empty());
    assert!(!left.logs[&p].has_gap());
    // 6 left the log with the cut and 11 was refused. (Both used to wait
    // for a fill that would have released them past the cut.)
    for layer in [&convicted, &left] {
        assert_eq!(layer.buffered_total(), 0);
        assert!(layer.logs[&p].slots.iter().all(|s| s.seq <= 4));
    }
}

#[test]
fn a_slot_stamped_out_of_order_waits_for_the_one_in_front() {
    let mut layer = RmpLayer::new(SELF);
    receive(&mut layer, 2, 1, 50);
    receive(&mut layer, 2, 2, 10);
    assert_eq!(layer.reclaim_stable(Timestamp(20)), 0, "late, behind seq 1");
    assert!(layer.wire_bytes(ProcessorId(2), 2).is_some());
    assert_eq!(layer.reclaim_stable(Timestamp(50)), 2);
    assert_eq!(layer.retained_len(), 0);
}

/// Sorted by sequence number, not indexed by it: a wild number is one more
/// slot wherever it sorts, not a queue as long as the number.
#[test]
fn a_wild_sequence_number_costs_one_slot() {
    let mut layer = RmpLayer::new(SELF);
    let p = ProcessorId(2);
    for seq in [1, 2, 1 << 60, u64::MAX, 3] {
        receive(&mut layer, 2, seq, seq);
    }
    assert_eq!((layer.retained_len(), layer.buffered_total()), (5, 2));
    assert!(layer.logs[&p].slots.capacity() <= QUEUE_FLOOR);
    assert!(layer.wire_bytes(p, 3).is_some() && layer.wire_bytes(p, u64::MAX).is_some());
    assert_eq!(layer.reclaim_stable(Timestamp(3)), 3);
    layer.drop_beyond(p, 1 << 60);
    assert_eq!((layer.retained_len(), layer.held_by(p)), (1, 1));
    assert!(layer.wire_bytes(p, 1 << 60).is_some());
    assert_eq!(layer.buffered_total(), 1, "the one above the seal left");
}

fn visits(layer: &mut RmpLayer) -> usize {
    layer
        .logs
        .values_mut()
        .map(|log| std::mem::take(&mut log.visits))
        .sum()
}

/// The guard that cannot flake: at a standing depth of 10 000 over five
/// sources, a reclaim that reclaims nothing looks at one slot per source,
/// and `held_by` at none — with a gap open in one source or not.
#[test]
fn a_reclaim_that_reclaims_nothing_looks_at_one_slot_per_source() {
    let mut layer = RmpLayer::new(ProcessorId(9));
    for seq in 1..=2_000u64 {
        for src in 1..=5u32 {
            receive(&mut layer, src, seq, 100 + seq);
        }
    }
    assert_eq!(layer.retained_len(), 10_000);
    visits(&mut layer);
    assert_eq!(layer.reclaim_stable(Timestamp(100)), 0);
    let n = visits(&mut layer);
    assert!(n <= 5, "looked at {n} slots");
    assert_eq!(layer.held_by(ProcessorId(3)), 2_000);
    assert_eq!(visits(&mut layer), 0, "held_by looked at slots");
    // And one that reclaims k looks at k, plus the one it stops at.
    assert_eq!(layer.reclaim_stable(Timestamp(103)), 15);
    assert_eq!(visits(&mut layer), 20);
    // Early arrivals behind a hole cost no more.
    receive(&mut layer, 6, 2, 5_000);
    receive(&mut layer, 6, 3, 5_001);
    assert_eq!(layer.reclaim_stable(Timestamp(104)), 5);
    assert_eq!(visits(&mut layer), 11);
}

/// A backlog a lagging member once pinned is handed back once it is gone;
/// a log at its floor is left alone.
#[test]
fn a_drained_log_gives_its_capacity_back() {
    let mut layer = RmpLayer::new(SELF);
    let p = ProcessorId(2);
    for seq in 1..=10_000u64 {
        receive(&mut layer, 2, seq, seq);
    }
    assert!(layer.logs[&p].slots.capacity() >= 10_000);
    assert_eq!(layer.reclaim_stable(Timestamp(9_990)), 9_990);
    assert!(layer.logs[&p].slots.capacity() <= 64, "a depth of 10");
    assert_eq!(layer.reclaim_stable(Timestamp(10_000)), 10);
    let floor = layer.logs[&p].slots.capacity();
    for seq in 10_001..=10_008u64 {
        receive(&mut layer, 2, seq, seq);
        layer.reclaim_stable(Timestamp(seq));
    }
    assert_eq!(layer.logs[&p].slots.capacity(), floor);
}

/// A rejoin is one reset: the old incarnation's slots, retained or
/// waiting, go with every count they were in.
#[test]
fn a_reset_forgets_the_old_stream() {
    let mut layer = RmpLayer::new(SELF);
    let p = ProcessorId(2);
    receive(&mut layer, 2, 1, 10);
    receive(&mut layer, 2, 3, 30);
    receive(&mut layer, 3, 1, 11);
    layer.note_header(p, SeqNum(9));
    layer.seed_window(p, 1);
    assert_eq!(
        (layer.retained_len(), layer.retained_bytes()),
        (1, wire(&message(3, 1, Timestamp(11), false)).len())
    );
    assert_eq!((layer.held_by(p), layer.buffered_total()), (0, 0));
    assert_eq!(layer.contiguous_of(p), 0);
    assert!(layer.logs[&p].missing_ranges(64).is_empty());
    assert_eq!(
        receive(&mut layer, 2, 1, 40),
        (
            RxOutcome::Delivered(Run {
                first: message(2, 1, Timestamp(40), false),
                rest: Vec::new()
            }),
            true
        )
    );
}

/// The reference a skipped reclaim is checked against: a pass over every
/// log whatever happened since the last one.
fn reclaim_full(layer: &mut RmpLayer, stable: Timestamp) -> usize {
    layer.swept = None;
    layer.reclaim_stable(stable)
}

/// One side of the reclaim differential: the stability point a group's
/// ordering state reports, and the layer it reclaims.
struct Side {
    ord: crate::romp::Ordering,
    layer: RmpLayer,
}

impl Side {
    fn new() -> Self {
        Side {
            ord: crate::romp::Ordering::new((1..SOURCES).map(ProcessorId), Timestamp(0)),
            layer: RmpLayer::new(SELF),
        }
    }

    fn receive(&mut self, src: u32, seq: u64) {
        let m = message(src, seq, rising(src, seq), false);
        self.layer.receive(m.clone(), wire(&m), false);
    }
}

/// The skip rule of `reclaim_stable` and the memoized stability point that
/// feeds it (DESIGN.md §4, "What a packet recomputes"), against a twin that
/// recomputes the point and sweeps every log at every step. Steps: an
/// in-order arrival, a late copy of anything sent so far (stamped at or
/// below the point once that passed it), an ack, a join (its zero ack pulls
/// the point down until it reports), a removal, a drop of a source's tail,
/// a rejoin's reset of a source's log.
/// After every step both reclaim, and agree on what they reclaimed, `len`,
/// `bytes` and `stable_ts`.
#[test]
fn a_reclaim_on_change_equals_the_full_reclaim() {
    const SCHEDULES: usize = 200;
    let schedule = proptest::collection::vec((0u8..12, 1u32..=SOURCES, 0u64..1_000), 20..300);
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::on_change"));
    let (mut skipped, mut reclaimed, mut late, mut dropped_to) = (0, 0, 0, 0);
    for _ in 0..SCHEDULES {
        let steps = schedule.generate(&mut rng);
        let (mut fast, mut full) = (Side::new(), Side::new());
        let mut high: BTreeMap<u32, u64> = BTreeMap::new();
        let mut stable = Timestamp(0);
        for (kind, src, a) in steps {
            let p = ProcessorId(src);
            let top = high.get(&src).copied().unwrap_or(0);
            match kind {
                0..=3 => {
                    high.insert(src, top + 1);
                    fast.receive(src, top + 1);
                    full.receive(src, top + 1);
                }
                4 if top > 0 => {
                    let seq = 1 + a % top;
                    late += usize::from(rising(src, seq) <= stable);
                    fast.receive(src, seq);
                    full.receive(src, seq);
                }
                5..=7 => {
                    let ack = Timestamp(a % (8 * (top + 2)));
                    fast.ord.record_ack(p, ack);
                    full.ord.record_ack(p, ack);
                }
                8 => {
                    fast.ord.add_member(p, Timestamp(0));
                    full.ord.add_member(p, Timestamp(0));
                }
                9 => {
                    fast.ord.remove_member(p);
                    full.ord.remove_member(p);
                }
                10 => {
                    let beyond = a % (top + 1);
                    fast.layer.drop_beyond(p, beyond);
                    full.layer.drop_beyond(p, beyond);
                }
                11 if a.is_multiple_of(4) => {
                    fast.layer.seed_window(p, 1);
                    full.layer.seed_window(p, 1);
                    high.remove(&src);
                }
                _ => {}
            }
            let now = fast.ord.stable_ts();
            assert_eq!(now, full.ord.stable_ts_full(), "stable_ts");
            dropped_to += usize::from(now < stable);
            stable = now;
            skipped += usize::from(fast.layer.swept.is_some_and(|s| now <= s));
            let n = fast.layer.reclaim_stable(now);
            assert_eq!(n, reclaim_full(&mut full.layer, now), "reclaimed");
            reclaimed += n;
            assert_eq!(fast.layer.retained_len(), full.layer.retained_len(), "len");
            assert_eq!(
                fast.layer.retained_bytes(),
                full.layer.retained_bytes(),
                "bytes"
            );
        }
    }
    // The schedules reached what they are for.
    assert!(skipped > 10_000, "only {skipped} reclaims skipped");
    assert!(reclaimed > 2_500, "only {reclaimed} entries reclaimed");
    assert!(late > 300, "only {late} inserts at or below the point");
    assert!(dropped_to > 200, "the point fell only {dropped_to} times");
}

/// A slot costs what a retention entry cost before the log: the early
/// arrival is decoded again at release rather than held decoded beside its
/// bytes (208 bytes a slot, which raised the allocated bytes per delivery
/// of every workload whose logs grow and shrink).
#[test]
fn a_slot_is_as_small_as_the_retention_entry_it_replaced() {
    assert!(
        std::mem::size_of::<Slot>() <= 80,
        "{}",
        std::mem::size_of::<Slot>()
    );
}
