//! The per-source queues of [`RetentionStore`] against the store they
//! replaced, kept here as the model: one `BTreeMap` over `(source, seq)`
//! whose reclaim and drop are a `retain` over every entry. Whatever order
//! things arrive in, the two agree on everything a caller can read while a
//! source's stamps rise with its sequence numbers; where they do not, the
//! queues reclaim late, never early. Plus the guards on what an operation
//! may cost.

use super::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SOURCES: u32 = 4;
const SUPPRESS: SimDuration = SimDuration::from_millis(4);

#[derive(Default)]
struct Model {
    msgs: BTreeMap<(ProcessorId, u64), (Timestamp, Bytes, Option<SimTime>)>,
    bytes: usize,
}

impl Model {
    fn insert(&mut self, source: ProcessorId, seq: u64, ts: Timestamp, wire: Bytes) {
        self.msgs.entry((source, seq)).or_insert_with(|| {
            self.bytes += wire.len();
            (ts, wire, None)
        });
    }

    fn wire_bytes(&self, source: ProcessorId, seq: u64) -> Option<Bytes> {
        self.msgs.get(&(source, seq)).map(|r| r.1.clone())
    }

    /// Whether a retransmission is answered (the suppression window).
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
        true
    }

    fn reclaim_stable(&mut self, stable: Timestamp) -> usize {
        let before = self.msgs.len();
        let bytes = &mut self.bytes;
        self.msgs.retain(|_, r| {
            if r.0 <= stable {
                *bytes -= r.1.len();
                false
            } else {
                true
            }
        });
        before - self.msgs.len()
    }

    fn drop_beyond(&mut self, source: ProcessorId, beyond: u64) {
        let bytes = &mut self.bytes;
        self.msgs.retain(|(s, seq), r| {
            if *s == source && *seq > beyond {
                *bytes -= r.1.len();
                false
            } else {
                true
            }
        });
    }

    fn held_by(&self, source: ProcessorId) -> usize {
        self.msgs.range((source, 0)..=(source, u64::MAX)).count()
    }
}

/// A body whose length varies with `(source, seq)`, so `bytes()` can tell
/// entries apart.
fn wire(source: u32, seq: u64) -> Bytes {
    Bytes::from(vec![source as u8; 44 + (seq % 7) as usize])
}

/// Both stores driven through one interleaving. `kind` picks the step:
/// an in-order arrival, a jump ahead (leaving a hole), the fill of a hole,
/// any sequence number seen so far again (a duplicate while retained, a
/// late arrival once reclaimed or dropped), a reclaim at an advanced
/// stability point, a drop of a source's tail (`0`: all of it, the restart
/// case, after which the source counts from 1 again), a retransmission.
struct Pair {
    model: Model,
    store: RetentionStore,
    stamp: fn(u32, u64) -> Timestamp,
    /// Highest sequence number each source has used, and the holes below it.
    high: BTreeMap<u32, u64>,
    holes: BTreeMap<u32, BTreeSet<u64>>,
    stable: Timestamp,
    now: SimTime,
}

impl Pair {
    fn new(stamp: fn(u32, u64) -> Timestamp) -> Self {
        Pair {
            model: Model::default(),
            store: RetentionStore::default(),
            stamp,
            high: BTreeMap::new(),
            holes: BTreeMap::new(),
            stable: Timestamp(0),
            now: SimTime(0),
        }
    }

    fn insert(&mut self, src: u32, seq: u64) {
        let (p, ts) = (ProcessorId(src), (self.stamp)(src, seq));
        self.model.insert(p, seq, ts, wire(src, seq));
        self.store.insert(p, seq, ts, wire(src, seq));
    }

    fn step(&mut self, kind: u8, src: u32, a: u64) {
        let p = ProcessorId(src);
        let high = self.high.get(&src).copied().unwrap_or(0);
        match kind {
            0..=4 => {
                self.high.insert(src, high + 1);
                self.insert(src, high + 1);
            }
            5 => {
                let skipped = 1 + a % 3;
                self.holes
                    .entry(src)
                    .or_default()
                    .extend(high + 1..=high + skipped);
                self.high.insert(src, high + skipped + 1);
                self.insert(src, high + skipped + 1);
            }
            6 => {
                if let Some(seq) = self.holes.entry(src).or_default().pop_first() {
                    self.insert(src, seq);
                }
            }
            7 | 8 if high > 0 => self.insert(src, 1 + a % high),
            9 | 10 => {
                self.stable = Timestamp(self.stable.0 + a % 40);
                assert_eq!(
                    self.store.reclaim_stable(self.stable),
                    self.model.reclaim_stable(self.stable)
                );
            }
            11 => {
                let beyond = if a.is_multiple_of(4) {
                    0
                } else {
                    a % (high + 1)
                };
                self.model.drop_beyond(p, beyond);
                self.store.drop_beyond(p, beyond);
                if beyond == 0 {
                    self.high.remove(&src);
                    self.holes.remove(&src);
                }
            }
            _ => {
                self.now = SimTime(self.now.0 + (a % 6) * 1_000);
                let seq = 1 + a % (high + 2);
                let answered = self.store.take_for_retransmit(p, seq, self.now, SUPPRESS);
                assert_eq!(
                    answered.is_some(),
                    self.model.take_for_retransmit(p, seq, self.now)
                );
            }
        }
    }

    /// Everything a caller can read agrees.
    fn assert_equal(&self) {
        assert_eq!(self.store.len(), self.model.msgs.len());
        assert_eq!(self.store.is_empty(), self.model.msgs.is_empty());
        assert_eq!(self.store.bytes(), self.model.bytes);
        for src in 1..=SOURCES {
            let p = ProcessorId(src);
            assert_eq!(self.store.held_by(p), self.model.held_by(p), "P{src}");
            for seq in 0..=self.high.get(&src).copied().unwrap_or(0) + 2 {
                let want = self.model.wire_bytes(p, seq);
                assert_eq!(self.store.contains(p, seq), want.is_some(), "P{src} {seq}");
                assert_eq!(self.store.wire_bytes(p, seq), want, "P{src} {seq}");
            }
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    proptest::collection::vec((0u8..14, 1u32..=SOURCES, 0u64..1_000), 0..300)
}

/// Stamps that rise with the sequence number, sources interleaved.
fn rising(src: u32, seq: u64) -> Timestamp {
    Timestamp(seq * 8 + u64::from(src))
}

/// Stamps that do not: a fixed scramble of `(source, seq)` below 500.
fn scrambled(src: u32, seq: u64) -> Timestamp {
    Timestamp((seq * 0x9E37 + u64::from(src) * 0x79B9) % 499 + 1)
}

proptest! {
    #[test]
    fn prop_queues_equal_the_map_when_stamps_rise_with_seq(steps in steps()) {
        let mut pair = Pair::new(rising);
        for (kind, src, a) in steps {
            pair.step(kind, src, a);
            pair.assert_equal();
        }
    }

    /// Without the invariant a stable entry can wait behind an unstable
    /// one: the queues then hold a superset of what the map holds — never
    /// less — and the two meet again once stability passes every stamp.
    #[test]
    fn prop_broken_stamps_reclaim_late_never_early(steps in steps()) {
        let mut pair = Pair::new(scrambled);
        for (kind, src, a) in steps {
            // Reclaim counts and suppression marks may differ on the way.
            match kind {
                9 | 10 => {
                    pair.stable = Timestamp(pair.stable.0 + a % 40);
                    pair.store.reclaim_stable(pair.stable);
                    pair.model.reclaim_stable(pair.stable);
                }
                12..=u8::MAX => {}
                _ => pair.step(kind, src, a),
            }
            prop_assert!(pair.store.len() >= pair.model.msgs.len());
            for &(p, seq) in pair.model.msgs.keys() {
                prop_assert!(pair.store.contains(p, seq), "{p:?} {seq} reclaimed early");
            }
        }
        pair.store.reclaim_stable(Timestamp(500));
        pair.model.reclaim_stable(Timestamp(500));
        pair.assert_equal();
        prop_assert!(pair.store.is_empty());
    }
}

#[test]
fn an_entry_stamped_out_of_order_waits_for_the_one_in_front() {
    let mut store = RetentionStore::default();
    store.insert(ProcessorId(1), 1, Timestamp(50), wire(1, 1));
    store.insert(ProcessorId(1), 2, Timestamp(10), wire(1, 2));
    assert_eq!(store.reclaim_stable(Timestamp(20)), 0, "late, behind seq 1");
    assert!(store.contains(ProcessorId(1), 2));
    assert_eq!(store.reclaim_stable(Timestamp(50)), 2);
    assert!(store.is_empty());
}

/// Sorted by sequence number, not indexed by it: a wild number is one more
/// entry wherever it sorts, not a queue as long as the number.
#[test]
fn a_wild_sequence_number_costs_one_entry() {
    let mut store = RetentionStore::default();
    let p = ProcessorId(1);
    for seq in [1, 2, 1 << 60, u64::MAX, 3] {
        store.insert(p, seq, Timestamp(seq), wire(1, seq));
    }
    assert_eq!(store.len(), 5);
    assert!(store.sources[&p].capacity() <= QUEUE_FLOOR);
    assert!(store.contains(p, 3) && store.contains(p, u64::MAX));
    assert_eq!(store.reclaim_stable(Timestamp(3)), 3);
    store.drop_beyond(p, 1 << 60);
    assert_eq!((store.len(), store.held_by(p)), (1, 1));
    assert!(store.contains(p, 1 << 60));
}

/// The guard that cannot flake: at a standing depth of 10 000 over five
/// sources, a reclaim that reclaims nothing looks at one entry per source,
/// and `held_by` at none.
#[test]
fn a_reclaim_that_reclaims_nothing_looks_at_one_entry_per_source() {
    let mut store = RetentionStore::default();
    for seq in 1..=2_000u64 {
        for src in 1..=5u32 {
            store.insert(ProcessorId(src), seq, Timestamp(100 + seq), wire(src, seq));
        }
    }
    assert_eq!(store.len(), 10_000);
    store.visits = 0;
    assert_eq!(store.reclaim_stable(Timestamp(100)), 0);
    assert!(store.visits <= 5, "looked at {} entries", store.visits);
    assert_eq!(store.held_by(ProcessorId(3)), 2_000);
    assert!(store.visits <= 5, "held_by looked at entries");
    // And one that reclaims k looks at k, plus the one it stops at.
    store.visits = 0;
    assert_eq!(store.reclaim_stable(Timestamp(103)), 15);
    assert_eq!(store.visits, 20);
}

/// A backlog a lagging member once pinned is handed back once it is gone;
/// a queue at its floor is left alone.
#[test]
fn a_drained_queue_gives_its_capacity_back() {
    let mut store = RetentionStore::default();
    let p = ProcessorId(1);
    for seq in 1..=10_000u64 {
        store.insert(p, seq, Timestamp(seq), wire(1, seq));
    }
    assert!(store.sources[&p].capacity() >= 10_000);
    assert_eq!(store.reclaim_stable(Timestamp(9_990)), 9_990);
    assert!(store.sources[&p].capacity() <= 64, "a depth of 10");
    assert_eq!(store.reclaim_stable(Timestamp(10_000)), 10);
    let floor = store.sources[&p].capacity();
    for seq in 10_001..=10_008u64 {
        store.insert(p, seq, Timestamp(seq), wire(1, seq));
        store.reclaim_stable(Timestamp(seq));
    }
    assert_eq!(store.sources[&p].capacity(), floor);
}

/// The reference a skipped reclaim is checked against: a pass over every
/// queue whatever happened since the last one.
fn reclaim_full(store: &mut RetentionStore, stable: Timestamp) -> usize {
    store.swept = None;
    store.reclaim_stable(stable)
}

/// One side of the reclaim differential: the stability point a group's
/// ordering state reports, and the store it reclaims.
struct Side {
    ord: crate::romp::Ordering,
    store: RetentionStore,
}

impl Side {
    fn new() -> Self {
        Side {
            ord: crate::romp::Ordering::new((1..SOURCES).map(ProcessorId), Timestamp(0)),
            store: RetentionStore::default(),
        }
    }
}

/// The skip rule of `reclaim_stable` and the memoized stability point that
/// feeds it (DESIGN.md §4, "What a packet recomputes"), against a twin that
/// recomputes the point and sweeps every queue at every step. Steps: an
/// in-order arrival, a late copy of anything sent so far (stamped at or
/// below the point once that passed it), an ack, a join (its zero ack pulls
/// the point down until it reports), a removal, a drop of a source's tail.
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
                    for side in [&mut fast, &mut full] {
                        side.store
                            .insert(p, top + 1, rising(src, top + 1), wire(src, top + 1));
                    }
                }
                4 if top > 0 => {
                    let seq = 1 + a % top;
                    late += usize::from(rising(src, seq) <= stable);
                    for side in [&mut fast, &mut full] {
                        side.store.insert(p, seq, rising(src, seq), wire(src, seq));
                    }
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
                    fast.store.drop_beyond(p, beyond);
                    full.store.drop_beyond(p, beyond);
                }
                _ => {}
            }
            let now = fast.ord.stable_ts();
            assert_eq!(now, full.ord.stable_ts_full(), "stable_ts");
            dropped_to += usize::from(now < stable);
            stable = now;
            skipped += usize::from(fast.store.swept.is_some_and(|s| now <= s));
            let n = fast.store.reclaim_stable(now);
            assert_eq!(n, reclaim_full(&mut full.store, now), "reclaimed");
            reclaimed += n;
            assert_eq!(fast.store.len(), full.store.len(), "len");
            assert_eq!(fast.store.bytes(), full.store.bytes(), "bytes");
        }
    }
    // The schedules reached what they are for.
    assert!(skipped > 10_000, "only {skipped} reclaims skipped");
    assert!(reclaimed > 2_500, "only {reclaimed} entries reclaimed");
    assert!(late > 300, "only {late} inserts at or below the point");
    assert!(dropped_to > 200, "the point fell only {dropped_to} times");
}
