//! Duplicate detection and suppression (§4).
//!
//! Every client replica multicasts the same request with the same
//! `(connection id, request number)`, and every server replica multicasts a
//! reply with the same pair, so each side receives up to *k* copies of each
//! message. The pair is unique ("request numbers are monotonically
//! increasing over all connections between the two groups; therefore each
//! connection identifier, request number pair is unique"), which makes
//! suppression a set-membership test — implemented here, one detector per
//! connection and direction, as a low-watermark plus a window of recent
//! numbers, so memory stays bounded without ever re-admitting a duplicate.

use ftmp_core::RequestNum;
use std::collections::BTreeSet;

/// Default bound on the sparse residue kept above the watermark.
pub const DEFAULT_RESIDUE_CAP: usize = 1024;

/// Tracks which request numbers have been seen on one connection, in one
/// direction (requests executed, or replies consumed).
///
/// Memory is bounded: a low-water mark (everything at or below it counts as
/// seen) plus at most `residue_cap` sparse numbers above it. When the
/// residue overflows, the smallest retained numbers are evicted by
/// advancing the watermark over them. This is safe on both sides:
///
/// - Advancing over a *gap* cannot re-admit a duplicate — everything the
///   watermark covers reads as already-seen.
/// - It cannot falsely suppress a fresh request either: request numbers are
///   monotone over *all* connections between two groups (§4), so a gap in
///   one connection's sequence belongs to sibling connections and never
///   arrives here. And within one connection, every client replica emits X
///   before Y when X < Y, so the first sighting of X precedes the first
///   sighting of Y on every merge of those streams — a fresh number below
///   an already-seen one does not occur.
#[derive(Debug, Clone)]
pub struct DuplicateDetector {
    /// Every number ≤ watermark has been seen.
    watermark: u64,
    /// Seen numbers above the watermark.
    above: BTreeSet<u64>,
    residue_cap: usize,
    /// Duplicates suppressed so far (experiment E7).
    pub suppressed: u64,
    /// Residue numbers folded into the watermark to stay within the cap.
    pub evictions: u64,
}

impl Default for DuplicateDetector {
    fn default() -> Self {
        Self::with_residue_cap(DEFAULT_RESIDUE_CAP)
    }
}

impl DuplicateDetector {
    /// A detector keeping at most `cap` sparse numbers above the watermark.
    pub fn with_residue_cap(cap: usize) -> Self {
        DuplicateDetector {
            watermark: 0,
            above: BTreeSet::new(),
            residue_cap: cap.max(1),
            suppressed: 0,
            evictions: 0,
        }
    }

    /// Record `num`. Returns `true` the first time (process it) and `false`
    /// for every duplicate (suppress it).
    pub fn first_sighting(&mut self, num: RequestNum) -> bool {
        if self.above.is_empty() && Some(num.0) == self.watermark.checked_add(1) {
            // The next number in order with nothing above the watermark:
            // the common case, and no residue to insert into or absorb.
            self.watermark = num.0;
            return true;
        }
        if self.seen(num) {
            self.suppressed += 1;
            return false;
        }
        self.above.insert(num.0);
        self.absorb_run();
        // Evict the smallest residue numbers until at most the cap remain,
        // advancing the watermark over each and over any run it then meets.
        while self.above.len() > self.residue_cap {
            self.watermark = self.above.pop_first().expect("len > cap >= 1");
            self.evictions += 1;
            self.absorb_run();
        }
        true
    }

    /// Advance the watermark over the run contiguous with it.
    fn absorb_run(&mut self) {
        while self.above.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
    }

    /// Has `num` been seen?
    pub fn seen(&self, num: RequestNum) -> bool {
        num.0 <= self.watermark || self.above.contains(&num.0)
    }

    /// Numbers retained above the contiguity watermark (memory check).
    pub fn window_size(&self) -> usize {
        self.above.len()
    }

    /// What this detector has seen, with its counters at zero: a
    /// checkpoint's copy (`crate::log::Checkpoint`).
    pub fn seen_copy(&self) -> DuplicateDetector {
        DuplicateDetector {
            suppressed: 0,
            evictions: 0,
            ..self.clone()
        }
    }

    /// Take over what `cp` has seen — a checkpoint's copy, restored with the
    /// state it belongs to. The counters stay this detector's own.
    pub fn adopt(&mut self, cp: &DuplicateDetector) {
        self.watermark = cp.watermark;
        self.above.clone_from(&cp.above);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_then_duplicates() {
        let mut d = DuplicateDetector::default();
        assert!(d.first_sighting(RequestNum(1)));
        assert!(!d.first_sighting(RequestNum(1)));
        assert!(!d.first_sighting(RequestNum(1)));
        assert_eq!(d.suppressed, 2);
    }

    #[test]
    fn watermark_compacts_contiguous_numbers() {
        let mut d = DuplicateDetector::default();
        for n in 1..=1000 {
            assert!(d.first_sighting(RequestNum(n)));
        }
        assert_eq!(d.window_size(), 0, "contiguous run fully compacted");
        assert!(d.seen(RequestNum(500)));
        assert!(!d.seen(RequestNum(1001)));
    }

    #[test]
    fn out_of_order_numbers_compact_when_gap_fills() {
        let mut d = DuplicateDetector::default();
        d.first_sighting(RequestNum(3));
        d.first_sighting(RequestNum(2));
        assert_eq!(d.window_size(), 2);
        d.first_sighting(RequestNum(1));
        assert_eq!(d.window_size(), 0);
        assert!(d.seen(RequestNum(2)));
    }

    #[test]
    fn residue_stays_within_cap() {
        let mut d = DuplicateDetector::with_residue_cap(8);
        // All-odd numbers never compact naturally: every insert leaves a gap.
        for n in (1..=1000u64).map(|i| 2 * i + 1) {
            assert!(d.first_sighting(RequestNum(n)));
        }
        assert!(d.window_size() <= 8, "cap enforced");
        assert!(d.evictions > 0, "overflow was folded into the watermark");
    }

    #[test]
    fn evicted_numbers_still_suppress_duplicates() {
        let mut d = DuplicateDetector::with_residue_cap(4);
        let nums: Vec<u64> = (1..=100u64).map(|i| 3 * i).collect();
        for &n in &nums {
            assert!(d.first_sighting(RequestNum(n)));
        }
        // Every earlier number was either retained or folded under the
        // watermark; duplicates of both must be rejected.
        for &n in &nums {
            assert!(!d.first_sighting(RequestNum(n)), "dup of {n}");
        }
        assert_eq!(d.suppressed, nums.len() as u64);
    }

    #[test]
    fn default_cap_is_invisible_at_small_scale() {
        let mut d = DuplicateDetector::default();
        for n in 1..=500u64 {
            d.first_sighting(RequestNum(2 * n));
        }
        assert_eq!(d.evictions, 0, "500 sparse numbers fit the default cap");
    }

    /// At the default cap, a number evicted thousands of sightings ago
    /// still suppresses its duplicate (the check `e2e_snapshot` made).
    #[test]
    fn long_evicted_number_still_suppresses_at_the_default_cap() {
        let mut d = DuplicateDetector::default();
        // Even numbers: never contiguous, every one a residue.
        for n in (1..=5_000u64).map(|k| 2 * k) {
            assert!(d.first_sighting(RequestNum(n)), "fresh number admitted");
            assert!(!d.first_sighting(RequestNum(n)), "duplicate suppressed");
        }
        assert_eq!(d.window_size(), DEFAULT_RESIDUE_CAP);
        assert_eq!(d.evictions, 5_000 - DEFAULT_RESIDUE_CAP as u64);
        assert!(!d.first_sighting(RequestNum(4)), "evicted long ago");
        assert_eq!(d.suppressed, 5_001);
    }

    /// A warm start is a fold of the recovered numbers through
    /// `first_sighting` and nothing else: replaying a detector's admitted
    /// numbers into a fresh one reproduces its decisions.
    #[test]
    fn warm_start_is_the_detectors_own_fold() {
        let mut live = DuplicateDetector::with_residue_cap(8);
        let admitted: Vec<u64> = (1..=400u64)
            .map(|i| i * 7 % 311 + 1)
            .filter(|&n| live.first_sighting(RequestNum(n)))
            .collect();
        let mut warm = DuplicateDetector::with_residue_cap(8);
        for &n in &admitted {
            assert!(warm.first_sighting(RequestNum(n)), "a log holds no dups");
        }
        assert_eq!(warm.evictions, live.evictions);
        assert_eq!(warm.window_size(), live.window_size());
        for n in 1..=320 {
            assert_eq!(warm.seen(RequestNum(n)), live.seen(RequestNum(n)), "{n}");
        }
    }

    /// A checkpoint's copy carries what was seen and no counts; the detector
    /// that adopts it decides as the original did and counts for itself.
    #[test]
    fn a_checkpoint_copy_is_adopted_without_its_counters() {
        let mut donor = DuplicateDetector::with_residue_cap(2);
        for n in [1, 2, 3, 7, 9, 12, 2] {
            donor.first_sighting(RequestNum(n));
        }
        let copy = donor.seen_copy();
        assert_eq!((copy.suppressed, copy.evictions), (0, 0));
        let mut replica = DuplicateDetector::with_residue_cap(2);
        replica.adopt(&copy);
        for n in 1..=13 {
            assert_eq!(
                replica.seen(RequestNum(n)),
                donor.seen(RequestNum(n)),
                "{n}"
            );
        }
        assert!(!replica.first_sighting(RequestNum(7)));
        assert_eq!((replica.suppressed, replica.evictions), (1, 0));
    }

    /// The detector before its in-order fast path, kept as the model: every
    /// first sighting goes into a plain set, the run above the watermark is
    /// absorbed, and the smallest numbers are evicted past the cap.
    #[derive(Clone)]
    struct SetModel {
        watermark: u64,
        above: BTreeSet<u64>,
        cap: usize,
        suppressed: u64,
        evictions: u64,
    }

    impl SetModel {
        fn first_sighting(&mut self, n: u64) -> bool {
            if n <= self.watermark || self.above.contains(&n) {
                self.suppressed += 1;
                return false;
            }
            self.above.insert(n);
            self.absorb();
            while self.above.len() > self.cap {
                self.watermark = self.above.pop_first().unwrap();
                self.evictions += 1;
                self.absorb();
            }
            true
        }

        fn absorb(&mut self) {
            while self.above.remove(&(self.watermark + 1)) {
                self.watermark += 1;
            }
        }
    }

    proptest! {
        /// The detector against the set model on sequences that run in
        /// order, skip ahead, repeat recent numbers and overflow the cap,
        /// with checkpoint copies taken and adopted in between: the same
        /// answers, watermark, residue, and counts after every step.
        #[test]
        fn prop_detector_matches_the_set_model(
            ops in proptest::collection::vec((0u8..12, 0u64..6), 0..400),
            cap in 1usize..8,
        ) {
            let mut d = DuplicateDetector::with_residue_cap(cap);
            let mut m = SetModel {
                watermark: 0,
                above: BTreeSet::new(),
                cap,
                suppressed: 0,
                evictions: 0,
            };
            let mut cursor = 0u64;
            let mut saved: Option<(DuplicateDetector, SetModel)> = None;
            for (kind, arg) in ops {
                let n = match kind {
                    0..=6 => {
                        cursor += 1;
                        Some(cursor)
                    }
                    7 => {
                        cursor += 2 + arg;
                        Some(cursor)
                    }
                    8 | 9 => Some(cursor.saturating_sub(arg).max(1)),
                    10 => {
                        let copy = d.seen_copy();
                        prop_assert_eq!((copy.suppressed, copy.evictions), (0, 0));
                        saved = Some((copy, m.clone()));
                        None
                    }
                    _ => {
                        if let Some((copy, at)) = &saved {
                            d.adopt(copy);
                            m.watermark = at.watermark;
                            m.above.clone_from(&at.above);
                        }
                        None
                    }
                };
                if let Some(n) = n {
                    prop_assert_eq!(d.first_sighting(RequestNum(n)), m.first_sighting(n));
                }
                prop_assert_eq!(d.watermark, m.watermark);
                prop_assert_eq!(d.window_size(), m.above.len());
                prop_assert_eq!((d.suppressed, d.evictions), (m.suppressed, m.evictions));
            }
            prop_assert_eq!(d.watermark, m.watermark);
            prop_assert_eq!(&d.above, &m.above);
            prop_assert_eq!((d.suppressed, d.evictions), (m.suppressed, m.evictions));
        }

        /// Exactly one sighting per distinct number, however arrivals repeat
        /// and interleave.
        #[test]
        fn prop_exactly_once(arrivals in proptest::collection::vec(1u64..50, 0..300)) {
            let mut d = DuplicateDetector::default();
            let mut firsts = std::collections::BTreeSet::new();
            for n in &arrivals {
                if d.first_sighting(RequestNum(*n)) {
                    prop_assert!(firsts.insert(*n), "number {} admitted twice", n);
                }
            }
            let distinct: std::collections::BTreeSet<u64> = arrivals.iter().copied().collect();
            prop_assert_eq!(firsts, distinct);
        }

        /// Eviction may suppress a number never seen (the watermark passed
        /// it) but never re-admits one: however small the cap, no number is
        /// admitted twice.
        #[test]
        fn prop_never_readmits_under_eviction(
            arrivals in proptest::collection::vec(1u64..200, 0..400),
            cap in 1usize..6,
        ) {
            let mut d = DuplicateDetector::with_residue_cap(cap);
            let mut admitted = std::collections::BTreeSet::new();
            for n in &arrivals {
                if d.first_sighting(RequestNum(*n)) {
                    prop_assert!(admitted.insert(*n), "number {} admitted twice", n);
                }
                prop_assert!(d.seen(RequestNum(*n)));
                prop_assert!(d.window_size() <= cap);
            }
            prop_assert_eq!(
                d.suppressed + admitted.len() as u64,
                arrivals.len() as u64
            );
        }
    }
}
