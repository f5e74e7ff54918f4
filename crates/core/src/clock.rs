//! Message timestamps: Lamport clocks, optionally disciplined by a
//! (simulated) synchronized physical clock.
//!
//! §6 of the paper: "ROMP employs message timestamps, derived from logical
//! Lamport clocks … Better performance can be achieved through the use of
//! clock synchronization software, or synchronized physical clocks (e.g.
//! GPS)". Experiment E4 compares the two modes, so both are implemented
//! behind one type. In synchronized mode the clock never stamps below the
//! (skewed) physical microsecond count, which keeps timestamps from
//! different processors commensurate with real time; Lamport monotonicity
//! and the receive rule are enforced identically in both modes.

use crate::ids::Timestamp;
use ftmp_net::SimTime;

/// Admission's ceiling on a received header's `ts` and `ack_ts` (DESIGN.md
/// §4, "A stamp at the end of time"): a message stamped at or above it is
/// dropped before anything observes it. A Lamport clock raised to
/// `u64::MAX` by one such header overflowed at its next send. Honest stamps
/// never come near: 2^62 µs is about 146 000 years of synchronized clock.
pub(crate) const STAMP_CEILING: u64 = 1 << 62;

/// How far ahead of a receiver's clock a received stamp may be: 2^48 µs is
/// about nine years, more than any honest skew, idle spell or Lamport
/// count. An admitted stamp raises every receiver's clock, and the senders'
/// next stamps must exceed it; a fixed ceiling alone would let one stamp
/// just under it lift every next stamp over it, where every peer drops it.
pub(crate) const STAMP_REACH: u64 = 1 << 48;

/// Timestamp generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Pure logical Lamport clock.
    Lamport,
    /// Lamport clock floored at (virtual physical time + per-processor
    /// skew). `skew_us` is signed: this processor's clock error.
    Synchronized {
        /// This processor's clock error, microseconds.
        skew_us: i64,
    },
}

/// A message-timestamp source.
#[derive(Debug, Clone)]
pub struct Clock {
    mode: ClockMode,
    current: u64,
}

impl Clock {
    /// Create a clock in the given mode.
    pub fn new(mode: ClockMode) -> Self {
        Clock { mode, current: 0 }
    }

    /// The mode this clock runs in.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// Current value (the timestamp of the last event; the next send will
    /// exceed it).
    pub fn current(&self) -> Timestamp {
        Timestamp(self.current)
    }

    /// Stamp an outgoing message at virtual time `now`: strictly greater
    /// than every previous stamp and every observed stamp, and — in
    /// synchronized mode — at least the skewed physical time.
    pub fn stamp_send(&mut self, now: SimTime) -> Timestamp {
        let next = (self.current + 1).max(self.physical(now));
        self.current = next;
        Timestamp(next)
    }

    /// The skewed physical time at `now` in synchronized mode, 0 otherwise.
    fn physical(&self, now: SimTime) -> u64 {
        match self.mode {
            ClockMode::Lamport => 0,
            ClockMode::Synchronized { skew_us } => (now.as_micros() as i64 + skew_us).max(0) as u64,
        }
    }

    /// The least stamp a received header may not carry at `now`:
    /// `STAMP_REACH` past the later of this clock and its physical time,
    /// and never past `STAMP_CEILING`. One admitted stamp therefore
    /// leaves the ceiling at least 2^14 such jumps away.
    pub fn reach(&self, now: SimTime) -> u64 {
        let floor = self.current.max(self.physical(now));
        floor.saturating_add(STAMP_REACH).min(STAMP_CEILING)
    }

    /// Observe a received message's timestamp: Lamport receive rule,
    /// `clock := max(clock, ts)` (the +1 happens at the next send).
    pub fn observe(&mut self, ts: Timestamp) {
        if ts.0 > self.current {
            self.current = ts.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lamport_send_strictly_increases() {
        let mut c = Clock::new(ClockMode::Lamport);
        let a = c.stamp_send(SimTime(0));
        let b = c.stamp_send(SimTime(0));
        assert!(b > a);
    }

    #[test]
    fn observe_advances_clock() {
        let mut c = Clock::new(ClockMode::Lamport);
        c.observe(Timestamp(100));
        let t = c.stamp_send(SimTime(0));
        assert_eq!(t, Timestamp(101));
    }

    #[test]
    fn observe_never_regresses() {
        let mut c = Clock::new(ClockMode::Lamport);
        c.observe(Timestamp(100));
        c.observe(Timestamp(5));
        assert_eq!(c.current(), Timestamp(100));
    }

    #[test]
    fn synchronized_tracks_physical_time() {
        let mut c = Clock::new(ClockMode::Synchronized { skew_us: 0 });
        let t = c.stamp_send(SimTime(5_000));
        assert_eq!(t, Timestamp(5_000));
        // Sends in the same microsecond still strictly increase.
        let t2 = c.stamp_send(SimTime(5_000));
        assert_eq!(t2, Timestamp(5_001));
    }

    #[test]
    fn synchronized_skew_applies() {
        let mut fast = Clock::new(ClockMode::Synchronized { skew_us: 250 });
        let mut slow = Clock::new(ClockMode::Synchronized { skew_us: -250 });
        assert_eq!(fast.stamp_send(SimTime(1_000)), Timestamp(1_250));
        assert_eq!(slow.stamp_send(SimTime(1_000)), Timestamp(750));
    }

    #[test]
    fn synchronized_negative_physical_clamps_to_lamport() {
        let mut c = Clock::new(ClockMode::Synchronized { skew_us: -10_000 });
        let t = c.stamp_send(SimTime(0));
        assert_eq!(
            t,
            Timestamp(1),
            "falls back to pure Lamport when physical < 0"
        );
    }

    #[test]
    fn reach_runs_ahead_of_the_clock_and_its_physical_time_up_to_the_ceiling() {
        let mut c = Clock::new(ClockMode::Lamport);
        assert_eq!(c.reach(SimTime(1_000)), STAMP_REACH);
        c.observe(Timestamp(7));
        assert_eq!(c.reach(SimTime(1_000)), 7 + STAMP_REACH);
        c.observe(Timestamp(STAMP_CEILING - STAMP_REACH / 2));
        assert_eq!(c.reach(SimTime(1_000)), STAMP_CEILING);
        let idle = Clock::new(ClockMode::Synchronized { skew_us: 5 });
        assert_eq!(idle.reach(SimTime(1_000)), 1_005 + STAMP_REACH);
    }

    proptest! {
        #[test]
        fn prop_stamps_strictly_monotone(
            times in proptest::collection::vec(0u64..1_000_000, 1..50),
            observes in proptest::collection::vec(any::<u64>(), 0..50),
            skew in -1000i64..1000,
            synchronized: bool,
        ) {
            let mode = if synchronized {
                ClockMode::Synchronized { skew_us: skew }
            } else {
                ClockMode::Lamport
            };
            let mut c = Clock::new(mode);
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut last = Timestamp(0);
            let mut obs = observes.iter();
            for t in sorted {
                if let Some(o) = obs.next() {
                    c.observe(Timestamp(*o % 1_000_000));
                }
                let s = c.stamp_send(SimTime(t));
                prop_assert!(s > last, "stamp must strictly increase");
                prop_assert!(s >= c.current());
                last = s;
            }
        }

        #[test]
        fn prop_send_exceeds_all_observed(
            observed in proptest::collection::vec(0u64..1_000_000, 1..64),
        ) {
            let mut c = Clock::new(ClockMode::Lamport);
            for o in &observed {
                c.observe(Timestamp(*o));
            }
            let s = c.stamp_send(SimTime(0));
            let max = observed.iter().copied().max().unwrap();
            prop_assert!(s.0 > max);
        }
    }
}
