//! Adaptive timing: the paper's Heartbeats exist "to measure latency" (§5),
//! and this module is where that measurement actually happens.
//!
//! Two estimators feed the derived timers:
//!
//! * [`RttEstimator`] — Jacobson/Karels smoothed round-trip time (SRTT /
//!   RTTVAR, RFC 6298 gains) fed by NACK→retransmission round-trips.
//!   **Karn's rule** applies: a sample is accepted only when exactly one
//!   RetransmitRequest was outstanding for the gap, because after a re-issue
//!   it is ambiguous which request the retransmission answers.
//! * [`Interarrival`] — a per-peer envelope over the gaps between *fresh*
//!   (non-retransmitted) packets from that peer. Under jitter the deviation
//!   term grows quickly, so the envelope widens before the first
//!   pathological gap convicts a healthy member.
//!
//! The `*_for`/`*_after` helpers turn the estimates plus a
//! [`ProtocolConfig`] into effective timer values. Every timer is measured:
//! the configured constant is its floor, used as is until the estimator has
//! samples, and the derived value is clamped to
//! `[configured, configured × MAX_SCALE]` so a poisoned estimate can never
//! collapse a timer to zero or stretch it without bound. (The NACK retry is
//! the exception to the ceiling: it backs off to `fail_timeout`, past which
//! suspicion takes over from recovery.)

use crate::config::{ProtocolConfig, NACK_RETRY, RETRANSMIT_SUPPRESS};
use ftmp_net::{SimDuration, SimTime};

/// Upper bound on adaptive stretching, as a multiple of the configured
/// constant. Keeps liveness: a real crash is still detected within
/// `MAX_SCALE × fail_timeout` no matter how noisy the network was.
pub const MAX_SCALE: u64 = 8;

/// NACK backoff doubles per unanswered retry up to this exponent
/// (2^6 = 64× the base interval), the retry cap of the backoff schedule.
pub const NACK_BACKOFF_CAP: u32 = 6;

/// RTO clock granularity `G` (RFC 6298): the variance term of
/// [`RttEstimator::rto`] is floored at this, so a steady stream of
/// identical samples — which decays the integer RTTVAR toward zero —
/// can never collapse the RTO onto bare SRTT and re-issue NACKs on the
/// first jitter blip. It is also the floor of [`nack_jitter_max`].
pub const RTO_GRANULARITY_US: u64 = 1_000;

/// [`RTO_GRANULARITY_US`] as a duration.
const GRANULARITY: SimDuration = SimDuration::from_micros(RTO_GRANULARITY_US);

/// Suspicion margin: a peer is suspected only after
/// `SUSPICION_FACTOR × (mean + 4·dev)` of silence.
const SUSPICION_FACTOR: u64 = 3;

/// Interarrival samples required before the envelope is trusted.
const MIN_ARRIVAL_SAMPLES: u64 = 8;

/// Jacobson/Karels smoothed RTT estimator in integer microseconds
/// (gain 1/8 on SRTT, 1/4 on RTTVAR, as in RFC 6298).
#[derive(Debug, Clone, Copy, Default)]
pub struct RttEstimator {
    srtt_us: u64,
    rttvar_us: u64,
    samples: u64,
}

impl RttEstimator {
    /// Fold in one round-trip sample (the caller enforces Karn's rule).
    pub fn observe(&mut self, rtt: SimDuration) {
        let r = rtt.as_micros();
        if self.samples == 0 {
            self.srtt_us = r;
            self.rttvar_us = r / 2;
        } else {
            let err = self.srtt_us.abs_diff(r);
            self.rttvar_us = self.rttvar_us - self.rttvar_us / 4 + err / 4;
            self.srtt_us = self.srtt_us - self.srtt_us / 8 + r / 8;
        }
        self.samples += 1;
    }

    /// Smoothed RTT; `None` until the first sample.
    pub fn srtt(&self) -> Option<SimDuration> {
        (self.samples > 0).then(|| SimDuration::from_micros(self.srtt_us))
    }

    /// Smoothed RTT variance; `None` until the first sample.
    pub fn rttvar(&self) -> Option<SimDuration> {
        (self.samples > 0).then(|| SimDuration::from_micros(self.rttvar_us))
    }

    /// Retransmission timeout: `SRTT + max(G, 4·RTTVAR)` (RFC 6298, with
    /// [`RTO_GRANULARITY_US`] as the granularity floor), `None` until the
    /// first sample.
    pub fn rto(&self) -> Option<SimDuration> {
        (self.samples > 0).then(|| {
            SimDuration::from_micros(self.srtt_us + (4 * self.rttvar_us).max(RTO_GRANULARITY_US))
        })
    }
}

/// Per-peer fresh-packet interarrival envelope: EWMA mean and deviation
/// over the gaps between non-retransmitted arrivals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interarrival {
    last_at: Option<SimTime>,
    mean_us: u64,
    dev_us: u64,
    samples: u64,
}

impl Interarrival {
    /// Record a fresh arrival at `now`.
    pub fn observe(&mut self, now: SimTime) {
        if let Some(last) = self.last_at {
            let gap = now.saturating_since(last).as_micros();
            if self.samples == 0 {
                self.mean_us = gap;
                self.dev_us = gap / 2;
            } else {
                let err = self.mean_us.abs_diff(gap);
                self.dev_us = self.dev_us - self.dev_us / 4 + err / 4;
                self.mean_us = self.mean_us - self.mean_us / 8 + gap / 8;
            }
            self.samples += 1;
        }
        self.last_at = Some(now);
    }

    /// `mean + 4·dev`, the gap size that would be surprising given recent
    /// history. `None` until enough samples accumulated to be meaningful.
    pub fn envelope(&self) -> Option<SimDuration> {
        (self.samples >= MIN_ARRIVAL_SAMPLES)
            .then(|| SimDuration::from_micros(self.mean_us + 4 * self.dev_us))
    }
}

/// Clamp `derived` into `[floor, floor × MAX_SCALE]` (microseconds).
fn clamp_scaled(derived: u64, floor: SimDuration) -> SimDuration {
    let lo = floor.as_micros().max(1);
    let hi = lo.saturating_mul(MAX_SCALE);
    SimDuration::from_micros(derived.clamp(lo, hi))
}

/// Effective NACK initial-jitter window: half the smoothed RTT, floored at
/// the clock granularity `G` (SRM-style receiver decorrelation — the window
/// only needs to spread NACKs over the time it takes the first one to be
/// answered). A gap episode arms on a tick, so a window under one tick
/// fires on the next one whatever its draw: with ticks `G` apart and SRTT/2
/// under `G`, a gap seen at `t` is first asked for by `t + 2G` (DESIGN.md
/// §4 "The first request").
pub fn nack_jitter_max(rtt: &RttEstimator) -> SimDuration {
    match rtt.srtt() {
        Some(srtt) => clamp_scaled(srtt.as_micros() / 2, GRANULARITY),
        None => GRANULARITY,
    }
}

/// Effective NACK re-issue delay after `attempts` unanswered requests: the
/// RTO floored at `NACK_RETRY`, doubled per attempt (capped at
/// [`NACK_BACKOFF_CAP`]). The backoff never exceeds `fail_timeout` — past
/// that, suspicion takes over from recovery.
pub fn nack_retry_after(cfg: &ProtocolConfig, rtt: &RttEstimator, attempts: u32) -> SimDuration {
    let base = rtt
        .rto()
        .map(|r| r.as_micros().max(NACK_RETRY.as_micros()))
        .unwrap_or(NACK_RETRY.as_micros());
    let backed = base.saturating_mul(1 << attempts.min(NACK_BACKOFF_CAP));
    SimDuration::from_micros(backed.min(cfg.fail_timeout.as_micros().max(base)))
}

/// Effective retransmission-suppression window: one smoothed RTT, floored
/// at `RETRANSMIT_SUPPRESS` (a retransmission answered within one RTT has
/// reached everyone who will ever need it; more within that window is
/// implosion).
pub fn suppress_window(rtt: &RttEstimator) -> SimDuration {
    match rtt.srtt() {
        Some(srtt) => clamp_scaled(srtt.as_micros(), RETRANSMIT_SUPPRESS),
        None => RETRANSMIT_SUPPRESS,
    }
}

/// Effective per-peer fail timeout: `SUSPICION_FACTOR` × the peer's
/// observed interarrival envelope, floored at `fail_timeout`, so a jittery
/// network widens suspicion before it convicts. Clamped at
/// `MAX_SCALE × fail_timeout` to preserve liveness.
pub fn fail_timeout_for(cfg: &ProtocolConfig, arrivals: &Interarrival) -> SimDuration {
    match arrivals.envelope() {
        Some(env) => clamp_scaled(
            SUSPICION_FACTOR.saturating_mul(env.as_micros()),
            cfg.fail_timeout,
        ),
        None => cfg.fail_timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn first_sample_initializes_srtt() {
        let mut e = RttEstimator::default();
        assert!(e.srtt().is_none() && e.rto().is_none());
        e.observe(us(1_000));
        assert_eq!(e.srtt().unwrap().as_micros(), 1_000);
        assert_eq!(e.rttvar().unwrap().as_micros(), 500);
        assert_eq!(e.rto().unwrap().as_micros(), 3_000);
    }

    #[test]
    fn srtt_converges_toward_steady_input() {
        let mut e = RttEstimator::default();
        e.observe(us(10_000));
        for _ in 0..100 {
            e.observe(us(2_000));
        }
        let srtt = e.srtt().unwrap().as_micros();
        assert!((1_900..=2_200).contains(&srtt), "srtt {srtt}");
        // Variance decays once the input is steady.
        assert!(e.rttvar().unwrap().as_micros() < 500);
    }

    #[test]
    fn rto_keeps_granularity_floor_under_steady_samples() {
        // 100 identical samples decay the integer RTTVAR toward zero
        // (err/4 == 0 for sub-4µs error, and x - x/4 stalls at 3). Without
        // the granularity floor the RTO collapses onto bare SRTT and any
        // jitter blip re-issues a NACK spuriously.
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.observe(us(1_000));
        }
        let srtt = e.srtt().unwrap().as_micros();
        let rto = e.rto().unwrap().as_micros();
        assert!(rto > srtt, "RTO must stay strictly above SRTT");
        assert!(
            rto >= srtt + RTO_GRANULARITY_US,
            "RTO {rto} lost the granularity floor over SRTT {srtt}"
        );
    }

    #[test]
    fn interarrival_envelope_needs_warmup_then_tracks_jitter() {
        let mut a = Interarrival::default();
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += us(10_000);
            a.observe(t);
        }
        assert!(a.envelope().is_none(), "too few samples to trust");
        for _ in 0..20 {
            t += us(10_000);
            a.observe(t);
        }
        let steady = a.envelope().unwrap().as_micros();
        // Steady 10ms arrivals: envelope near the mean, small deviation.
        assert!((10_000..25_000).contains(&steady), "steady {steady}");
        // Jittery phase: alternating 2ms / 40ms gaps blow the deviation up.
        for i in 0..30 {
            t += if i % 2 == 0 { us(2_000) } else { us(40_000) };
            a.observe(t);
        }
        let jittery = a.envelope().unwrap().as_micros();
        assert!(jittery > 2 * steady, "jittery {jittery} vs steady {steady}");
    }

    #[test]
    fn adaptive_backoff_doubles_and_caps() {
        let cfg = ProtocolConfig::default();
        let rtt = RttEstimator::default(); // no samples: base = nack_retry
        let base = NACK_RETRY.as_micros();
        assert_eq!(nack_retry_after(&cfg, &rtt, 0).as_micros(), base);
        assert_eq!(nack_retry_after(&cfg, &rtt, 1).as_micros(), 2 * base);
        assert_eq!(nack_retry_after(&cfg, &rtt, 2).as_micros(), 4 * base);
        // The retry cap: exponent stops at NACK_BACKOFF_CAP and the delay
        // never exceeds fail_timeout.
        let capped = nack_retry_after(&cfg, &rtt, 40);
        assert_eq!(
            capped,
            nack_retry_after(&cfg, &rtt, NACK_BACKOFF_CAP),
            "exponent capped"
        );
        assert!(capped <= cfg.fail_timeout);
    }

    #[test]
    fn adaptive_fail_timeout_floors_at_configured_and_caps_at_max_scale() {
        let cfg = ProtocolConfig::default();
        // Calm arrivals well under fail_timeout: the configured constant wins.
        let mut calm = Interarrival::default();
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += us(10_000);
            calm.observe(t);
        }
        assert_eq!(fail_timeout_for(&cfg, &calm), cfg.fail_timeout);
        // Huge observed gaps: stretched, but never past MAX_SCALE×.
        let mut wild = Interarrival::default();
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += us(900_000);
            wild.observe(t);
        }
        let eff = fail_timeout_for(&cfg, &wild);
        assert!(eff > cfg.fail_timeout);
        assert!(eff.as_micros() <= MAX_SCALE * cfg.fail_timeout.as_micros());
    }

    proptest! {
        /// SRTT always stays within the envelope of the samples seen so far
        /// — it is a convex combination of them (plus integer rounding).
        #[test]
        fn prop_srtt_within_sample_envelope(
            samples in proptest::collection::vec(1u64..1_000_000, 1..60),
        ) {
            let mut e = RttEstimator::default();
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for &s in &samples {
                lo = lo.min(s);
                hi = hi.max(s);
                e.observe(us(s));
                let srtt = e.srtt().unwrap().as_micros();
                // Integer EWMA can round one step below the running min.
                prop_assert!(srtt + 8 >= lo, "srtt {} below min {}", srtt, lo);
                prop_assert!(srtt <= hi, "srtt {} above max {}", srtt, hi);
            }
        }

        /// Effective timers keep the floor-and-ceiling promise: never below
        /// the configured constant, never above MAX_SCALE times it.
        #[test]
        fn prop_adaptive_timers_bounded(
            rtts in proptest::collection::vec(1u64..10_000_000, 1..40),
            gaps in proptest::collection::vec(1u64..10_000_000, 8..40),
            attempts in 0u32..64,
        ) {
            let cfg = ProtocolConfig::default();
            let mut rtt = RttEstimator::default();
            for &r in &rtts { rtt.observe(us(r)); }
            let mut arr = Interarrival::default();
            let mut t = SimTime::ZERO;
            for &g in &gaps { t += us(g); arr.observe(t); }

            let j = nack_jitter_max(&rtt).as_micros();
            prop_assert!(j >= RTO_GRANULARITY_US);
            prop_assert!(j <= MAX_SCALE * RTO_GRANULARITY_US);

            let s = suppress_window(&rtt).as_micros();
            prop_assert!(s >= RETRANSMIT_SUPPRESS.as_micros());
            prop_assert!(s <= MAX_SCALE * RETRANSMIT_SUPPRESS.as_micros());

            let f = fail_timeout_for(&cfg, &arr).as_micros();
            prop_assert!(f >= cfg.fail_timeout.as_micros());
            prop_assert!(f <= MAX_SCALE * cfg.fail_timeout.as_micros());

            let r = nack_retry_after(&cfg, &rtt, attempts).as_micros();
            prop_assert!(r >= NACK_RETRY.as_micros());
        }
    }
}
