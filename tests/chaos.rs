//! Chaos integration: seeded random interleavings of sends, joins, leaves,
//! crashes and loss. The `ftmp-check` oracle suite rides along on every
//! processor and asserts the paper properties online — reliability, source
//! / causal / total order, virtual synchrony, duplicate suppression and
//! reclamation safety; the bodies keep only the membership-convergence
//! checks the oracles cannot see.
//!
//! Seed counts scale with the `CHAOS_SEEDS` environment variable (seeds per
//! test); the defaults keep the suite fast for tier-1, CI's chaos job runs
//! wider in release mode.

use bytes::Bytes;
use ftmp::check::{world_conn, FtmpWorld};
use ftmp::core::{ClockMode, GroupId, ProcessorId, ProtocolConfig, ProtocolEvent};
use ftmp::net::{LinkDegrade, LinkSelector, LossModel, SimConfig, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GROUP: GroupId = GroupId(1);

/// `base..base + CHAOS_SEEDS` (defaulting to `default_count` seeds).
fn seeds(base: u64, default_count: u64) -> std::ops::Range<u64> {
    let count = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_count)
        .max(1);
    base..base + count
}

struct Chaos {
    world: FtmpWorld,
    rng: SmallRng,
    next_id: u32,
    /// Membership operations are serialized, as the paper's §7.1 requires
    /// of the fault tolerance infrastructure ("must ensure that any
    /// necessary change to the membership of the processor group has been
    /// completed" before the next change).
    last_membership_op: SimTime,
}

impl Chaos {
    fn new(seed: u64, loss: f64) -> Self {
        let sim = SimConfig::with_seed(seed).loss(if loss > 0.0 {
            LossModel::Iid { p: loss }
        } else {
            LossModel::None
        });
        Chaos::with(seed, sim, ProtocolConfig::with_seed(seed))
    }

    fn with(seed: u64, sim: SimConfig, proto: ProtocolConfig) -> Self {
        let mut world = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
        world.attach_checker();
        Chaos {
            world,
            rng: SmallRng::seed_from_u64(seed ^ 0xC4405),
            next_id: 5,
            last_membership_op: SimTime::ZERO,
        }
    }

    fn membership_op_allowed(&self) -> bool {
        self.world
            .net
            .now()
            .saturating_since(self.last_membership_op)
            .as_millis()
            >= 400
    }

    fn pick_alive(&mut self) -> Option<u32> {
        let alive = self.world.live();
        if alive.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..alive.len());
        Some(alive[i])
    }

    fn send_random(&mut self) {
        if let Some(id) = self.pick_alive() {
            let giop = Bytes::from(vec![0u8; self.rng.gen_range(8..256usize)]);
            self.world.publish(id, world_conn(), giop);
        }
    }

    /// A send-only step: no membership churn, used by the latency-spike
    /// phases where any membership change would be a false conviction.
    fn step_send_only(&mut self) {
        self.send_random();
        let pause = self.rng.gen_range(1..12u64);
        self.world.net.run_for(SimDuration::from_millis(pause));
    }

    fn step(&mut self) {
        let action = self.rng.gen_range(0..100u32);
        match action {
            // 70%: someone multicasts.
            0..=69 => {
                self.send_random();
            }
            // 12%: a new processor joins.
            70..=81 => {
                if self.world.live().len() >= 2 && self.next_id < 12 && self.membership_op_allowed()
                {
                    self.last_membership_op = self.world.net.now();
                    let joiner = self.next_id;
                    self.next_id += 1;
                    let seed = self.rng.gen();
                    self.world.joiner(joiner, ProtocolConfig::with_seed(seed));
                    let sponsor = self.pick_alive().expect("checked");
                    self.world.sponsor(sponsor, joiner);
                }
            }
            // 10%: a voluntary leave.
            82..=91 => {
                let alive = self.world.live();
                if alive.len() >= 3 && self.membership_op_allowed() {
                    self.last_membership_op = self.world.net.now();
                    let idx = self.rng.gen_range(0..alive.len());
                    let leaver = alive[idx];
                    let sponsor = alive[(idx + 1) % alive.len()];
                    self.world.leave(leaver, sponsor);
                }
            }
            // 8%: a crash — but keep a live majority of the current
            // membership so conviction stays possible.
            _ => {
                let alive = self.world.live();
                if alive.len() >= 4 && self.membership_op_allowed() {
                    self.last_membership_op = self.world.net.now();
                    let idx = self.rng.gen_range(0..alive.len());
                    self.world.crash(alive[idx]);
                }
            }
        }
        let pause = self.rng.gen_range(1..12u64);
        self.world.net.run_for(SimDuration::from_millis(pause));
    }

    fn settle_and_check(&mut self, seed: u64) {
        self.world.net.run_for(SimDuration::from_secs(5));
        let live = self.world.live();
        assert!(!live.is_empty(), "seed {seed}: everyone died?");
        // Memberships converge among final live processors that are still
        // group members — state the oracles do not track.
        let mut memberships = Vec::new();
        for &id in &live {
            if let Some(m) = self.world.net.node(id).unwrap().engine().membership(GROUP) {
                memberships.push((id, m));
            }
        }
        assert!(
            !memberships.is_empty(),
            "seed {seed}: no live processor retains membership"
        );
        for w in memberships.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "seed {seed}: membership divergence between P{} and P{}",
                w[0].0, w[1].0
            );
        }
        // Delivery agreement, joiner suffixes, per-source gap-freedom and
        // the rest of the paper properties: the oracle suite checked them
        // online; finish() settles the end-of-run convergence obligations
        // for the processors still holding membership.
        let members: Vec<u32> = memberships.iter().map(|&(id, _)| id).collect();
        let checker = self.world.checker();
        checker.finish(members);
        checker.assert_clean(&format!("chaos seed {seed}"));
        assert!(
            checker.delivered() > 0,
            "seed {seed}: the oracles saw no deliveries — observer wiring broken"
        );
    }
}

fn run_chaos(seed: u64, loss: f64, steps: usize) {
    let mut c = Chaos::new(seed, loss);
    for _ in 0..steps {
        c.step();
    }
    c.settle_and_check(seed);
}

/// Latency-spike phases under measured timers: three degrade windows rotate
/// the afflicted processor's outbound links (latency ×40 with amplified
/// jitter, plus burst-like extra loss) while traffic flows. Nobody crashes,
/// so any `FaultReport` is a false conviction — adaptive timers must ride
/// every spike out. Returns the false convictions, `(at µs, who)`.
fn latency_spike_convictions(seed: u64, prompt_horizon: bool) -> Vec<(u64, ProcessorId)> {
    let mut sim = SimConfig::with_seed(seed);
    for (i, victim) in (1u32..=3).enumerate() {
        let start = 500_000 + i as u64 * 1_000_000;
        sim = sim.degrade(LinkDegrade {
            from: SimTime(start),
            until: SimTime(start + 600_000),
            links: LinkSelector::From(vec![victim]),
            latency_factor: 40.0,
            extra_loss: 0.35,
        });
    }
    let proto = ProtocolConfig::with_seed(seed)
        .fail_timeout_of(SimDuration::from_millis(30))
        .prompt_horizon(prompt_horizon);
    let mut c = Chaos::with(seed, sim, proto);
    // ~2.4 s of traffic (pauses average 6 ms): it flows through the first
    // two spikes and has just ended when the third sets in.
    for _ in 0..400 {
        c.step_send_only();
    }
    c.settle_and_check(seed);
    let mut convictions = Vec::new();
    for id in 1..=4u32 {
        if let Some(node) = c.world.net.node_mut(id) {
            for (at, e) in node.take_events() {
                if let ProtocolEvent::FaultReport { processor, .. } = e {
                    convictions.push((at.as_micros(), processor));
                }
            }
        }
    }
    convictions
}

#[test]
fn chaos_lossless() {
    for seed in seeds(100, 12) {
        run_chaos(seed, 0.0, 80);
    }
}

#[test]
fn chaos_with_loss() {
    for seed in seeds(200, 10) {
        run_chaos(seed, 0.05, 60);
    }
}

#[test]
fn chaos_heavy_loss_short() {
    for seed in seeds(300, 6) {
        run_chaos(seed, 0.15, 40);
    }
}

/// KNOWN FAILURE, tracked here and in ROADMAP item 1(e): the seeds of
/// 400..1400 at which `chaos_latency_spikes_no_false_convictions` does not
/// hold. At a spike's onset the victim's packets are suddenly 10 ms + jitter
/// late and each is lost with probability 0.35; a peer that misses two in a
/// row has heard nothing for `fail_timeout` (30 ms, three heartbeats) before
/// a single late arrival could have widened its interarrival envelope, and
/// when all three peers do so inside the same few milliseconds the quorum
/// convicts a live member. Every case below is 27–39 ms after an onset,
/// inside [`is_onset_conviction`]'s band, and names that spike's victim. The
/// suite skips exactly these seeds and
/// `chaos_latency_spike_onset_convictions_are_the_known_ones` asserts they
/// still fail, so a detector that rides the onset out turns that test red
/// and this list goes away. The seeds move whenever a change shifts the
/// simulator's random draws or what a processor does with a packet; both
/// lists are what the sweep below finds. Re-derived when a processor
/// stopped drawing the any-holder coin for its own looped-back
/// RetransmitRequests (563, 817, 1319 before), when every random draw
/// became keyed on what it decides (834, 894, 1302 before), and when the
/// first RetransmitRequest for a gap moved one tick earlier and a member
/// heard again withdrew its suspicion of silence (416, 434, 648, 675, 786
/// before): what a member sends moves each link's datagram ordinals, so a
/// link's n-th fate falls on another datagram. The seeds no longer move
/// with a change elsewhere in the run, only with one to what a link or a
/// member decides.
const ONSET_CONVICTION_SEEDS: [u64; 2] = [782, 1374];

/// The same failure in the timer-only protocol (`prompt_horizon` off, what
/// the repo ran before horizon on demand): prompted heartbeats change what
/// each link carries, so the cases sit on other seeds, at about the same
/// rate (3 against 2 in 1000; 654, 802, 934 and 1087 before the first
/// request moved a tick earlier, 1141 before keyed draws, 1350 and 1355
/// before the coin's re-derivation). With the old random streams a sweep of
/// seeds 1400..3400 found 5 and 9 cases in the two modes: a few in a
/// thousand either way.
const ONSET_CONVICTION_SEEDS_TIMER_ONLY: [u64; 3] = [507, 556, 562];

#[test]
fn chaos_latency_spikes_no_false_convictions() {
    for seed in seeds(400, 6).filter(|s| !ONSET_CONVICTION_SEEDS.contains(s)) {
        let convictions = latency_spike_convictions(seed, true);
        assert!(
            convictions.is_empty(),
            "seed {seed}: false convictions under adaptive timers: {convictions:?}"
        );
    }
}

/// The earliest a survivor can convict at an onset, in µs after it: the
/// fail timeout (30 ms), counted from the victim's last datagram before the
/// onset. Traffic has stopped or pauses, so that datagram may be a
/// Heartbeat, and one leaves on the first 1 ms tick at least
/// `heartbeat_interval` (10 ms) after the last send: it left at most 11 ms
/// before the onset, and a peer that hears nothing later suspects the
/// victim no earlier than 30 − 11 = 19 ms after the onset.
const ONSET_EARLIEST_US: u64 = 30_000 - (10_000 + 1_000);

/// A false conviction of the known kind: at every survivor, of the victim
/// of the spike that set in between [`ONSET_EARLIEST_US`] and 45 ms earlier
/// (spike `i` degrades P`i+1`'s outbound links from 0.5 + `i` s).
fn is_onset_conviction(convictions: &[(u64, ProcessorId)]) -> bool {
    convictions.len() == 3
        && convictions.iter().all(|&(at, who)| {
            let since_onset = at.checked_sub(500_000 + u64::from(who.0 - 1) * 1_000_000);
            (1..=3).contains(&who.0)
                && since_onset.is_some_and(|d| (ONSET_EARLIEST_US..45_000).contains(&d))
        })
}

#[test]
fn chaos_latency_spike_onset_convictions_are_the_known_ones() {
    for (on, known, other) in [
        (
            true,
            &ONSET_CONVICTION_SEEDS[..],
            &ONSET_CONVICTION_SEEDS_TIMER_ONLY[..],
        ),
        (
            false,
            &ONSET_CONVICTION_SEEDS_TIMER_ONLY[..],
            &ONSET_CONVICTION_SEEDS[..],
        ),
    ] {
        for &seed in known {
            let convictions = latency_spike_convictions(seed, on);
            assert!(
                is_onset_conviction(&convictions),
                "seed {seed}, prompt_horizon {on}: expected the known onset conviction, got \
                 {convictions:?} — if the fault detector now rides the onset out, drop the \
                 seed lists and the skip in chaos_latency_spikes_no_false_convictions"
            );
        }
        // The other mode's seeds are clean in this one: it is the random
        // stream that places the cases, not the heartbeat rule.
        for &seed in other {
            let convictions = latency_spike_convictions(seed, on);
            assert!(
                convictions.is_empty(),
                "seed {seed}, prompt_horizon {on}: {convictions:?}"
            );
        }
    }
}

/// The rate behind the two lists: over seeds 400..1400 the false convictions
/// are exactly the listed ones, in either mode. A minute in release; run by
/// `just chaos`.
#[test]
#[ignore = "1000 seeds x 2 modes; run in release by `just chaos`"]
fn chaos_latency_spike_onset_conviction_sweep() {
    for (on, known) in [
        (true, &ONSET_CONVICTION_SEEDS[..]),
        (false, &ONSET_CONVICTION_SEEDS_TIMER_ONLY[..]),
    ] {
        let convicting: Vec<u64> = (400..1400)
            .filter(|&seed| !latency_spike_convictions(seed, on).is_empty())
            .collect();
        assert_eq!(convicting, known, "prompt_horizon {on}");
    }
}

#[test]
fn chaos_long_run() {
    run_chaos(999, 0.08, 250);
}
