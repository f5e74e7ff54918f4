//! The idle tick against the full sweep (DESIGN.md §4 "Adaptive timers"),
//! and the busy tick's gated duties against the full duties (§4 "The busy
//! tick").
//!
//! Three copies of one small group run the same random schedule — loss,
//! reordering, duplication, sends, irregular ticks with long quiet gaps, a
//! crash, a one-way loss that stalls a member's acks, a sponsored join and
//! a Connect nobody answers. They differ only in their host ([`Host`]): one
//! never calls `tick` before a processor's deadline, one calls it on every
//! tick and lets the processor skip, and one sweeps on every tick. After
//! every step all three must have produced the same actions, the same
//! `stats()` and the same next RNG draw.
//!
//! The busy-tick differential runs two of them — a gated copy that ticks on
//! every tick, and the reference, whose every sweep runs every duty in full
//! — over schedules that add a voluntary leave and rejoin and the tree
//! overlay, and compares the fault detector's state as well.

use super::timers::Skips;
use super::*;
use crate::config::{PackPolicy, Packing};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const GID: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);
/// A fault-tolerance domain nobody serves: its Connect never comes.
const NOWHERE: McastAddr = McastAddr(900);

#[derive(Debug, Clone)]
enum Op {
    /// Advance the clock by this many µs, delivering what falls due, then
    /// tick every live processor.
    Advance(u64),
    /// That many 1 ms ticks in a row.
    Quiet(u32),
    /// A member multicasts one request.
    Send(usize),
    /// A member stops for good.
    Crash(usize),
    /// Nothing reaches this member from now on; it still sends.
    Deafen(usize),
    /// The spare processor joins, sponsored by the lowest live hearing
    /// founder.
    Join,
    /// A member opens a connection to `NOWHERE`.
    Connect(usize),
    /// A founder leaves the group of its own accord.
    Leave(usize),
    /// A founder that left is sponsored back in under the same id.
    Rejoin(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..3_000).prop_map(Op::Advance),
        (1u64..3_000).prop_map(Op::Advance),
        (1u64..3_000).prop_map(Op::Advance),
        (20u32..250).prop_map(Op::Quiet),
        (0usize..4).prop_map(Op::Send),
        (0usize..4).prop_map(Op::Send),
        (0usize..4).prop_map(Op::Crash),
        (0usize..4).prop_map(Op::Deafen),
        Just(Op::Join),
        Just(Op::Join),
        (0usize..4).prop_map(Op::Connect),
    ]
}

/// [`op`]'s schedules plus voluntary leaves and rejoins.
fn busy_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        op(),
        op(),
        op(),
        op(),
        (0usize..4).prop_map(Op::Leave),
        (0usize..4).prop_map(Op::Rejoin),
    ]
}

/// How a copy's host ticks its processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Host {
    /// Calls `tick` only from a processor's deadline on, as a host that
    /// sleeps until then would.
    Deadline,
    /// Calls `tick` on every tick; a tick before the deadline is idle.
    Ticking,
    /// Every tick sweeps (`sweep_always`): the reference.
    Sweeping,
}

/// What the deadline copies' processors did, summed over every schedule.
#[derive(Debug, Default)]
struct Seen {
    ticks: u64,
    /// Ticks before the deadline: never made by a deadline host.
    idle: u64,
    convictions: u64,
    joins: u64,
    /// AddProcessors sent in retransmission form: a sponsor's retries.
    join_retries: u64,
    connects: u64,
    connect_requests: u64,
    nacks: u64,
    /// Suspicions of a member heard within the fail timeout: ack stalls.
    stalls: u64,
    /// Voluntary leaves that took effect, and rejoins after one.
    leaves: u64,
    rejoins: u64,
}

/// One copy of the group and its network.
struct World {
    host: Host,
    procs: Vec<Processor>,
    subs: Vec<BTreeSet<McastAddr>>,
    up: Vec<bool>,
    deaf: Vec<bool>,
    /// Founders that left of their own accord and are not back yet.
    left: Vec<bool>,
    founders: usize,
    /// A join of the spare processor has been sponsored.
    joining: bool,
    /// Every packet and tick is a batch of its own, as in `Node::turn`.
    batched: bool,
    now: SimTime,
    /// In flight: (due, send order) → (receiver, datagram).
    wire: BTreeMap<(SimTime, u64), (usize, Packet)>,
    sent: u64,
    net: SmallRng,
    loss: f64,
    dup: f64,
    /// Everything the processors did, one line per action.
    log: Vec<String>,
    /// Ticks, idle ticks, and what the actions showed.
    seen: Seen,
}

impl World {
    fn new(
        founders: usize,
        cfg: &ProtocolConfig,
        (net_seed, loss, batched): (u64, f64, bool),
        host: Host,
    ) -> Self {
        let n = founders + 1;
        let mut procs: Vec<Processor> = (1..=n as u32)
            .map(|id| Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport))
            .collect();
        for p in &mut procs {
            p.sweep_always = host == Host::Sweeping;
        }
        let mut w = World {
            host,
            procs,
            subs: vec![BTreeSet::new(); n],
            up: vec![true; n],
            deaf: vec![false; n],
            left: vec![false; n],
            founders,
            joining: false,
            batched,
            now: SimTime::ZERO,
            wire: BTreeMap::new(),
            sent: 0,
            net: SmallRng::seed_from_u64(net_seed),
            loss,
            dup: loss / 2.0,
            log: Vec::new(),
            seen: Seen::default(),
        };
        let members: Vec<ProcessorId> = (1..=founders as u32).map(ProcessorId).collect();
        for i in 0..founders {
            w.procs[i].create_group(SimTime::ZERO, GID, ADDR, members.clone());
            w.procs[i].bind_connection(tests::conn_ab(), GID);
            w.drain(i);
        }
        w
    }

    /// Take `i`'s actions into the log and onto the wire.
    fn drain(&mut self, i: usize) {
        for a in self.procs[i].drain_actions() {
            self.log.push(format!("{} {:?}", i + 1, a));
            match a {
                Action::Send { addr, payload } => {
                    self.count(&payload);
                    self.transmit(i, addr, payload);
                }
                Action::Event(ProtocolEvent::FaultReport { .. }) => self.seen.convictions += 1,
                Action::Event(ProtocolEvent::JoinedGroup { .. }) if i < self.founders => {
                    self.seen.rejoins += 1
                }
                Action::Event(ProtocolEvent::JoinedGroup { .. }) => self.seen.joins += 1,
                Action::Event(ProtocolEvent::LeftGroup { .. }) if self.left[i] => {
                    self.seen.leaves += 1
                }
                Action::Join(addr) => {
                    self.subs[i].insert(addr);
                }
                Action::Leave(addr) => {
                    self.subs[i].remove(&addr);
                }
                _ => {}
            }
        }
    }

    /// Count AddProcessors in retransmission form (a sponsor's retries, or
    /// a repair) and ConnectRequests (one per `Op::Connect`, then retries).
    fn count(&mut self, payload: &Bytes) {
        let mut one = |m: &FtmpMessage| match m.body {
            FtmpBody::AddProcessor { .. } if m.retransmission => self.seen.join_retries += 1,
            FtmpBody::ConnectRequest { .. } => self.seen.connect_requests += 1,
            _ => {}
        };
        if wire::is_packed(payload) {
            if let Ok((slices, _)) = wire::unpack(payload) {
                for s in &slices {
                    if let Ok(m) = FtmpMessage::decode_shared(s) {
                        one(&m);
                    }
                }
            }
        } else if let Ok(m) = FtmpMessage::decode_shared(payload) {
            one(&m);
        }
    }

    fn transmit(&mut self, from: usize, addr: McastAddr, payload: Bytes) {
        for to in 0..self.procs.len() {
            if to == from || !self.up[to] || self.deaf[to] || !self.subs[to].contains(&addr) {
                continue;
            }
            let copies = if self.net.gen_bool(self.loss) {
                0
            } else if self.net.gen_bool(self.dup) {
                2
            } else {
                1
            };
            for _ in 0..copies {
                let due = self.now + SimDuration::from_micros(self.net.gen_range(50..2_000));
                self.sent += 1;
                let pkt = Packet::new(from as u32 + 1, addr, payload.clone());
                self.wire.insert((due, self.sent), (to, pkt));
            }
        }
    }

    /// One turn of processor `i`: `f`, inside a batch when this copy's host
    /// batches its turns as `Node` does, then the actions.
    fn turn(&mut self, i: usize, now: SimTime, f: impl FnOnce(&mut Processor)) {
        let p = &mut self.procs[i];
        if self.batched {
            p.begin_batch();
        }
        f(p);
        if self.batched {
            p.end_batch(now);
        }
        self.drain(i);
    }

    /// Deliver everything due by `until` in due order, then tick as this
    /// copy's host does.
    fn advance(&mut self, until: SimTime) {
        let spare = self.founders;
        if self.joining && self.subs[spare].is_empty() {
            self.procs[spare].expect_join(GID, ADDR);
            self.drain(spare);
        }
        while let Some(entry) = self.wire.first_entry() {
            if entry.key().0 > until {
                break;
            }
            let ((due, _), (to, pkt)) = entry.remove_entry();
            if !self.up[to] || self.deaf[to] {
                continue;
            }
            self.now = due;
            self.turn(to, due, |p| p.handle_packet(due, &pkt));
        }
        self.now = until;
        for i in 0..self.procs.len() {
            if !self.up[i] {
                continue;
            }
            let p = &self.procs[i];
            self.seen.ticks += 1;
            if p.idle_until.is_some_and(|t| until < t) && self.host != Host::Sweeping {
                self.seen.idle += 1;
                if self.host == Host::Deadline {
                    continue;
                }
            }
            let suspects =
                |p: &Processor| p.groups.get(&GID).map_or(0, |g| g.pgmp.suspects().count());
            let before = suspects(&self.procs[i]);
            self.turn(i, until, |p| p.tick(until));
            let p = &self.procs[i];
            if suspects(p) > before {
                let g = &p.groups[&GID];
                let heard = |q: ProcessorId| {
                    g.pgmp
                        .peers
                        .get(&q)
                        .is_some_and(|r| until.saturating_since(r.last_heard) < p.cfg.fail_timeout)
                };
                self.seen.stalls += g.pgmp.suspects().filter(|&q| heard(q)).count() as u64;
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        let live = |w: &World, m: usize| (m < w.founders && w.up[m] && !w.left[m]).then_some(m);
        match *op {
            Op::Advance(dt) => self.advance(self.now + SimDuration::from_micros(dt)),
            Op::Quiet(n) => {
                for _ in 0..n {
                    self.advance(self.now + SimDuration::from_millis(1));
                }
            }
            Op::Send(m) => {
                if let Some(m) = live(self, m % self.founders) {
                    let num = RequestNum(self.sent);
                    let _ = self.procs[m].multicast_request(
                        self.now,
                        tests::conn_ab(),
                        num,
                        Bytes::from_static(b"req"),
                    );
                    self.drain(m);
                }
            }
            Op::Crash(m) => {
                // Keep a majority of the founders up.
                let up = (0..self.founders).filter(|&i| self.up[i]).count();
                if up * 2 > self.founders + 1 {
                    self.up[m % self.founders] = false;
                }
            }
            Op::Deafen(m) => self.deaf[m % self.founders] = true,
            Op::Join => {
                // The sponsor adds the spare before it listens, so only a
                // retry can reach it.
                let spare = self.founders;
                let sponsor = (0..self.founders).find(|&i| self.up[i] && !self.deaf[i]);
                if let (Some(s), false) = (sponsor, self.joining) {
                    self.joining = true;
                    self.procs[s].add_processor(self.now, GID, ProcessorId(spare as u32 + 1));
                    self.drain(s);
                }
            }
            Op::Connect(m) => {
                if let Some(m) = live(self, m % self.founders) {
                    let conn = ConnectionId::new(
                        ObjectGroupId::new(7, m as u32),
                        ObjectGroupId::new(7, 99),
                    );
                    let me = vec![ProcessorId(m as u32 + 1)];
                    self.seen.connects += 1;
                    self.procs[m].open_connection(self.now, conn, me, NOWHERE);
                    self.drain(m);
                }
            }
            Op::Leave(m) => {
                // One leaver at a time, and never the last hearing founder.
                let hearing = (0..self.founders)
                    .filter(|&i| self.up[i] && !self.deaf[i] && !self.left[i])
                    .count();
                if let (Some(m), false, true) = (
                    live(self, m % self.founders),
                    self.left.contains(&true),
                    hearing > 2,
                ) {
                    let me = ProcessorId(m as u32 + 1);
                    self.left[m] = true;
                    self.procs[m].remove_processor(self.now, GID, me);
                    self.drain(m);
                }
            }
            Op::Rejoin(m) => {
                let m = m % self.founders;
                let sponsor = (0..self.founders)
                    .find(|&i| self.up[i] && !self.deaf[i] && !self.left[i] && i != m);
                let gone = !self.procs[m].groups.contains_key(&GID);
                if let (true, true, Some(s)) = (self.left[m], gone, sponsor) {
                    self.left[m] = false;
                    self.procs[m].expect_join(GID, ADDR);
                    self.drain(m);
                    self.procs[s].add_processor(self.now, GID, ProcessorId(m as u32 + 1));
                    self.drain(s);
                }
            }
        }
    }

    /// Per processor: its counters.
    fn state(&self) -> Vec<String> {
        self.procs
            .iter()
            .map(|p| format!("{:?}", p.stats()))
            .collect()
    }

    /// Per processor: the fault detector's state. `since` is left out for
    /// an entry level with our frontier: a full scan restamps it on every
    /// sweep, a gated one only when something changed, and the next scan
    /// restamps it again before anything reads it.
    fn detector(&self) -> Vec<String> {
        self.procs
            .iter()
            .map(|p| {
                let Some(g) = p.groups.get(&GID) else {
                    return String::from("no group");
                };
                let suspects: Vec<_> = g.pgmp.suspects().collect();
                let heard: Vec<_> = g
                    .pgmp
                    .peers
                    .iter()
                    .map(|(q, r)| (q, r.last_heard))
                    .collect();
                let progress: Vec<_> = g
                    .pgmp
                    .peers
                    .iter()
                    .filter_map(|(q, r)| Some((q, r.ack_progress?)))
                    .map(|(q, a)| (q, a.ack, a.caught_up, (!a.caught_up).then_some(a.since)))
                    .collect();
                format!("suspects {suspects:?} heard {heard:?} progress {progress:?}")
            })
            .collect()
    }
}

/// Run `ops` on the three copies, comparing each with the reference after
/// every step, and add what the deadline copy saw to `seen`.
fn run_case(
    ops: &[Op],
    founders: usize,
    cfg: &ProtocolConfig,
    net: (u64, f64, bool),
    seen: &mut Seen,
) {
    let mut full = World::new(founders, cfg, net, Host::Sweeping);
    let mut others = [Host::Deadline, Host::Ticking].map(|h| World::new(founders, cfg, net, h));
    others[0].seen = std::mem::take(seen);
    for w in &mut others {
        assert_eq!(w.log, full.log);
        w.log.clear();
    }
    full.log.clear();
    for (step, op) in ops.iter().enumerate() {
        full.apply(op);
        for w in &mut others {
            w.apply(op);
            let host = w.host;
            assert_eq!(
                w.log, full.log,
                "{host:?}: actions differ after step {step} {op:?}"
            );
            assert_eq!(
                w.state(),
                full.state(),
                "{host:?}: state differs after step {step} {op:?}"
            );
            w.log.clear();
        }
        full.log.clear();
    }
    assert_eq!(full.seen.idle, 0, "the reference sweeps on every tick");
    let [mut deadline, _] = others;
    deadline.seen.nacks += deadline
        .procs
        .iter()
        .map(|p| p.stats().nacks_sent)
        .sum::<u64>();
    *seen = deadline.seen;
}

/// Every step of every schedule: the same actions, counters and RNG stream
/// whether the host skips the ticks before the deadline, makes them idle,
/// or sweeps on every tick. One property run over `SCHEDULES` generated
/// schedules, so that the coverage below is asserted over all of them
/// together.
#[test]
fn idle_ticks_change_nothing_a_sweep_would_not() {
    const SCHEDULES: usize = 160;
    let schedule = (
        proptest::collection::vec(op(), 10..50),
        3usize..=4,
        any::<u64>(),
        0usize..4,
        0usize..3,
        0usize..2,
    );
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::idle_ticks"));
    let mut seen = Seen::default();
    for _ in 0..SCHEDULES {
        let (ops, founders, seed, loss, packing, batched) = schedule.generate(&mut rng);
        let mut cfg = ProtocolConfig::with_seed(seed)
            .fail_timeout_of(SimDuration::from_millis(60))
            .ack_stall_of(SimDuration::from_millis(150));
        cfg = match packing {
            0 => cfg,
            1 => cfg.packing(Packing::with(1400, PackPolicy::Immediate)),
            _ => cfg.packing(Packing::with(
                1400,
                PackPolicy::Deadline(SimDuration::from_micros(300)),
            )),
        };
        let loss = [0.0, 0.02, 0.1, 0.3][loss];
        run_case(&ops, founders, &cfg, (seed, loss, batched == 1), &mut seen);
    }
    // Not vacuous: the deadline host skipped most ticks, and every path ran.
    assert!(seen.idle * 100 >= seen.ticks * 60, "{seen:?}");
    assert!(seen.convictions > 0 && seen.stalls > 0, "{seen:?}");
    assert!(seen.joins > 0 && seen.join_retries > 0, "{seen:?}");
    assert!(
        seen.connect_requests > seen.connects && seen.nacks > 0,
        "{seen:?}"
    );
}

/// Every step of every schedule: the same actions, counters, RNG stream and
/// fault-detector state whether each sweep's duties are gated or all run in
/// full, and after every tick at which a gated processor swept, a deadline
/// no later than the reference's. The schedules add voluntary leaves and
/// rejoins to the idle test's, and run flat and tree overlays with packing
/// off and on. Debug builds also assert at every skip that the full duty
/// would have done nothing. The skip counts are printed (`--nocapture`).
#[test]
fn gated_duties_change_nothing_a_full_sweep_would_not() {
    const SCHEDULES: usize = 120;
    let schedule = (
        proptest::collection::vec(busy_op(), 10..60),
        3usize..=4,
        any::<u64>(),
        0usize..4,
        0usize..3,
        0usize..3,
    );
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::gated_duties"));
    let mut seen = Seen::default();
    let mut skips = Skips::default();
    for _ in 0..SCHEDULES {
        let (ops, founders, seed, loss, packing, overlay) = schedule.generate(&mut rng);
        let mut cfg = ProtocolConfig::with_seed(seed)
            .fail_timeout_of(SimDuration::from_millis(60))
            .ack_stall_of(SimDuration::from_millis(150));
        if packing > 0 {
            cfg = cfg.packing(Packing::with(1400, PackPolicy::Immediate));
        }
        if overlay == 0 {
            cfg = cfg.overlay(OverlayPolicy::Tree { arity: 2 });
        }
        let loss = [0.0, 0.02, 0.1, 0.3][loss];
        let net = (seed, loss, packing == 2);
        let mut full = World::new(founders, &cfg, net, Host::Sweeping);
        let mut gated = World::new(founders, &cfg, net, Host::Ticking);
        gated.seen = std::mem::take(&mut seen);
        for (step, op) in ops.iter().enumerate() {
            let before: Vec<bool> = gated
                .procs
                .iter()
                .map(|p| p.idle_until.is_none_or(|t| t <= gated.now))
                .collect();
            full.apply(op);
            gated.apply(op);
            assert_eq!(
                gated.log, full.log,
                "actions differ after step {step} {op:?}"
            );
            assert_eq!(
                gated.state(),
                full.state(),
                "state differs after step {step} {op:?}"
            );
            assert_eq!(
                gated.detector(),
                full.detector(),
                "detector differs after step {step} {op:?}"
            );
            if matches!(op, Op::Advance(_)) {
                for (i, (g, f)) in gated.procs.iter().zip(&full.procs).enumerate() {
                    if before[i] && gated.up[i] {
                        assert!(
                            g.idle_until <= f.idle_until,
                            "P{} deadline {:?} later than the reference's {:?} after step {step}",
                            i + 1,
                            g.idle_until,
                            f.idle_until
                        );
                    }
                }
            }
            gated.log.clear();
            full.log.clear();
        }
        seen = gated.seen;
        for p in &gated.procs {
            seen.nacks += p.stats().nacks_sent;
            let k = p.skips;
            skips.solicits += k.solicits;
            skips.retries += k.retries;
            skips.connect_retries += k.connect_retries;
            skips.nacks += k.nacks;
            skips.silence += k.silence;
            skips.ack_stall += k.ack_stall;
        }
    }
    eprintln!("{skips:?}\n{seen:?}");
    // Not vacuous: every gate skipped, and every path it guards ran.
    let Skips {
        solicits,
        retries,
        connect_retries,
        nacks,
        silence,
        ack_stall,
    } = skips;
    assert!(
        [
            solicits,
            retries,
            connect_retries,
            nacks,
            silence,
            ack_stall
        ]
        .iter()
        .all(|&n| n > 0),
        "{skips:?}"
    );
    assert!(seen.convictions > 0 && seen.stalls > 0, "{seen:?}");
    assert!(
        seen.leaves > 0 && seen.rejoins > 0 && seen.joins > 0,
        "{seen:?}"
    );
    assert!(
        seen.connect_requests > seen.connects && seen.nacks > 0,
        "{seen:?}"
    );
}
