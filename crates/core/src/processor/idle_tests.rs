//! The idle tick against the full sweep (DESIGN.md §4 "Adaptive timers").
//!
//! Two copies of one small group run the same random schedule — loss,
//! reordering, duplication, sends, irregular ticks with long quiet gaps, a
//! crash, a one-way loss that stalls a member's acks, a sponsored join and
//! a Connect nobody answers. In one copy every processor skips ticks before
//! its deadline; in the other every tick sweeps. After every step both must
//! have produced the same actions, the same `stats()` and the same next RNG
//! draw.

use super::*;
use crate::config::{PackPolicy, Packing};
use proptest::prelude::*;
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

/// What the skipping copies' processors did, summed over every schedule.
#[derive(Debug, Default)]
struct Seen {
    ticks: u64,
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
}

/// One copy of the group and its network.
struct World {
    procs: Vec<Processor>,
    subs: Vec<BTreeSet<McastAddr>>,
    up: Vec<bool>,
    deaf: Vec<bool>,
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
        sweep: bool,
    ) -> Self {
        let n = founders + 1;
        let mut procs: Vec<Processor> = (1..=n as u32)
            .map(|id| Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport))
            .collect();
        for p in &mut procs {
            p.sweep_always = sweep;
        }
        let mut w = World {
            procs,
            subs: vec![BTreeSet::new(); n],
            up: vec![true; n],
            deaf: vec![false; n],
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
                Action::Event(ProtocolEvent::JoinedGroup { .. }) => self.seen.joins += 1,
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
            let mut slices = Vec::new();
            if wire::unpack_into(payload, &mut slices).is_ok() {
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

    /// Deliver everything due by `until` in due order, then tick.
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
            if p.idle_until.is_some_and(|t| until < t) && !p.sweep_always {
                self.seen.idle += 1;
            }
            let suspects =
                |p: &Processor| p.groups.get(&GID).map_or(0, |g| g.pgmp.my_suspects.len());
            let before = suspects(&self.procs[i]);
            self.turn(i, until, |p| p.tick(until));
            let p = &self.procs[i];
            if suspects(p) > before {
                let g = &p.groups[&GID];
                let heard = |q: &ProcessorId| {
                    g.pgmp
                        .last_heard
                        .get(q)
                        .is_some_and(|&t| until.saturating_since(t) < p.cfg.fail_timeout)
                };
                self.seen.stalls += g.pgmp.my_suspects.iter().filter(|q| heard(q)).count() as u64;
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        let live = |w: &World, m: usize| (m < w.founders && w.up[m]).then_some(m);
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
        }
    }

    /// Per processor: its counters and the next draw its RNG would make.
    fn state(&self) -> Vec<String> {
        self.procs
            .iter()
            .map(|p| format!("{:?} next draw {}", p.stats(), p.rng.clone().gen::<u64>()))
            .collect()
    }
}

/// Run `ops` on both copies, comparing them after every step, and add
/// what the skipping copy saw to `seen`.
fn run_case(
    ops: &[Op],
    founders: usize,
    cfg: &ProtocolConfig,
    net: (u64, f64, bool),
    seen: &mut Seen,
) {
    let mut idle = World::new(founders, cfg, net, false);
    let mut full = World::new(founders, cfg, net, true);
    idle.seen = std::mem::take(seen);
    assert_eq!(idle.log, full.log);
    for (step, op) in ops.iter().enumerate() {
        idle.apply(op);
        full.apply(op);
        assert_eq!(
            idle.log, full.log,
            "actions differ after step {step} {op:?}"
        );
        assert_eq!(
            idle.state(),
            full.state(),
            "state differs after step {step} {op:?}"
        );
        idle.log.clear();
        full.log.clear();
    }
    assert_eq!(full.seen.idle, 0, "the reference sweeps on every tick");
    idle.seen.nacks += idle.procs.iter().map(|p| p.stats().nacks_sent).sum::<u64>();
    *seen = idle.seen;
}

/// Every step of every schedule: the same actions, counters and RNG stream
/// with idle ticks as with a sweep on every tick. One property run over
/// `SCHEDULES` generated schedules, so that the coverage below is asserted
/// over all of them together.
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
    // Not vacuous: most ticks were idle, and every path ran.
    assert!(seen.idle * 100 >= seen.ticks * 60, "{seen:?}");
    assert!(seen.convictions > 0 && seen.stalls > 0, "{seen:?}");
    assert!(seen.joins > 0 && seen.join_retries > 0, "{seen:?}");
    assert!(
        seen.connect_requests > seen.connects && seen.nacks > 0,
        "{seen:?}"
    );
}
