//! The event core against the scheduler it replaced (DESIGN.md §2, "The
//! simulator's event core").
//!
//! The model is the simulator as it was before the queue held its events:
//! the event bodies in a side map keyed by sequence number, a heap of
//! `(time, seq, seq)` keys, a receiver list and an outbox built per call,
//! and a loss state looked up for every copy. It carries the fix for a node
//! revived before its old tick fires, which ran two tick streams, in a form
//! of its own: a tick carries its node's incarnation, and one of an earlier
//! incarnation is dropped, where the new core takes the stale tick off the
//! queue. It draws each copy's fate under the same key, counting each
//! link's copies in a map of its own. Tracing and the wire tap, which
//! schedule nothing, are left out.
//!
//! Both run the same random schedule — node sets, subscriptions, latency
//! and loss models, fault plans, degrade windows, crash and revive,
//! partitions and blocked links, injections and sends from inside a node —
//! with constant latencies, loopback delays and fault delays chosen so that
//! many events land on the same instant. Every upcall, in order, with its
//! time, node and payload, and the traffic counters must agree.

use super::*;
use crate::models::{FaultRule, LatencyModel, LinkDegrade, LinkSelector, LossModel};
use crate::time::SimDuration;
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

#[derive(Debug)]
enum ModelEvent {
    Arrival { node: NodeId, pkt: Packet },
    Tick { node: NodeId, incarnation: u64 },
}

/// The scheduler before the queue held its events, with ticks tagged by
/// incarnation.
struct ModelNet<N: SimNode> {
    cfg: SimConfig,
    nodes: BTreeMap<NodeId, N>,
    incarnations: HashMap<NodeId, u64>,
    subs: HashMap<McastAddr, BTreeSet<NodeId>>,
    queue: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    events: HashMap<u64, ModelEvent>,
    next_seq: u64,
    now: SimTime,
    ordinals: HashMap<(NodeId, NodeId), u64>,
    loss_states: HashMap<NodeId, bool>,
    crashed: HashSet<NodeId>,
    partition: Option<Vec<HashSet<NodeId>>>,
    blocked: HashSet<(NodeId, NodeId)>,
    faults: Vec<(FaultRule, u64, u64)>,
    stats: NetStats,
    classifier: Option<Classifier>,
}

impl<N: SimNode> ModelNet<N> {
    fn new(cfg: SimConfig) -> Self {
        ModelNet {
            cfg,
            nodes: BTreeMap::new(),
            incarnations: HashMap::new(),
            subs: HashMap::new(),
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            ordinals: HashMap::new(),
            loss_states: HashMap::new(),
            crashed: HashSet::new(),
            partition: None,
            blocked: HashSet::new(),
            faults: Vec::new(),
            stats: NetStats::default(),
            classifier: None,
        }
    }

    fn add_node(&mut self, id: NodeId, node: N) {
        assert!(self.nodes.insert(id, node).is_none());
        self.incarnations.insert(id, 0);
        let t = self.now + self.cfg.tick_interval;
        self.push_event(
            t,
            ModelEvent::Tick {
                node: id,
                incarnation: 0,
            },
        );
    }

    fn subscribe(&mut self, id: NodeId, addr: McastAddr) {
        self.subs.entry(addr).or_default().insert(id);
    }

    fn unsubscribe(&mut self, id: NodeId, addr: McastAddr) {
        if let Some(set) = self.subs.get_mut(&addr) {
            set.remove(&id);
        }
    }

    fn revive(&mut self, id: NodeId, fresh: N) {
        self.crashed.remove(&id);
        self.nodes.insert(id, fresh);
        let incarnation = match self.incarnations.get(&id) {
            Some(i) => i + 1,
            None => 0,
        };
        self.incarnations.insert(id, incarnation);
        let t = self.now + self.cfg.tick_interval;
        self.push_event(
            t,
            ModelEvent::Tick {
                node: id,
                incarnation,
            },
        );
    }

    fn fault_op(&mut self, class: Option<u8>, src: NodeId, dst: NodeId) -> Option<FaultOp> {
        let mut op = None;
        for (rule, seen, fired) in &mut self.faults {
            if !rule.matches(class, src, dst) {
                continue;
            }
            *seen += 1;
            if op.is_none() && *seen > rule.skip && *fired < rule.count {
                *fired += 1;
                op = Some(rule.op);
            }
        }
        op
    }

    fn can_reach(&self, a: NodeId, b: NodeId) -> bool {
        if a != b && self.blocked.contains(&(a, b)) {
            return false;
        }
        match &self.partition {
            None => true,
            Some(cells) => cells
                .iter()
                .any(|cell| cell.contains(&a) && cell.contains(&b)),
        }
    }

    fn push_event(&mut self, at: SimTime, ev: ModelEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((at, seq, seq)));
        self.events.insert(seq, ev);
    }

    fn fan_out(&mut self, pkt: Packet) {
        let kind = self.classifier.and_then(|f| f(&pkt.payload));
        self.stats.record_send(pkt.len(), kind);
        self.stats.sent_messages += 1;
        let receivers: Vec<NodeId> = self
            .subs
            .get(&pkt.dst)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for rcv in receivers {
            let ordinal = self.ordinals.entry((pkt.src, rcv)).or_default();
            let mut copy = LinkCopy::first(self.cfg.seed, pkt.src, rcv);
            copy.ordinal = *ordinal;
            *ordinal += 1;
            if self.crashed.contains(&rcv) {
                self.stats.to_crashed += 1;
                continue;
            }
            if !self.can_reach(pkt.src, rcv) {
                self.stats.partitioned += 1;
                continue;
            }
            let fault = if rcv == pkt.src {
                None
            } else {
                self.fault_op(kind, pkt.src, rcv)
            };
            if fault == Some(FaultOp::Drop) {
                self.stats.lost += 1;
                continue;
            }
            let delay = if rcv == pkt.src {
                self.cfg.loopback_latency
            } else {
                let state = self.loss_states.entry(rcv).or_default();
                let lost = self.cfg.loss.loses(&copy, || state);
                if lost {
                    self.stats.lost += 1;
                    continue;
                }
                let mut latency_factor = 1.0f64;
                let mut dropped = false;
                for (i, d) in self.cfg.degrades.iter().enumerate() {
                    if !d.applies(self.now, pkt.src, rcv) {
                        continue;
                    }
                    latency_factor *= d.latency_factor.max(0.0);
                    let x = copy.draw(draw::DEGRADE_LOSS + i as u64);
                    if d.extra_loss > 0.0 && gen_bool(x, d.extra_loss) {
                        dropped = true;
                    }
                }
                if dropped {
                    self.stats.lost += 1;
                    continue;
                }
                let base = self.cfg.latency.sample(copy.draw(draw::LATENCY));
                if latency_factor == 1.0 {
                    base
                } else {
                    SimDuration::from_micros(
                        (base.as_micros() as f64 * latency_factor).round() as u64
                    )
                }
            };
            let delay = match fault {
                Some(FaultOp::Delay(extra)) => delay + extra,
                _ => delay,
            };
            let at = self.now + delay;
            self.push_event(
                at,
                ModelEvent::Arrival {
                    node: rcv,
                    pkt: pkt.clone(),
                },
            );
            if let Some(FaultOp::Duplicate(extra)) = fault {
                self.push_event(
                    at + extra,
                    ModelEvent::Arrival {
                        node: rcv,
                        pkt: pkt.clone(),
                    },
                );
            }
        }
    }

    fn apply_outbox(&mut self, id: NodeId, out: Outbox) {
        for addr in out.joins {
            self.subscribe(id, addr);
        }
        for addr in out.leaves {
            self.unsubscribe(id, addr);
        }
        for pkt in out.sends {
            self.fan_out(pkt);
        }
    }

    fn step(&mut self) -> Option<SimTime> {
        let Reverse((at, seq, _)) = self.queue.pop()?;
        let ev = self.events.remove(&seq).expect("event body");
        self.now = at;
        let mut out = Outbox::default();
        let actor = match ev {
            ModelEvent::Arrival { node, pkt } => {
                if self.crashed.contains(&node) {
                    self.stats.to_crashed += 1;
                } else if let Some(n) = self.nodes.get_mut(&node) {
                    self.stats.delivered += 1;
                    n.on_packet(at, &pkt, &mut out);
                }
                node
            }
            ModelEvent::Tick { node, incarnation } => {
                if !self.crashed.contains(&node)
                    && self.incarnations.get(&node) == Some(&incarnation)
                {
                    if let Some(n) = self.nodes.get_mut(&node) {
                        n.on_tick(at, &mut out);
                    }
                    let t = at + self.cfg.tick_interval;
                    self.push_event(t, ModelEvent::Tick { node, incarnation });
                }
                node
            }
        };
        self.apply_outbox(actor, out);
        Some(at)
    }

    fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse((at, _, _))) = self.queue.peek() {
            if *at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut N, SimTime, &mut Outbox)) {
        let now = self.now;
        let mut out = Outbox::default();
        let Some(n) = self.nodes.get_mut(&id) else {
            return;
        };
        f(n, now, &mut out);
        self.apply_outbox(id, out);
    }
}

/// One upcall as a node saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Upcall {
    at: SimTime,
    node: NodeId,
    /// `None` for a tick, else the arriving datagram's source.
    from: Option<NodeId>,
    payload: Vec<u8>,
}

type Log = Rc<RefCell<Vec<Upcall>>>;

/// A node that records every upcall in a log shared by the whole net and
/// answers from its inputs alone. A datagram's payload is `[class, hops,
/// group, tag]`: a foreign one with hops left is forwarded to `group`; some
/// tags make the receiver join or leave group 3. Every fourth tick sends.
struct Probe {
    id: NodeId,
    ticks: u32,
    log: Log,
}

impl Probe {
    fn new(id: NodeId, log: &Log) -> Self {
        Probe {
            id,
            ticks: 0,
            log: log.clone(),
        }
    }

    fn record(&self, at: SimTime, from: Option<NodeId>, payload: &[u8]) {
        self.log.borrow_mut().push(Upcall {
            at,
            node: self.id,
            from,
            payload: payload.to_vec(),
        });
    }
}

impl SimNode for Probe {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        self.record(now, Some(pkt.src), &pkt.payload);
        let &[class, hops, group, tag] = pkt.payload.as_ref() else {
            return;
        };
        if hops > 0 && pkt.src != self.id {
            let tag = tag.wrapping_add(self.id as u8);
            out.send(Packet::new(
                self.id,
                McastAddr(u32::from(group)),
                vec![class ^ 1, hops - 1, group % 3 + 1, tag],
            ));
        }
        match tag % 16 {
            5 => out.join(McastAddr(3)),
            11 => out.leave(McastAddr(3)),
            _ => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.ticks += 1;
        self.record(now, None, &[]);
        if self.ticks % 4 == self.id % 4 {
            out.send(Packet::new(
                self.id,
                McastAddr(1 + self.ticks % 2),
                vec![2, 1, 2, self.ticks as u8],
            ));
        }
    }
}

/// One of `values`, uniformly: microsecond figures picked so that events
/// collide.
fn one_of(values: &'static [u64]) -> impl Strategy<Value = u64> {
    (0..values.len()).prop_map(move |i| values[i])
}

/// What a schedule does between runs of the clock.
#[derive(Debug, Clone)]
enum Op {
    Run(u64),
    Inject {
        src: NodeId,
        group: u32,
        class: u8,
        hops: u8,
        tag: u8,
    },
    Send {
        node: NodeId,
        group: u32,
        tag: u8,
    },
    Crash(NodeId),
    Revive(NodeId),
    Subscribe(NodeId, u32),
    Unsubscribe(NodeId, u32),
    Partition(u8),
    Heal,
    Block(NodeId, NodeId),
    Unblock(NodeId, NodeId),
    Degrade {
        to: NodeId,
        factor: u8,
        loss: bool,
        len: u64,
    },
}

/// Ids 1-5 are nodes when the net has that many; 6 is never one, but may be
/// subscribed, crashed or revived into one.
const MAX_ID: u32 = 6;

fn op() -> impl Strategy<Value = Op> {
    let id = 1u32..=MAX_ID;
    prop_oneof![
        one_of(&[0, 0, 1, 20, 100, 500, 1000, 1000, 2500]).prop_map(Op::Run),
        (1u32..=MAX_ID, 1u32..=3, 0u8..4, 0u8..3, any::<u8>()).prop_map(
            |(src, group, class, hops, tag)| Op::Inject {
                src,
                group,
                class,
                hops,
                tag
            }
        ),
        (1u32..=MAX_ID, 1u32..=3, any::<u8>()).prop_map(|(node, group, tag)| Op::Send {
            node,
            group,
            tag
        }),
        id.clone().prop_map(Op::Crash),
        id.clone().prop_map(Op::Revive),
        (1u32..=MAX_ID, 1u32..=3).prop_map(|(n, g)| Op::Subscribe(n, g)),
        (1u32..=MAX_ID, 1u32..=3).prop_map(|(n, g)| Op::Unsubscribe(n, g)),
        any::<u8>().prop_map(Op::Partition),
        Just(Op::Heal),
        (1u32..=MAX_ID, 1u32..=MAX_ID).prop_map(|(a, b)| Op::Block(a, b)),
        (1u32..=MAX_ID, 1u32..=MAX_ID).prop_map(|(a, b)| Op::Unblock(a, b)),
        (1u32..=MAX_ID, 1u8..4, any::<bool>(), 1u64..3000).prop_map(|(to, factor, loss, len)| {
            Op::Degrade {
                to,
                factor,
                loss,
                len,
            }
        }),
    ]
}

fn latency() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        one_of(&[0, 100, 500, 1000])
            .prop_map(|us| LatencyModel::Constant(SimDuration::from_micros(us))),
        (0u64..3).prop_map(|w| LatencyModel::Uniform {
            min: SimDuration::from_micros(500),
            max: SimDuration::from_micros(500 + w),
        }),
        Just(LatencyModel::lan()),
    ]
}

fn loss() -> impl Strategy<Value = LossModel> {
    prop_oneof![
        Just(LossModel::None),
        Just(LossModel::None),
        (0u8..5).prop_map(|p| LossModel::Iid {
            p: f64::from(p) / 10.0
        }),
        Just(LossModel::Burst {
            p_good: 0.05,
            p_bad: 0.6,
            p_enter_bad: 0.2,
            p_exit_bad: 0.3,
        }),
    ]
}

fn rule() -> impl Strategy<Value = FaultRule> {
    let op = prop_oneof![
        Just(FaultOp::Drop),
        one_of(&[0, 480, 500, 1000]).prop_map(|us| FaultOp::Delay(SimDuration::from_micros(us))),
        one_of(&[0, 500, 1000]).prop_map(|us| FaultOp::Duplicate(SimDuration::from_micros(us))),
    ];
    (0u8..5, 0u32..=MAX_ID, 0u32..=MAX_ID, 0u64..4, 1u64..4, op).prop_map(
        |(class, src, dst, skip, count, op)| FaultRule {
            class: (class < 4).then_some(class),
            src: (src > 0).then_some(src),
            dst: (dst > 0).then_some(dst),
            skip,
            count,
            op,
        },
    )
}

/// One random world: its configuration, its nodes and subscriptions, its
/// fault plan and its steps.
#[derive(Debug, Clone)]
struct Schedule {
    cfg: SimConfig,
    nodes: u32,
    subs: Vec<(NodeId, u32)>,
    plan: FaultPlan,
    ops: Vec<Op>,
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (
        (any::<u64>(), latency(), loss()),
        one_of(&[0, 20, 500, 1000]),
        one_of(&[500, 1000]),
        2u32..=5,
        proptest::collection::vec((1u32..=MAX_ID, 1u32..=3), 2..12),
        proptest::collection::vec(rule(), 0..4),
        proptest::collection::vec(op(), 20..100),
    )
        .prop_map(
            |((seed, latency, loss), loopback, tick, nodes, subs, rules, ops)| Schedule {
                cfg: SimConfig {
                    latency,
                    loss,
                    loopback_latency: SimDuration::from_micros(loopback),
                    tick_interval: SimDuration::from_micros(tick),
                    ..SimConfig::with_seed(seed)
                },
                nodes,
                subs,
                plan: FaultPlan { rules },
                ops,
            },
        )
}

/// The verbs a schedule uses, on either core.
trait Net {
    fn add_node(&mut self, id: NodeId, node: Probe);
    fn subscribe(&mut self, id: NodeId, addr: McastAddr);
    fn unsubscribe(&mut self, id: NodeId, addr: McastAddr);
    fn crash(&mut self, id: NodeId);
    fn revive(&mut self, id: NodeId, fresh: Probe);
    fn partition(&mut self, cells: Vec<Vec<NodeId>>);
    fn heal(&mut self);
    fn block_link(&mut self, a: NodeId, b: NodeId);
    fn unblock_link(&mut self, a: NodeId, b: NodeId);
    fn add_degrade(&mut self, d: LinkDegrade);
    fn inject(&mut self, pkt: Packet);
    fn send_from(&mut self, id: NodeId, pkt: Packet);
    fn run_until(&mut self, deadline: SimTime);
    fn now(&self) -> SimTime;
}

macro_rules! net_verbs {
    () => {
        fn add_node(&mut self, id: NodeId, node: Probe) {
            self.add_node(id, node)
        }
        fn subscribe(&mut self, id: NodeId, addr: McastAddr) {
            self.subscribe(id, addr)
        }
        fn unsubscribe(&mut self, id: NodeId, addr: McastAddr) {
            self.unsubscribe(id, addr)
        }
        fn revive(&mut self, id: NodeId, fresh: Probe) {
            self.revive(id, fresh)
        }
        fn run_until(&mut self, deadline: SimTime) {
            self.run_until(deadline)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send_from(&mut self, id: NodeId, pkt: Packet) {
            self.with_node(id, |_, _, out| out.send(pkt));
        }
    };
}

impl Net for SimNet<Probe> {
    net_verbs!();
    fn crash(&mut self, id: NodeId) {
        SimNet::crash(self, id)
    }
    fn partition(&mut self, cells: Vec<Vec<NodeId>>) {
        SimNet::partition(self, cells)
    }
    fn heal(&mut self) {
        SimNet::heal(self)
    }
    fn block_link(&mut self, a: NodeId, b: NodeId) {
        SimNet::block_link(self, a, b)
    }
    fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        SimNet::unblock_link(self, a, b)
    }
    fn add_degrade(&mut self, d: LinkDegrade) {
        self.cfg.degrades.push(d);
    }
    fn inject(&mut self, pkt: Packet) {
        SimNet::inject(self, pkt)
    }
}

impl Net for ModelNet<Probe> {
    net_verbs!();
    fn crash(&mut self, id: NodeId) {
        self.crashed.insert(id);
    }
    fn partition(&mut self, cells: Vec<Vec<NodeId>>) {
        self.partition = Some(cells.into_iter().map(|c| c.into_iter().collect()).collect());
    }
    fn heal(&mut self) {
        self.partition = None;
    }
    fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.blocked.insert((a, b));
    }
    fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.blocked.remove(&(a, b));
    }
    fn add_degrade(&mut self, d: LinkDegrade) {
        self.cfg.degrades.push(d);
    }
    fn inject(&mut self, pkt: Packet) {
        self.fan_out(pkt)
    }
}

/// Build `s`'s world on `net` and drive it; every upcall lands in `log`.
fn drive(net: &mut impl Net, s: &Schedule, log: &Log) {
    for id in 1..=s.nodes {
        net.add_node(id, Probe::new(id, log));
    }
    for &(id, g) in &s.subs {
        net.subscribe(id, McastAddr(g));
    }
    for op in &s.ops {
        match *op {
            Op::Run(us) => net.run_until(net.now() + SimDuration::from_micros(us)),
            Op::Inject {
                src,
                group,
                class,
                hops,
                tag,
            } => net.inject(Packet::new(
                src,
                McastAddr(group),
                vec![class, hops, (group % 3 + 1) as u8, tag],
            )),
            Op::Send { node, group, tag } => net.send_from(
                node,
                Packet::new(node, McastAddr(group), vec![1, 1, 1, tag]),
            ),
            Op::Crash(id) => net.crash(id),
            Op::Revive(id) => net.revive(id, Probe::new(id, log)),
            Op::Subscribe(id, g) => net.subscribe(id, McastAddr(g)),
            Op::Unsubscribe(id, g) => net.unsubscribe(id, McastAddr(g)),
            Op::Partition(mask) => {
                let (a, b): (Vec<NodeId>, Vec<NodeId>) =
                    (1..=MAX_ID).partition(|id| mask & (1 << id) != 0);
                net.partition(vec![a, b]);
            }
            Op::Heal => net.heal(),
            Op::Block(a, b) => net.block_link(a, b),
            Op::Unblock(a, b) => net.unblock_link(a, b),
            Op::Degrade {
                to,
                factor,
                loss,
                len,
            } => {
                let from = net.now();
                net.add_degrade(LinkDegrade {
                    from,
                    until: from + SimDuration::from_micros(len),
                    links: LinkSelector::To(vec![to]),
                    latency_factor: f64::from(factor),
                    extra_loss: if loss { 0.5 } else { 0.0 },
                });
            }
        }
    }
    net.run_until(net.now() + SimDuration::from_millis(20));
}

#[test]
fn the_event_core_replays_the_scheduler_it_replaced() {
    const SCHEDULES: usize = 500;
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::event_core"));
    let (mut upcalls, mut ties, mut lost, mut revived, mut faulted) = (0, 0, 0, 0, 0);
    for _ in 0..SCHEDULES {
        let s = schedule().generate(&mut rng);
        let classify: Classifier = |p| p.first().copied();
        let (new_log, model_log) = (Log::default(), Log::default());
        let mut net = SimNet::new(s.cfg.clone());
        net.set_classifier(classify);
        net.set_fault_plan(s.plan.clone());
        drive(&mut net, &s, &new_log);
        let mut model = ModelNet::new(s.cfg.clone());
        model.classifier = Some(classify);
        model.faults = s.plan.rules.iter().map(|r| (r.clone(), 0, 0)).collect();
        drive(&mut model, &s, &model_log);

        let (new_log, model_log) = (new_log.borrow(), model_log.borrow());
        if let Some(i) = new_log
            .iter()
            .zip(model_log.iter())
            .position(|(a, b)| a != b)
        {
            panic!(
                "upcall {i} differs in {s:?}:\n new   {:?}\n model {:?}",
                new_log[i], model_log[i]
            );
        }
        assert_eq!(new_log.len(), model_log.len(), "upcall count in {s:?}");
        assert_eq!(net.stats, model.stats, "counters in {s:?}");
        assert_eq!(net.now, model.now);

        upcalls += new_log.len();
        ties += new_log.windows(2).filter(|w| w[0].at == w[1].at).count();
        lost += net.stats.lost;
        revived += usize::from(s.ops.iter().any(|o| matches!(o, Op::Revive(_))));
        faulted += net.faults.iter().filter(|(_, _, fired)| *fired > 0).count();
    }
    // The schedules reach what they are meant to.
    assert!(upcalls > 100 * SCHEDULES, "{upcalls} upcalls");
    assert!(ties > 40 * SCHEDULES, "{ties} same-instant upcalls");
    assert!(lost > 2000, "{lost} copies lost");
    assert!(revived > SCHEDULES / 2, "{revived} schedules revive");
    assert!(faulted > SCHEDULES / 8, "{faulted} fault rules fired");
}
