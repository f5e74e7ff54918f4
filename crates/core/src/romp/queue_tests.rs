//! The per-source ordering queue against the single map it replaced
//! (DESIGN.md §4, "The ordering queue knows its own order").
//!
//! Both run the same random schedule — sends whose stamps mostly rise but
//! sometimes repeat, fall or land at or below the floor, bursts that build a
//! backlog, horizon and ack advances, joins, removals, delivery passes and
//! membership flushes with a removed set. After every step both must hold
//! the same queue, and every read-out the shell uses must agree. The new
//! queue's own bookkeeping — the front index, the count, the dropped queues
//! of departed sources and the capacity handed back — is checked too.

use super::*;
use crate::ids::{GroupId, SeqNum};
use crate::rmp::QUEUE_FLOOR;
use crate::wire::FtmpBody;
use proptest::prelude::*;

/// The ordering queue before it knew its own order: every undelivered
/// message in one map keyed by delivery position, with the horizons that
/// gate it. Kept as the model.
#[derive(Debug)]
struct MapQueue {
    queue: BTreeMap<OrderKey, FtmpMessage>,
    horizon: BTreeMap<ProcessorId, Timestamp>,
    last_delivered: OrderKey,
}

impl MapQueue {
    fn new(members: &[ProcessorId], horizon_floor: Timestamp, floor_key: OrderKey) -> Self {
        MapQueue {
            queue: BTreeMap::new(),
            horizon: members.iter().map(|&p| (p, horizon_floor)).collect(),
            last_delivered: floor_key,
        }
    }

    fn add_member(&mut self, p: ProcessorId, floor: Timestamp) {
        self.horizon.entry(p).or_insert(floor);
    }

    fn remove_member(&mut self, p: ProcessorId) {
        self.horizon.remove(&p);
    }

    fn advance_horizon(&mut self, p: ProcessorId, ts: Timestamp) {
        if let Some(h) = self.horizon.get_mut(&p) {
            *h = (*h).max(ts);
        }
    }

    fn enqueue(&mut self, msg: FtmpMessage) {
        let key = (msg.ts, msg.source);
        if key <= self.last_delivered {
            return;
        }
        self.queue.insert(key, msg);
    }

    fn deliverable(&mut self) -> Vec<FtmpMessage> {
        let mut out = Vec::new();
        while let Some((&(ts, _), _)) = self.queue.first_key_value() {
            if !self.horizon.values().all(|&h| h >= ts) {
                break;
            }
            let Some((key, msg)) = self.queue.pop_first() else {
                break;
            };
            self.last_delivered = self.last_delivered.max(key);
            out.push(msg);
        }
        out
    }

    fn head_blockers(&self) -> Vec<ProcessorId> {
        let head = self.queue.first_key_value().map(|(&(ts, _), _)| ts);
        self.horizon
            .iter()
            .filter(|&(_, &h)| head.is_some_and(|ts| h < ts))
            .map(|(&p, _)| p)
            .collect()
    }

    fn flush_with_targets(
        &mut self,
        target: &BTreeMap<ProcessorId, u64>,
        removed: &BTreeSet<ProcessorId>,
    ) -> (Vec<FtmpMessage>, usize) {
        let mut delivered = Vec::new();
        let mut discarded = 0;
        let keys: Vec<OrderKey> = self.queue.keys().copied().collect();
        for key in keys {
            let Some(msg) = self.queue.get(&key) else {
                continue;
            };
            let within = target.get(&msg.source).is_some_and(|&t| msg.seq.0 <= t);
            if within {
                if let Some(msg) = self.queue.remove(&key) {
                    self.last_delivered = self.last_delivered.max(key);
                    delivered.push(msg);
                }
            } else if removed.contains(&msg.source) {
                self.queue.remove(&key);
                discarded += 1;
            }
        }
        (delivered, discarded)
    }

    fn min_queued_seq_per_source(&self) -> BTreeMap<ProcessorId, u64> {
        let mut out: BTreeMap<ProcessorId, u64> = BTreeMap::new();
        for msg in self.queue.values() {
            let e = out.entry(msg.source).or_insert(u64::MAX);
            *e = (*e).min(msg.seq.0);
        }
        out
    }
}

/// Stamps live below this, so positions collide often.
const SPAN: u64 = 400;
/// Sources 1..=5; members start as 1..=4, so 5 is a joiner.
const SOURCES: u32 = 5;

#[derive(Debug, Clone)]
enum Op {
    /// `src` sends one message. `kind` picks its stamp: 0-5 rise past the
    /// source's last by `dt`, 6 repeats it, 7 falls `dt` below it, 8 lands
    /// at or below the floor.
    Send { src: u32, kind: u8, dt: u64 },
    /// `src` sends `n` messages with rising stamps: a backlog.
    Burst { src: u32, n: u32 },
    /// `p`'s horizon moves to `ts` (a no-op unless that is higher).
    Horizon { p: u32, ts: u64 },
    /// Every member's horizon moves to `ts`.
    HorizonAll { ts: u64 },
    /// `p` reports an ack.
    Ack { p: u32, ts: u64 },
    /// `p` joins at a horizon floor.
    Add { p: u32, floor: u64 },
    /// `p` leaves the view.
    Remove { p: u32 },
    /// One pass of the delivery rule.
    Deliver,
    /// A membership flush: per source a target (none where the draw is 20
    /// or more), and a removed set as a bit mask over the sources.
    Flush { targets: Vec<u64>, removed: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    let src = 1u32..=SOURCES;
    prop_oneof![
        (src.clone(), 0u8..9, 1u64..12).prop_map(|(src, kind, dt)| Op::Send { src, kind, dt }),
        (src.clone(), 0u8..9, 1u64..12).prop_map(|(src, kind, dt)| Op::Send { src, kind, dt }),
        (src.clone(), 0u8..9, 1u64..12).prop_map(|(src, kind, dt)| Op::Send { src, kind, dt }),
        (src.clone(), 1u32..40).prop_map(|(src, n)| Op::Burst { src, n }),
        (src.clone(), 0u64..SPAN).prop_map(|(p, ts)| Op::Horizon { p, ts }),
        (src.clone(), 0u64..SPAN).prop_map(|(p, ts)| Op::Horizon { p, ts }),
        (0u64..SPAN).prop_map(|ts| Op::HorizonAll { ts }),
        (src.clone(), 0u64..SPAN).prop_map(|(p, ts)| Op::Ack { p, ts }),
        (src.clone(), 0u64..SPAN).prop_map(|(p, floor)| Op::Add { p, floor }),
        src.clone().prop_map(|p| Op::Remove { p }),
        Just(Op::Deliver),
        Just(Op::Deliver),
        (
            proptest::collection::vec(0u64..24, SOURCES as usize),
            0u8..(1 << SOURCES)
        )
            .prop_map(|(targets, removed)| Op::Flush { targets, removed }),
    ]
}

fn msg(src: u32, seq: u64, ts: u64) -> FtmpMessage {
    FtmpMessage {
        retransmission: false,
        source: ProcessorId(src),
        group: GroupId(1),
        seq: SeqNum(seq),
        ts: Timestamp(ts),
        ack_ts: Timestamp(0),
        body: FtmpBody::Heartbeat,
    }
}

/// What tells two queued messages apart: a replaced message has the same
/// position but a newer sequence number.
fn ids(msgs: &[FtmpMessage]) -> Vec<(u64, u32, u64)> {
    msgs.iter().map(|m| (m.ts.0, m.source.0, m.seq.0)).collect()
}

/// The new queue's own bookkeeping, which the model has no counterpart for.
fn check_bookkeeping(ord: &Ordering) {
    let mut fronts = BTreeSet::new();
    let mut queued = 0;
    assert_eq!(ord.ids.len(), ord.rows.len(), "ids and rows out of step");
    assert!(ord.ids.windows(2).all(|w| w[0] < w[1]), "ids out of order");
    for (&p, row) in ord.ids.iter().zip(&ord.rows) {
        let q = &row.queue;
        assert!(!row.spent(), "departed source {p:?} keeps an empty row");
        assert!(
            q.iter().zip(q.iter().skip(1)).all(|(a, b)| a.ts < b.ts),
            "queue of {p:?} is not in strictly ascending stamp order"
        );
        assert!(
            q.iter().all(|m| m.source == p),
            "a message queued under another source"
        );
        assert!(
            q.capacity() <= QUEUE_FLOOR.max(4 * q.len() + 3),
            "queue of {p:?} holds {} slots for {} messages",
            q.capacity(),
            q.len()
        );
        if let Some(front) = q.front() {
            fronts.insert((front.ts, p));
        }
        queued += q.len();
    }
    assert_eq!(ord.fronts, fronts, "front index out of step");
    assert_eq!(ord.queued, queued, "queued count out of step");
}

#[test]
fn per_source_queues_match_the_map_they_replaced() {
    const SCHEDULES: usize = 400;
    let schedule = (
        proptest::collection::vec(op(), 20..160),
        0u64..30,
        1u32..=SOURCES,
    );
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::per_source"));
    let (mut replaced, mut fell, mut flushed, mut deep) = (0, 0, 0, 0);
    for _ in 0..SCHEDULES {
        let (ops, floor, floor_src) = schedule.generate(&mut rng);
        let founders: Vec<ProcessorId> = (1..SOURCES).map(ProcessorId).collect();
        let floor_key = (Timestamp(floor), ProcessorId(floor_src));
        let mut ord = Ordering::with_floor_key(founders.clone(), Timestamp(floor), floor_key);
        let mut model = MapQueue::new(&founders, Timestamp(floor), floor_key);
        // Per source: the last stamp sent and the last sequence number.
        let mut last_ts = [floor; SOURCES as usize + 1];
        let mut seq = [0u64; SOURCES as usize + 1];
        let mut out = Vec::new();
        for op in ops {
            let mut sent = Vec::new();
            match op {
                Op::Send { src, kind, dt } => {
                    let last = last_ts[src as usize];
                    let ts = match kind {
                        0..=5 => last + dt,
                        6 => last,
                        7 => last.saturating_sub(dt),
                        _ => floor.saturating_sub(dt % 3),
                    };
                    last_ts[src as usize] = last.max(ts);
                    sent.push((src, ts));
                    fell += usize::from(ts <= last);
                }
                Op::Burst { src, n } => {
                    for _ in 0..n {
                        last_ts[src as usize] += 1;
                        sent.push((src, last_ts[src as usize]));
                    }
                }
                Op::Horizon { p, ts } => {
                    ord.advance_horizon(ProcessorId(p), Timestamp(ts));
                    model.advance_horizon(ProcessorId(p), Timestamp(ts));
                }
                Op::HorizonAll { ts } => {
                    for p in 1..=SOURCES {
                        ord.advance_horizon(ProcessorId(p), Timestamp(ts));
                        model.advance_horizon(ProcessorId(p), Timestamp(ts));
                    }
                }
                Op::Ack { p, ts } => ord.record_ack(ProcessorId(p), Timestamp(ts)),
                Op::Add { p, floor } => {
                    ord.add_member(ProcessorId(p), Timestamp(floor));
                    model.add_member(ProcessorId(p), Timestamp(floor));
                }
                Op::Remove { p } => {
                    ord.remove_member(ProcessorId(p));
                    model.remove_member(ProcessorId(p));
                }
                Op::Deliver => {
                    out.clear();
                    ord.deliver_into(&mut out);
                    assert_eq!(ids(&out), ids(&model.deliverable()), "delivery pass");
                }
                Op::Flush { targets, removed } => {
                    let target: BTreeMap<ProcessorId, u64> = (1..=SOURCES)
                        .zip(&targets)
                        .filter(|&(_, &t)| t < 20)
                        .map(|(p, &t)| (ProcessorId(p), t))
                        .collect();
                    let removed: BTreeSet<ProcessorId> = (1..=SOURCES)
                        .filter(|p| removed & (1 << (p - 1)) != 0)
                        .map(ProcessorId)
                        .collect();
                    let (got, got_discarded) = ord.flush_with_targets(&target, &removed);
                    let (want, want_discarded) = model.flush_with_targets(&target, &removed);
                    assert_eq!(ids(&got), ids(&want), "flush delivered");
                    assert_eq!(got_discarded, want_discarded, "flush discarded");
                    flushed += got.len() + got_discarded;
                }
            }
            for (src, ts) in sent {
                seq[src as usize] += 1;
                let m = msg(src, seq[src as usize], ts);
                let key = (m.ts, m.source);
                replaced +=
                    usize::from(key > model.last_delivered && model.queue.contains_key(&key));
                model.enqueue(m.clone());
                ord.enqueue(m);
            }
            assert_eq!(ord.queue_len(), model.queue.len(), "queue_len");
            assert_eq!(
                ord.head_blockers().collect::<Vec<_>>(),
                model.head_blockers(),
                "head_blockers"
            );
            for p in 1..=SOURCES + 1 {
                let p = ProcessorId(p);
                assert_eq!(ord.blocks_head(p), model.head_blockers().contains(&p));
            }
            assert_eq!(
                ord.min_queued_seq_per_source(),
                model.min_queued_seq_per_source(),
                "min_queued_seq_per_source"
            );
            assert_eq!(ord.last_delivered(), model.last_delivered, "last_delivered");
            check_bookkeeping(&ord);
            deep = deep.max(ord.rows.iter().map(|r| r.queue.len()).max().unwrap_or(0));
        }
    }
    // The schedules reached what they are for.
    assert!(replaced > 50, "only {replaced} repeated positions replaced");
    assert!(fell > 500, "only {fell} stamps fell or repeated");
    assert!(
        flushed > 500,
        "only {flushed} messages flushed or discarded"
    );
    assert!(deep > 4 * QUEUE_FLOOR, "deepest queue only {deep}");
}

/// The reference a change-driven pass is checked against: a pass that runs
/// whether or not anything changed since the last one.
fn deliver_full(ord: &mut Ordering, out: &mut Vec<FtmpMessage>) {
    ord.stale = true;
    ord.deliver_into(out);
}

/// What one step other than a send or a flush does to a queue.
fn apply(ord: &mut Ordering, op: &Op) {
    match *op {
        Op::Horizon { p, ts } => ord.advance_horizon(ProcessorId(p), Timestamp(ts)),
        Op::HorizonAll { ts } => {
            for p in 1..=SOURCES {
                ord.advance_horizon(ProcessorId(p), Timestamp(ts));
            }
        }
        Op::Ack { p, ts } => ord.record_ack(ProcessorId(p), Timestamp(ts)),
        Op::Add { p, floor } => ord.add_member(ProcessorId(p), Timestamp(floor)),
        Op::Remove { p } => ord.remove_member(ProcessorId(p)),
        Op::Send { .. } | Op::Burst { .. } | Op::Deliver | Op::Flush { .. } => {}
    }
}

/// The skip rules against the work they skip (DESIGN.md §4, "What a packet
/// recomputes"): one queue runs the change-driven delivery pass and the
/// memoized stability point, its twin a full pass and a fresh minimum at
/// every step. The schedules are the model test's; a quarter of the steps
/// run no pass, so changes also pile up before one. After every step both
/// deliver the same messages and agree on `last_delivered`, `queue_len` and
/// `stable_ts`.
#[test]
fn a_pass_on_change_equals_the_full_pass() {
    const SCHEDULES: usize = 300;
    let schedule = (proptest::collection::vec((op(), 0u8..4), 20..160), 0u64..30);
    let mut rng = proptest::test_runner::rng_for(concat!(module_path!(), "::on_change"));
    let (mut skipped, mut delivered, mut memo_hits, mut fell) = (0, 0, 0, 0);
    for _ in 0..SCHEDULES {
        let (ops, floor) = schedule.generate(&mut rng);
        let founders: Vec<ProcessorId> = (1..SOURCES).map(ProcessorId).collect();
        let mut fast = Ordering::new(founders.clone(), Timestamp(floor));
        let mut full = Ordering::new(founders, Timestamp(floor));
        let mut last_ts = [floor; SOURCES as usize + 1];
        let mut seq = [0u64; SOURCES as usize + 1];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (op, pass) in ops {
            let mut sent = Vec::new();
            match op {
                Op::Send { src, kind, dt } => {
                    let last = last_ts[src as usize];
                    let ts = match kind {
                        0..=5 => last + dt,
                        6 => last,
                        7 => last.saturating_sub(dt),
                        _ => floor.saturating_sub(dt % 3),
                    };
                    last_ts[src as usize] = last.max(ts);
                    sent.push((src, ts));
                    fell += usize::from(ts <= last);
                }
                Op::Burst { src, n } => {
                    for _ in 0..n {
                        last_ts[src as usize] += 1;
                        sent.push((src, last_ts[src as usize]));
                    }
                }
                Op::Flush {
                    ref targets,
                    removed,
                } => {
                    let target: BTreeMap<ProcessorId, u64> = (1..=SOURCES)
                        .zip(targets)
                        .filter(|&(_, &t)| t < 20)
                        .map(|(p, &t)| (ProcessorId(p), t))
                        .collect();
                    let removed: BTreeSet<ProcessorId> = (1..=SOURCES)
                        .filter(|p| removed & (1 << (p - 1)) != 0)
                        .map(ProcessorId)
                        .collect();
                    let (a, a_discarded) = fast.flush_with_targets(&target, &removed);
                    let (b, b_discarded) = full.flush_with_targets(&target, &removed);
                    assert_eq!(ids(&a), ids(&b), "flush delivered");
                    assert_eq!(a_discarded, b_discarded, "flush discarded");
                }
                ref op => {
                    apply(&mut fast, op);
                    apply(&mut full, op);
                }
            }
            for (src, ts) in sent {
                seq[src as usize] += 1;
                let m = msg(src, seq[src as usize], ts);
                fast.enqueue(m.clone());
                full.enqueue(m);
            }
            if pass > 0 || matches!(op, Op::Deliver) {
                skipped += usize::from(!fast.stale);
                got.clear();
                want.clear();
                fast.deliver_into(&mut got);
                deliver_full(&mut full, &mut want);
                assert_eq!(ids(&got), ids(&want), "delivery pass");
                delivered += got.len();
            }
            memo_hits += usize::from(
                fast.stable_memo
                    .get()
                    .is_some_and(|(v, _)| v == fast.ack_version),
            );
            assert_eq!(fast.stable_ts(), full.stable_ts_full(), "stable_ts");
            assert_eq!(
                fast.last_delivered(),
                full.last_delivered(),
                "last_delivered"
            );
            assert_eq!(fast.queue_len(), full.queue_len(), "queue_len");
        }
    }
    // Both kinds of step were reached: passes skipped, passes that deliver,
    // the memo served, and stamps that fall or repeat.
    assert!(skipped > 5_000, "only {skipped} passes skipped");
    assert!(delivered > 5_000, "only {delivered} messages delivered");
    assert!(memo_hits > 5_000, "the memo served only {memo_hits} reads");
    assert!(fell > 1_000, "only {fell} stamps fell or repeated");
}
