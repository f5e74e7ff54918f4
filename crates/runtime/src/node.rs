//! The runtime's node: one [`Node`] owning one engine, worked in **turns**
//! by a thread that only parks, reads the clocks and decides when a tick is
//! due.
//!
//! Thread model per node (DESIGN.md §14): the transport owns its reader
//! thread(s), which parse frames, filter by subscription and push what each
//! socket read completed into the inbox as one entry; the node's handle
//! pushes [`Command`]s into the same queue. The **engine thread** parks on
//! that one queue until the next tick is due, so anything that gives it
//! work — a datagram, a publish, a `Stop` — wakes it at once, takes what
//! the inbox holds (up to a bound) and hands it to [`Node::turn`].
//!
//! A [`Node`] has no thread and no clock of its own: its turn is
//! [`Driver::turn`] (DESIGN.md §11, where the order of a turn is stated)
//! fed with the intake, with every `Action::Send` of the turn going to the
//! transport in one [`Transport::send_batch`], which on the TCP mesh is one
//! `write` per peer. Time is a parameter, so the same `Node` runs under the
//! simulator's virtual clock behind a simulator-backed [`Transport`]
//! (`tests/runtime_on_sim.rs`). Ticks fire on a fixed cadence (default 1 ms
//! of real time = the simulator's tick quantum) and their scheduling lag is
//! recorded in the `runtime_timer_lag_us` histogram; `runtime_engine_turns`,
//! `runtime_turn_datagrams` and `runtime_socket_writes` say how much each
//! turn and each write carried.
//!
//! Time: the thread feeds the node `SimTime` values derived from a
//! monotonic clock, optionally anchored to a cluster-wide epoch
//! ([`RuntimeClock::with_unix_epoch`]) so trace timestamps from different
//! OS processes merge into one approximate global order. Oracle soundness
//! needs only per-node event order, which is exact by construction.

use crossbeam::channel::{unbounded, Receiver, Sender};

use bytes::Bytes;
use ftmp_core::actions::{Delivery, ProtocolEvent};
use ftmp_core::config::ProtocolConfig;
use ftmp_core::durable::DeliveryLog;
use ftmp_core::ids::{ConnectionId, GroupId, ProcessorId, RequestNum};
use ftmp_core::observe::Observation;
use ftmp_core::{ClockMode, Driver, Host, Processor};
use ftmp_net::{McastAddr, Packet, SimDuration, SimTime};
use ftmp_telemetry::{HistId, Registry};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::trace::TraceWriter;
use crate::transport::{Inbox, RxReceiver, Selected, Transport, TransportKind};

/// Monotonic `SimTime` source, optionally anchored to a shared epoch.
#[derive(Debug, Clone)]
pub struct RuntimeClock {
    /// Signed: a member spawned *before* the shared epoch (the usual case
    /// for founders — the parent picks an epoch slightly in the future so
    /// every process is up by time zero) has a negative base and reads
    /// `SimTime(0)` until the epoch arrives.
    base_us: i64,
    anchor: Instant,
}

impl RuntimeClock {
    /// Time starts at 0 when this clock is created (single-process runs).
    pub fn process_start() -> Self {
        RuntimeClock {
            base_us: 0,
            anchor: Instant::now(),
        }
    }

    /// Time 0 is the given unix-epoch microsecond instant (cluster runs:
    /// the parent picks one epoch and passes it to every member, so all
    /// members' trace timestamps share an origin). Monotonic after anchor.
    pub fn with_unix_epoch(epoch_us: u64) -> Self {
        let now_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as i64)
            .unwrap_or(0);
        RuntimeClock {
            base_us: now_us - epoch_us as i64,
            anchor: Instant::now(),
        }
    }

    /// Current runtime time.
    pub fn now(&self) -> SimTime {
        let t = self.base_us + self.anchor.elapsed().as_micros() as i64;
        SimTime(t.max(0) as u64)
    }
}

/// How this node enters the group.
pub enum Role {
    /// Founding member: installs the initial view directly.
    Founder {
        /// The full founding membership (must include this node).
        members: Vec<ProcessorId>,
    },
    /// Joiner: subscribes and waits for a sponsor's AddProcessor.
    Joiner,
}

/// Configuration for one runtime node.
pub struct NodeConfig {
    /// This processor.
    pub id: ProcessorId,
    /// The (single) group this node participates in.
    pub group: GroupId,
    /// The group's multicast address.
    pub group_addr: McastAddr,
    /// Protocol parameters (real milliseconds; the defaults work).
    pub protocol: ProtocolConfig,
    /// Founder or joiner.
    pub role: Role,
    /// Tick cadence (default 1 ms).
    pub tick: Duration,
    /// Time source.
    pub clock: RuntimeClock,
    /// Optional logical connection to bind at startup.
    pub connection: Option<(ConnectionId, GroupId)>,
    /// How long to keep pumping after `Command::Stop` so in-flight
    /// acks/retransmissions settle (default 200 ms).
    pub stop_grace: Duration,
}

impl NodeConfig {
    /// A founder node with defaults.
    pub fn founder(
        id: ProcessorId,
        group: GroupId,
        group_addr: McastAddr,
        members: Vec<ProcessorId>,
    ) -> Self {
        NodeConfig {
            id,
            group,
            group_addr,
            protocol: ProtocolConfig::default(),
            role: Role::Founder { members },
            tick: Duration::from_millis(1),
            clock: RuntimeClock::process_start(),
            connection: None,
            stop_grace: Duration::from_millis(200),
        }
    }

    /// A joiner node with defaults.
    pub fn joiner(id: ProcessorId, group: GroupId, group_addr: McastAddr) -> Self {
        NodeConfig {
            role: Role::Joiner,
            ..NodeConfig::founder(id, group, group_addr, Vec::new())
        }
    }
}

/// Control-plane commands accepted by a running node.
pub enum Command {
    /// Multicast an ordered request on a bound connection.
    Publish {
        /// The logical connection.
        conn: ConnectionId,
        /// ORB request number (duplicate-suppression key with `conn`).
        request: RequestNum,
        /// Request body.
        giop: Bytes,
    },
    /// Sponsor `ProcessorId` into the group, retrying until membership
    /// shows it (covers both first joins and post-crash re-adds, where the
    /// add must wait out conviction and reconfiguration of the old
    /// incarnation).
    AddMember(ProcessorId),
    /// Voluntarily remove a member (or self-leave).
    RemoveMember(ProcessorId),
    /// Begin orderly shutdown (drain for `stop_grace`, then exit).
    Stop,
}

/// Final accounting returned by the engine thread.
pub struct RuntimeReport {
    /// Which transport carried the run.
    pub transport: TransportKind,
    /// True when `Auto` selection fell back to TCP.
    pub fell_back: bool,
    /// Ordered deliveries handed to the application.
    pub delivered: u64,
    /// Wire frames written by the transport.
    pub sent_datagrams: u64,
    /// Datagrams received (post-filter).
    pub recv_datagrams: u64,
    /// Publishes rejected by flow control or connect gating.
    pub publish_rejected: u64,
    /// Timer ticks fired.
    pub ticks: u64,
    /// Final membership of the group as this node saw it.
    pub final_members: Vec<ProcessorId>,
    /// Metrics snapshot: the runtime layer's `runtime_*` names and the
    /// engine's own view ([`Processor::register_metrics`]).
    pub metrics: ftmp_telemetry::Snapshot,
    /// The finished trace file, when tracing was on.
    pub trace_path: Option<PathBuf>,
}

/// A node's ordered deliveries, as they happen.
pub type Deliveries = Receiver<(SimTime, Delivery)>;
/// A node's protocol events (membership changes, fault reports, ...).
pub type Events = Receiver<(SimTime, ProtocolEvent)>;

/// Handle to a spawned node.
pub struct RuntimeHandle {
    inbox: Sender<Inbox>,
    /// Ordered deliveries, as they happen.
    pub deliveries: Deliveries,
    /// Protocol events (membership changes, fault reports, ...).
    pub events: Events,
    thread: JoinHandle<RuntimeReport>,
}

impl RuntimeHandle {
    /// Send a control command. Ignores send failure after the node exited.
    pub fn command(&self, cmd: Command) {
        let _ = self.inbox.send(Inbox::Command(cmd));
    }

    /// Multicast an ordered request.
    pub fn publish(&self, conn: ConnectionId, request: RequestNum, giop: Bytes) {
        self.command(Command::Publish {
            conn,
            request,
            giop,
        });
    }

    /// Stop the node and collect its report.
    pub fn stop(self) -> RuntimeReport {
        self.command(Command::Stop);
        self.join()
    }

    /// Wait for the node to exit on its own (after a prior `Stop`).
    pub fn join(self) -> RuntimeReport {
        self.thread.join().expect("runtime node thread panicked")
    }
}

/// Everything a node needs beyond its config.
pub struct NodeParts {
    /// The opened transport (from [`crate::transport::open_transport`]).
    pub transport: Selected,
    /// Consumer half of the transport's receive queue.
    pub rx: RxReceiver,
    /// Optional durable delivery log (ftmp-store) for crash-restart.
    pub dlog: Option<Box<dyn DeliveryLog>>,
    /// Optional observation trace recorder.
    pub trace: Option<TraceWriter>,
}

/// Spawn the engine thread for one node.
pub fn spawn(cfg: NodeConfig, parts: NodeParts) -> RuntimeHandle {
    let inbox = parts.rx.command_sender();
    let (node, deliveries, events) = Node::new(cfg.clock.now(), &cfg, parts.dlog, parts.trace);
    let (transport, rx) = (parts.transport, parts.rx);
    let thread = std::thread::Builder::new()
        .name(format!("ftmp-node-P{}", cfg.id.0))
        .spawn(move || run_node(node, &cfg, transport, &rx))
        .expect("spawn runtime node");
    RuntimeHandle {
        inbox,
        deliveries,
        events,
        thread,
    }
}

/// How often a pending AddMember is retried while the target is absent.
const ADD_RETRY: SimDuration = SimDuration::from_millis(200);

/// The protocol timestamp carried by an observation, if it has one.
///
/// Used as a hybrid-logical floor on recorded trace times: protocol
/// timestamps are cluster-coherent (Lamport-bumped on every receive), so
/// flooring a member's recorded `at` by every timestamp it has observed
/// bounds cross-process trace skew at one message latency even when the
/// members' wall clocks disagree.
fn obs_ts(obs: &Observation) -> Option<u64> {
    match obs {
        Observation::Delivered { ts, .. }
        | Observation::ViewInstalled { ts, .. }
        | Observation::Sent { ts, .. }
        | Observation::Acked { ts, .. }
        | Observation::Retained { ts, .. } => Some(ts.0),
        Observation::Reclaimed { stable_ts, .. } => Some(stable_ts.0),
        _ => None,
    }
}

/// One runtime node without its thread: the engine behind a [`Driver`],
/// the application's channels, the trace recorder and the counters. Every
/// input arrives through [`Node::turn`], time included, so a `Node` is as
/// deterministic as the `Processor` inside it.
pub struct Node {
    driver: Driver,
    io: Io,
}

/// Everything of a [`Node`] but its engine: the [`Host`] of its turns.
struct Io {
    group: GroupId,
    deliveries: Sender<(SimTime, Delivery)>,
    events: Sender<(SimTime, ProtocolEvent)>,
    trace: Option<TraceWriter>,
    /// The hybrid-logical floor (see [`obs_ts`]).
    ts_floor: u64,
    /// The turn's sends, handed to the transport in one batch.
    outbox: Vec<(McastAddr, Bytes)>,
    /// Members being sponsored in, with the time of the last attempt.
    pending_adds: Vec<(ProcessorId, SimTime)>,
    /// A [`Command::Stop`] has been taken in.
    stopping: bool,
    delivered: u64,
    publish_rejected: u64,
    writes: u64,
    turns: u64,
    ticks: u64,
    /// The two histograms; the counts above join them in the report.
    reg: Registry,
    turn_datagrams: HistId,
    timer_lag: HistId,
}

impl Io {
    /// Never stamp anything earlier than a protocol timestamp this member
    /// has seen.
    fn stamp(&self, now: SimTime) -> SimTime {
        SimTime(now.0.max(self.ts_floor))
    }
}

impl<'t> Host<dyn Transport + 't> for Io {
    fn send(&mut self, _: &mut (dyn Transport + 't), addr: McastAddr, payload: Bytes) {
        self.outbox.push((addr, payload));
    }
    // A subscription change takes effect between the sends around it, as it
    // would one action at a time.
    fn join(&mut self, transport: &mut (dyn Transport + 't), addr: McastAddr) {
        self.flush(transport);
        transport.join(addr);
    }
    fn leave(&mut self, transport: &mut (dyn Transport + 't), addr: McastAddr) {
        self.flush(transport);
        transport.leave(addr);
    }
    /// Hand the turn's sends so far to the transport.
    fn flush(&mut self, transport: &mut (dyn Transport + 't)) {
        if !self.outbox.is_empty() {
            self.writes += transport.send_batch(&self.outbox);
            self.outbox.clear();
        }
    }
    fn deliver(&mut self, now: SimTime, d: Delivery) {
        self.delivered += 1;
        let _ = self.deliveries.send((self.stamp(now), d));
    }
    fn event(&mut self, now: SimTime, e: ProtocolEvent) {
        let _ = self.events.send((self.stamp(now), e));
    }
    fn observe(&mut self, now: SimTime, obs: Observation) {
        if let Some(ts) = obs_ts(&obs) {
            self.ts_floor = self.ts_floor.max(ts);
        }
        let at = self.stamp(now);
        if let Some(tr) = self.trace.as_mut() {
            let _ = tr.record(at, &obs);
        }
    }
}

impl Node {
    /// Build the node `cfg` describes at time `now`, with the channels its
    /// ordered deliveries and protocol events come out of. What founding
    /// the group queued (its subscription above all) leaves with the first
    /// [`turn`](Node::turn). Of `cfg`, `tick`, `clock` and `stop_grace` are
    /// the thread's and go unread here.
    pub fn new(
        now: SimTime,
        cfg: &NodeConfig,
        dlog: Option<Box<dyn DeliveryLog>>,
        trace: Option<TraceWriter>,
    ) -> (Node, Deliveries, Events) {
        // The engine runs a synchronized clock: message timestamps are
        // floored at real (epoch-anchored) time, so cross-process trace
        // merge order approximates true order.
        let clock = ClockMode::Synchronized { skew_us: 0 };
        let mut engine = Processor::new(cfg.id, cfg.protocol.clone(), clock);
        if let Some(log) = dlog {
            engine.set_delivery_log(log);
        }
        if trace.is_some() {
            engine.enable_observations();
        }
        match &cfg.role {
            Role::Founder { members } => {
                engine.create_group(now, cfg.group, cfg.group_addr, members.iter().copied());
            }
            Role::Joiner => engine.expect_join(cfg.group, cfg.group_addr),
        }
        if let Some((conn, group)) = cfg.connection {
            engine.bind_connection(conn, group);
        }
        let (deliveries, dlv_rx) = unbounded();
        let (events, evt_rx) = unbounded();
        let mut reg = Registry::new();
        let io = Io {
            group: cfg.group,
            deliveries,
            events,
            trace,
            ts_floor: 0,
            outbox: Vec::with_capacity(64),
            pending_adds: Vec::new(),
            stopping: false,
            delivered: 0,
            publish_rejected: 0,
            writes: 0,
            turns: 0,
            ticks: 0,
            turn_datagrams: reg.histogram("runtime_turn_datagrams"),
            timer_lag: reg.histogram("runtime_timer_lag_us"),
            reg,
        };
        let driver = Driver::new(engine);
        (Node { driver, io }, dlv_rx, evt_rx)
    }

    /// The engine, for inspection.
    pub fn engine(&self) -> &Processor {
        &self.driver.engine
    }

    /// One turn at `now`: feed the engine everything in `intake` (left
    /// empty), retry overdue sponsored adds and tick if `tick_due`, then
    /// carry out what the engine asked for — every send of the turn in one
    /// [`Transport::send_batch`], except that a subscription change splits
    /// the batch where it occurred.
    pub fn turn(
        &mut self,
        now: SimTime,
        tick_due: bool,
        intake: &mut Vec<Inbox>,
        transport: &mut dyn Transport,
    ) {
        let (id, group) = (self.driver.engine.id().0, self.io.group);
        let mut datagrams = 0u64;
        let io = &mut self.io;
        self.driver
            .turn(now, tick_due, io, transport, |engine, io| {
                for entry in intake.drain(..) {
                    match entry {
                        Inbox::Datagrams(batch) => {
                            datagrams += batch.len() as u64;
                            for d in batch {
                                engine.handle_packet(now, &Packet::new(id, d.addr, d.payload));
                            }
                        }
                        Inbox::Command(cmd) => match cmd {
                            Command::Publish {
                                conn,
                                request,
                                giop,
                            } => {
                                let sent = engine.multicast_request(now, conn, request, giop);
                                io.publish_rejected += u64::from(sent.is_err());
                            }
                            Command::AddMember(p) => {
                                engine.add_processor(now, group, p);
                                io.pending_adds.push((p, now));
                            }
                            Command::RemoveMember(p) => engine.remove_processor(now, group, p),
                            Command::Stop => io.stopping = true,
                        },
                    }
                }
                if tick_due {
                    io.pending_adds.retain_mut(|(member, last_try)| {
                        if engine.membership(group).is_some_and(|m| m.contains(member)) {
                            return false;
                        }
                        if now.saturating_since(*last_try) >= ADD_RETRY
                            && !engine.is_reconfiguring(group)
                        {
                            engine.add_processor(now, group, *member);
                            *last_try = now;
                        }
                        true
                    });
                }
            });
        io.turns += 1;
        io.ticks += u64::from(tick_due);
        io.reg.record(io.turn_datagrams, datagrams);
    }

    /// Close the trace with its clean-shutdown marker; its path, if tracing
    /// was on and the marker reached the disk.
    pub fn finish_trace(&mut self, now: SimTime) -> Option<PathBuf> {
        let at = self.io.stamp(now);
        self.io.trace.take().and_then(|t| t.finish(at).ok())
    }
}

/// The thread around a [`Node`]: park on the inbox until the next tick or
/// the end of the stop grace, then run one turn on what arrived.
fn run_node(
    mut node: Node,
    cfg: &NodeConfig,
    selected: Selected,
    rx: &RxReceiver,
) -> RuntimeReport {
    let mut transport = selected.transport;
    let (clock, tick) = (&cfg.clock, cfg.tick);
    let mut intake: Vec<Inbox> = Vec::with_capacity(64);
    // What founding the group queued (its subscription above all) takes
    // effect now, not at the first wake-up.
    node.turn(clock.now(), false, &mut intake, transport.as_mut());
    let mut depth_peak = 0u64;
    let mut stop_at: Option<Instant> = None;
    let mut next_tick = Instant::now() + tick;
    loop {
        let wake = stop_at.map_or(next_tick, |at| at.min(next_tick));
        let wait = wake.saturating_duration_since(Instant::now());
        let Ok(datagrams) = rx.take_turn(wait, &mut intake) else {
            break;
        };
        depth_peak = depth_peak.max(datagrams + rx.depth());

        let now_i = Instant::now();
        let tick_due = now_i >= next_tick;
        if tick_due {
            let lag = now_i.saturating_duration_since(next_tick);
            node.io
                .reg
                .record(node.io.timer_lag, lag.as_micros() as u64);
            next_tick += tick;
            if now_i > next_tick + tick * 50 {
                // Way behind (debugger pause, CPU stall): resynchronize
                // rather than firing a catch-up burst.
                next_tick = now_i + tick;
            }
        }
        node.turn(clock.now(), tick_due, &mut intake, transport.as_mut());

        if node.io.stopping && now_i >= *stop_at.get_or_insert(now_i + cfg.stop_grace) {
            break;
        }
    }

    let now = clock.now();
    node.turn(now, false, &mut intake, transport.as_mut());
    transport.shutdown();
    let trace_path = node.finish_trace(now);
    let mut io = node.io;
    let (sent, received) = (transport.sent(), rx.received());
    for (name, count) in [
        ("runtime_socket_recv_datagrams", received),
        ("runtime_socket_sent_datagrams", sent),
        ("runtime_socket_writes", io.writes),
        ("runtime_engine_turns", io.turns),
        (
            "runtime_tcp_fallback_activations",
            u64::from(selected.fell_back),
        ),
        ("runtime_ticks", io.ticks),
        ("runtime_deliveries", io.delivered),
    ] {
        let id = io.reg.counter(name);
        io.reg.inc(id, count);
    }
    // The deepest backlog any turn found waiting, its own intake included.
    let depth = io.reg.gauge("runtime_recv_queue_depth");
    io.reg.set(depth, depth_peak as i64);
    // Beside the runtime's own names, what the engine saw: NACKs,
    // retransmissions, convictions, deliveries.
    node.driver.engine.register_metrics(&mut io.reg);
    RuntimeReport {
        transport: selected.kind,
        fell_back: selected.fell_back,
        delivered: io.delivered,
        sent_datagrams: sent,
        recv_datagrams: received,
        publish_rejected: io.publish_rejected,
        ticks: io.ticks,
        final_members: node.driver.engine.membership(cfg.group).unwrap_or_default(),
        metrics: io.reg.snapshot(),
        trace_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_core::ids::ObjectGroupId;
    use ftmp_core::OverlayPolicy;

    const GROUP: GroupId = GroupId(1);
    const GROUP_ADDR: McastAddr = McastAddr(700);

    #[derive(Debug, PartialEq)]
    enum Call {
        Join(McastAddr),
        Leave(McastAddr),
        Batch(Vec<McastAddr>),
    }

    /// A transport that only writes down what it was asked to do.
    #[derive(Default)]
    struct Tape(Vec<Call>);

    impl Transport for Tape {
        fn kind(&self) -> TransportKind {
            TransportKind::TcpMesh
        }
        fn send(&mut self, dst: McastAddr, _payload: &[u8]) {
            self.0.push(Call::Batch(vec![dst]));
        }
        fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) -> u64 {
            self.0
                .push(Call::Batch(frames.iter().map(|f| f.0).collect()));
            1
        }
        fn join(&mut self, addr: McastAddr) {
            self.0.push(Call::Join(addr));
        }
        fn leave(&mut self, addr: McastAddr) {
            self.0.push(Call::Leave(addr));
        }
        fn sent(&self) -> u64 {
            0
        }
        fn shutdown(&mut self) {}
    }

    /// In tree mode the first tick subscribes to the overlay neighbours
    /// between what the turn's intake sent (a publish) and what the tick
    /// then sends (the retry of a sponsored add): each side of a
    /// subscription change is its own batch, in order.
    #[test]
    fn a_subscription_change_splits_the_turns_batch_where_it_occurred() {
        let conn = ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20));
        let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
        let mut cfg = NodeConfig::founder(ProcessorId(1), GROUP, GROUP_ADDR, members);
        cfg.protocol = ProtocolConfig::with_seed(3).overlay(OverlayPolicy::Tree { arity: 2 });
        cfg.connection = Some((conn, GROUP));
        let (mut node, _deliveries, _events) = Node::new(SimTime::ZERO, &cfg, None, None);

        let mut tape = Tape::default();
        let mut intake = vec![Inbox::Command(Command::AddMember(ProcessorId(9)))];
        node.turn(SimTime(1_000), false, &mut intake, &mut tape);
        assert_eq!(
            tape.0,
            [Call::Join(GROUP_ADDR), Call::Batch(vec![GROUP_ADDR])],
            "founding comes first, then the add"
        );

        tape.0.clear();
        intake.push(Inbox::Command(Command::Publish {
            conn,
            request: RequestNum(1),
            giop: Bytes::from_static(b"before"),
        }));
        node.turn(SimTime(30_000), true, &mut intake, &mut tape);
        assert!(intake.is_empty());
        let calls = tape.0;
        assert_eq!(calls[0], Call::Batch(vec![GROUP_ADDR]), "the publish");
        let (last, joins) = calls[1..].split_last().expect("more than the publish");
        assert!(
            !joins.is_empty() && joins.iter().all(|c| matches!(c, Call::Join(_))),
            "the tick's neighbourhood subscriptions, nothing sent among them: {calls:?}"
        );
        assert_eq!(
            *last,
            Call::Batch(vec![GROUP_ADDR]),
            "what the tick sent leaves after them"
        );
        assert_eq!((node.io.writes, node.io.turns, node.io.ticks), (3, 2, 1));
    }

    /// The retry of a sponsored add is timed on the clock the node is
    /// handed, not on the machine's.
    #[test]
    fn a_pending_add_is_retried_on_the_time_it_is_handed() {
        let members = vec![ProcessorId(1), ProcessorId(2)];
        let cfg = NodeConfig::founder(ProcessorId(1), GROUP, GROUP_ADDR, members);
        let (mut node, _deliveries, _events) = Node::new(SimTime::ZERO, &cfg, None, None);
        let mut tape = Tape::default();
        let mut intake = vec![Inbox::Command(Command::AddMember(ProcessorId(9)))];
        node.turn(SimTime(1_000), false, &mut intake, &mut tape);
        let adds = |node: &Node| {
            node.engine()
                .stats()
                .sent_of(ftmp_core::FtmpMsgType::AddProcessor)
        };
        assert_eq!(adds(&node), 1);
        node.turn(SimTime(150_000), true, &mut intake, &mut tape);
        assert_eq!(node.io.pending_adds, [(ProcessorId(9), SimTime(1_000))]);
        node.turn(SimTime(201_000), true, &mut intake, &mut tape);
        assert_eq!(node.io.pending_adds, [(ProcessorId(9), SimTime(201_000))]);
    }
}
