//! The runtime's node: the engine's one host, [`ftmp_core::Node`], worked
//! in **turns** by a thread that parks on its sockets, reads them, reads
//! the clocks and decides when a tick is due.
//!
//! Thread model per node (DESIGN.md §14): one **engine thread**, plus the
//! TCP mesh's dialling thread, which only fills empty outbound slots. The
//! engine thread owns the node's sockets through the inbox
//! ([`RxReceiver`]): it parks in one `ppoll` on them and on the inbox's
//! self-pipe until the next tick is due, reads each ready socket once into
//! the node's intake, takes the commands the node's handle posted (up to a
//! bound) and runs a turn. A publish or a `Stop` rings the pipe only when
//! the engine has announced that it parks, so anything that gives the
//! engine work wakes it at once, and a busy engine costs its callers no
//! syscall.
//!
//! The node's feed and its batching are core's; this module
//! supplies what needs a thread or a socket. [`NodeConfig::build`] builds
//! the engine with a synchronized clock and hands the node an [`Io`] host:
//! the application's channels, the trace recorder and the hybrid-logical
//! floor on what they are stamped with. The transport is a turn's link, so
//! every send of a turn leaves in one [`Transport::send_batch`], which on
//! the TCP mesh is one `write` per peer. Time is a parameter, so the same
//! `Node` runs under the simulator's virtual clock too
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
use ftmp_core::{ClockMode, Host, Link, Processor, SendError, SendOutcome};
use ftmp_net::{McastAddr, SimTime};
use ftmp_store::trace::TraceWriter;
use ftmp_telemetry::Registry;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use std::vec::Drain;

use crate::transport::{Commands, RxReceiver, Selected, Transport, TransportKind};

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

pub use ftmp_core::node::Command;

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
    /// The finished trace log's directory, when tracing was on.
    pub trace_path: Option<PathBuf>,
}

/// A node's ordered deliveries, as they happen.
pub type Deliveries = Receiver<(SimTime, Delivery)>;
/// A node's protocol events (membership changes, fault reports, ...).
pub type Events = Receiver<(SimTime, ProtocolEvent)>;

/// Handle to a spawned node.
pub struct RuntimeHandle {
    commands: Commands,
    /// Ordered deliveries, as they happen.
    pub deliveries: Deliveries,
    /// Protocol events (membership changes, fault reports, ...).
    pub events: Events,
    thread: JoinHandle<RuntimeReport>,
}

impl RuntimeHandle {
    /// Send a control command. After the node exited it is dropped unread.
    pub fn command(&self, cmd: Command) {
        self.commands.send(cmd);
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
    /// The inbox the transport was opened on, through which the engine
    /// thread reads its sockets.
    pub rx: RxReceiver,
    /// Optional durable delivery log (ftmp-store) for crash-restart.
    pub dlog: Option<Box<dyn DeliveryLog>>,
    /// Optional observation trace recorder.
    pub trace: Option<TraceWriter>,
}

/// Spawn the engine thread for one node.
pub fn spawn(cfg: NodeConfig, parts: NodeParts) -> RuntimeHandle {
    let commands = parts.rx.command_sender();
    let (node, deliveries, events) = cfg.build(cfg.clock.now(), parts.dlog, parts.trace);
    let (transport, rx) = (parts.transport, parts.rx);
    let thread = std::thread::Builder::new()
        .name(format!("ftmp-node-P{}", cfg.id.0))
        .spawn(move || run_node(node, &cfg, transport, &rx))
        .expect("spawn runtime node");
    RuntimeHandle {
        commands,
        deliveries,
        events,
        thread,
    }
}

/// The protocol timestamp carried by an observation, 0 if it has none.
///
/// Used as a hybrid-logical floor on recorded trace times: protocol
/// timestamps are cluster-coherent (Lamport-bumped on every receive), so
/// flooring a member's recorded `at` by every timestamp it has observed
/// bounds cross-process trace skew at one message latency even when the
/// members' wall clocks disagree.
fn obs_ts(obs: &Observation) -> u64 {
    match obs {
        Observation::Delivered { ts, .. }
        | Observation::ViewInstalled { ts, .. }
        | Observation::Sent { ts, .. }
        | Observation::Acked { ts, .. }
        | Observation::Retained { ts, .. } => ts.0,
        Observation::Reclaimed { stable_ts, .. } => stable_ts.0,
        _ => 0,
    }
}

/// A runtime node without its thread: the engine's [`ftmp_core::Node`] with
/// the runtime's [`Io`] as its host. Every input arrives through its turn,
/// time included, so it is as deterministic as the `Processor` inside it.
pub type Node = ftmp_core::Node<Io>;

/// Where a runtime node's upcalls go: the application's channels and the
/// trace recorder, each stamped no earlier than the hybrid-logical floor.
pub struct Io {
    deliveries: Sender<(SimTime, Delivery)>,
    events: Sender<(SimTime, ProtocolEvent)>,
    trace: Option<TraceWriter>,
    /// The hybrid-logical floor (see [`obs_ts`]).
    ts_floor: u64,
    delivered: u64,
    publish_rejected: u64,
}

impl Io {
    /// Never stamp anything earlier than a protocol timestamp this member
    /// has seen.
    fn stamp(&self, now: SimTime) -> SimTime {
        SimTime(now.0.max(self.ts_floor))
    }

    /// Close the trace with its clean-shutdown marker; its path, if tracing
    /// was on and the marker reached the disk.
    pub fn finish_trace(&mut self, now: SimTime) -> Option<PathBuf> {
        let at = self.stamp(now);
        self.trace.take().and_then(|t| t.finish(at.0).ok())
    }
}

impl Host for Io {
    fn deliver(&mut self, now: SimTime, d: Delivery) {
        self.delivered += 1;
        let _ = self.deliveries.send((self.stamp(now), d));
    }
    fn event(&mut self, now: SimTime, e: ProtocolEvent) {
        let _ = self.events.send((self.stamp(now), e));
    }
    fn observe(&mut self, now: SimTime, observations: Drain<'_, Observation>) {
        if let Some(tr) = self.trace.as_mut() {
            for obs in observations {
                self.ts_floor = self.ts_floor.max(obs_ts(&obs));
                let _ = tr.record(now.0.max(self.ts_floor), &obs);
            }
            // The turn's one `write`.
            let _ = tr.flush();
        }
    }
    fn published(&mut self, _request: RequestNum, outcome: Result<SendOutcome, SendError>) {
        self.publish_rejected += u64::from(outcome.is_err());
    }
}

impl NodeConfig {
    /// Build the node this config describes at time `now`, with the
    /// channels its ordered deliveries and protocol events come out of.
    /// What founding the group queued (its subscription above all) leaves
    /// with the first turn. `tick`, `clock` and `stop_grace` are the
    /// thread's and go unread here.
    pub fn build(
        &self,
        now: SimTime,
        dlog: Option<Box<dyn DeliveryLog>>,
        trace: Option<TraceWriter>,
    ) -> (Node, Deliveries, Events) {
        // The engine runs a synchronized clock: message timestamps are
        // floored at real (epoch-anchored) time, so cross-process trace
        // merge order approximates true order.
        let clock = ClockMode::Synchronized { skew_us: 0 };
        let mut engine = Processor::new(self.id, self.protocol.clone(), clock);
        if let Some(log) = dlog {
            engine.set_delivery_log(log);
        }
        if trace.is_some() {
            engine.enable_observations();
        }
        match &self.role {
            Role::Founder { members } => {
                engine.create_group(now, self.group, self.group_addr, members.iter().copied());
            }
            Role::Joiner => engine.expect_join(self.group, self.group_addr),
        }
        if let Some((conn, group)) = self.connection {
            engine.bind_connection(conn, group);
        }
        let (deliveries, dlv_rx) = unbounded();
        let (events, evt_rx) = unbounded();
        let io = Io {
            deliveries,
            events,
            trace,
            ts_floor: 0,
            delivered: 0,
            publish_rejected: 0,
        };
        (Node::new(engine, self.group, io), dlv_rx, evt_rx)
    }
}

/// The transport as a turn's [`Link`], counting the socket writes it issues.
struct Wire<'a> {
    transport: &'a mut dyn Transport,
    writes: &'a mut u64,
}

impl Link for Wire<'_> {
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) {
        *self.writes += self.transport.send_batch(frames);
    }
    fn join(&mut self, addr: McastAddr) {
        self.transport.join(addr);
    }
    fn leave(&mut self, addr: McastAddr) {
        self.transport.leave(addr);
    }
}

/// The thread around a [`Node`]: park on the inbox until the next tick or
/// the end of the stop grace, then run one turn on what it read.
fn run_node(
    mut node: Node,
    cfg: &NodeConfig,
    selected: Selected,
    rx: &RxReceiver,
) -> RuntimeReport {
    let mut transport = selected.transport;
    let (clock, tick) = (&cfg.clock, cfg.tick);
    let mut reg = Registry::new();
    let turn_datagrams = reg.histogram("runtime_turn_datagrams");
    let timer_lag = reg.histogram("runtime_timer_lag_us");
    let (mut writes, mut turns, mut ticks) = (0u64, 0u64, 0u64);
    // One turn at the clock's time on the `datagrams` its intake holds;
    // `lag` is the scheduling lag of a tick that is due.
    let mut turn = |node: &mut Node, datagrams: u64, lag: Option<Duration>| {
        if let Some(lag) = lag {
            reg.record(timer_lag, lag.as_micros() as u64);
        }
        let mut wire = Wire {
            transport: transport.as_mut(),
            writes: &mut writes,
        };
        node.turn(clock.now(), lag.is_some(), &mut wire);
        reg.record(turn_datagrams, datagrams);
        turns += 1;
        ticks += u64::from(lag.is_some());
    };
    // What founding the group queued (its subscription above all) takes
    // effect now, not at the first wake-up.
    turn(&mut node, 0, None);
    let mut depth_peak = 0u64;
    let mut stop_at: Option<Instant> = None;
    let mut next_tick = Instant::now() + tick;
    loop {
        let wake = stop_at.map_or(next_tick, |at| at.min(next_tick));
        let wait = wake.saturating_duration_since(Instant::now());
        let datagrams = rx.take_turn(wait, &mut node.intake);
        depth_peak = depth_peak.max(datagrams);

        let now_i = Instant::now();
        let lag = (now_i >= next_tick).then(|| now_i.saturating_duration_since(next_tick));
        if lag.is_some() {
            next_tick += tick;
            if now_i > next_tick + tick * 50 {
                // Way behind (debugger pause, CPU stall): resynchronize
                // rather than firing a catch-up burst.
                next_tick = now_i + tick;
            }
        }
        turn(&mut node, datagrams, lag);

        if node.stopping() && now_i >= *stop_at.get_or_insert(now_i + cfg.stop_grace) {
            break;
        }
    }

    turn(&mut node, 0, None);
    transport.shutdown();
    let trace_path = node.host.finish_trace(clock.now());
    let io = &node.host;
    let (sent, received) = (transport.sent(), rx.received());
    for (name, count) in [
        ("runtime_socket_recv_datagrams", received),
        ("runtime_socket_sent_datagrams", sent),
        ("runtime_socket_writes", writes),
        ("runtime_engine_turns", turns),
        (
            "runtime_tcp_fallback_activations",
            u64::from(selected.fell_back),
        ),
        ("runtime_ticks", ticks),
        ("runtime_deliveries", io.delivered),
    ] {
        let id = reg.counter(name);
        reg.inc(id, count);
    }
    // The most datagrams any turn took in.
    let depth = reg.gauge("runtime_recv_queue_depth");
    reg.set(depth, depth_peak as i64);
    // Beside the runtime's own names, what the engine saw: NACKs,
    // retransmissions, convictions, deliveries.
    node.engine().register_metrics(&mut reg);
    RuntimeReport {
        transport: selected.kind,
        fell_back: selected.fell_back,
        delivered: io.delivered,
        sent_datagrams: sent,
        recv_datagrams: received,
        publish_rejected: io.publish_rejected,
        ticks,
        final_members: node.engine().membership(cfg.group).unwrap_or_default(),
        metrics: reg.snapshot(),
        trace_path,
    }
}
