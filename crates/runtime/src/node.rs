//! The runtime event loop: one thread owning one `Processor`, fed by a
//! real transport, working in **turns**.
//!
//! Thread model per node (DESIGN.md §14): the transport owns its reader
//! thread(s), which parse frames, filter by subscription and push what each
//! socket read completed into the inbox as one entry; the node's handle
//! pushes [`Command`]s into the same queue. This module's **engine thread**
//! owns the `Processor` and parks on that one queue until the next tick is
//! due, so anything that gives it work — a datagram, a publish, a `Stop` —
//! wakes it at once. A turn takes what the inbox holds (up to a bound),
//! feeds datagrams and commands to the engine under one
//! `begin_batch`/`end_batch` window so the Packer coalesces everything the
//! turn sends, ticks if the tick is due, and pumps once: every
//! `Action::Send` of the turn goes to the transport in one
//! [`Transport::send_batch`], which
//! on the TCP mesh is one `write` per peer. Ticks fire on a fixed cadence
//! (default 1 ms of real time = the simulator's tick quantum) and their
//! scheduling lag is recorded in the `runtime_timer_lag_us` histogram;
//! `runtime_engine_turns`, `runtime_turn_datagrams` and
//! `runtime_socket_writes` say how much each wake-up and each write carried.
//!
//! Time: the engine feeds the `Processor` `SimTime` values derived from a
//! monotonic clock, optionally anchored to a cluster-wide epoch
//! ([`RuntimeClock::with_unix_epoch`]) so trace timestamps from different
//! OS processes merge into one approximate global order. Oracle soundness
//! needs only per-node event order, which is exact by construction.

use crossbeam::channel::{unbounded, Receiver, Sender};

use bytes::Bytes;
use ftmp_core::actions::{Action, Delivery, ProtocolEvent};
use ftmp_core::config::ProtocolConfig;
use ftmp_core::durable::DeliveryLog;
use ftmp_core::ids::{ConnectionId, GroupId, ProcessorId, RequestNum};
use ftmp_core::observe::Observation;
use ftmp_core::{ClockMode, Processor};
use ftmp_net::{McastAddr, Packet, SimTime};
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
    /// Incarnation number (0 fresh, bumped on crash-restart); recorded in
    /// the trace header so replay can retire/rejoin across restarts.
    pub incarnation: u32,
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
            incarnation: 0,
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
    /// Runtime-layer metrics snapshot.
    pub metrics: ftmp_telemetry::Snapshot,
    /// The finished trace file, when tracing was on.
    pub trace_path: Option<PathBuf>,
}

/// Handle to a spawned node.
pub struct RuntimeHandle {
    inbox: Sender<Inbox>,
    /// Ordered deliveries, as they happen.
    pub deliveries: Receiver<(SimTime, Delivery)>,
    /// Protocol events (membership changes, fault reports, ...).
    pub events: Receiver<(SimTime, ProtocolEvent)>,
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
    let (dlv_tx, dlv_rx) = unbounded();
    let (evt_tx, evt_rx) = unbounded();
    let name = format!("ftmp-node-P{}", cfg.id.0);
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || run_node(cfg, parts, dlv_tx, evt_tx))
        .expect("spawn runtime node");
    RuntimeHandle {
        inbox,
        deliveries: dlv_rx,
        events: evt_rx,
        thread,
    }
}

/// How often a pending AddMember is retried while the target is absent.
const ADD_RETRY: Duration = Duration::from_millis(200);

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

struct Counters {
    reg: ftmp_telemetry::Registry,
    recv: ftmp_telemetry::CounterId,
    sent: ftmp_telemetry::CounterId,
    writes: ftmp_telemetry::CounterId,
    turns: ftmp_telemetry::CounterId,
    turn_datagrams: ftmp_telemetry::HistId,
    depth: ftmp_telemetry::GaugeId,
    lag: ftmp_telemetry::HistId,
    fallback: ftmp_telemetry::CounterId,
    ticks: ftmp_telemetry::CounterId,
    deliveries: ftmp_telemetry::CounterId,
}

impl Counters {
    fn new() -> Self {
        let mut reg = ftmp_telemetry::Registry::new();
        let recv = reg.counter("runtime_socket_recv_datagrams");
        let sent = reg.counter("runtime_socket_sent_datagrams");
        let writes = reg.counter("runtime_socket_writes");
        let turns = reg.counter("runtime_engine_turns");
        let turn_datagrams = reg.histogram("runtime_turn_datagrams");
        let depth = reg.gauge("runtime_recv_queue_depth");
        let lag = reg.histogram("runtime_timer_lag_us");
        let fallback = reg.counter("runtime_tcp_fallback_activations");
        let ticks = reg.counter("runtime_ticks");
        let deliveries = reg.counter("runtime_deliveries");
        Counters {
            reg,
            recv,
            sent,
            writes,
            turns,
            turn_datagrams,
            depth,
            lag,
            fallback,
            ticks,
            deliveries,
        }
    }
}

/// Hand the turn's sends so far to the transport; returns its socket writes.
fn flush(transport: &mut dyn Transport, outbox: &mut Vec<(McastAddr, Bytes)>) -> u64 {
    if outbox.is_empty() {
        return 0;
    }
    let writes = transport.send_batch(outbox);
    outbox.clear();
    writes
}

#[allow(clippy::too_many_lines)]
fn run_node(
    cfg: NodeConfig,
    parts: NodeParts,
    dlv_tx: Sender<(SimTime, Delivery)>,
    evt_tx: Sender<(SimTime, ProtocolEvent)>,
) -> RuntimeReport {
    let NodeParts {
        transport,
        rx,
        dlog,
        mut trace,
    } = parts;
    let Selected {
        mut transport,
        kind,
        fell_back,
    } = transport;
    let mut ctr = Counters::new();
    if fell_back {
        ctr.reg.inc(ctr.fallback, 1);
    }

    // The engine runs a synchronized clock: message timestamps are floored
    // at real (epoch-anchored) time, so cross-process trace merge order
    // approximates true order.
    let mut engine = Processor::new(cfg.id, cfg.protocol, ClockMode::Synchronized { skew_us: 0 });
    if let Some(log) = dlog {
        engine.set_delivery_log(log);
    }
    if trace.is_some() {
        engine.enable_observations();
    }
    let now0 = cfg.clock.now();
    match cfg.role {
        Role::Founder { members } => {
            engine.create_group(now0, cfg.group, cfg.group_addr, members);
        }
        Role::Joiner => engine.expect_join(cfg.group, cfg.group_addr),
    }
    if let Some((conn, group)) = cfg.connection {
        engine.bind_connection(conn, group);
    }

    let mut intake: Vec<Inbox> = Vec::with_capacity(64);
    let mut actions: Vec<Action> = Vec::with_capacity(256);
    let mut outbox: Vec<(McastAddr, Bytes)> = Vec::with_capacity(64);
    let mut observations: Vec<Observation> = Vec::with_capacity(256);
    let mut delivered = 0u64;
    let mut publish_rejected = 0u64;
    let mut ticks = 0u64;
    let mut writes = 0u64;
    let mut depth_peak = 0u64;
    let mut pending_adds: Vec<(ProcessorId, Instant)> = Vec::new();
    let mut stop_at: Option<Instant> = None;
    let mut next_tick = Instant::now() + cfg.tick;

    let mut ts_floor = 0u64;
    macro_rules! pump {
        ($now:expr) => {{
            let now = $now;
            engine.drain_actions_into(&mut actions);
            for a in actions.drain(..) {
                match a {
                    Action::Send { addr, payload } => outbox.push((addr, payload)),
                    // A subscription change takes effect between the sends
                    // around it, as it would one action at a time.
                    Action::Join(addr) => {
                        writes += flush(transport.as_mut(), &mut outbox);
                        transport.join(addr);
                    }
                    Action::Leave(addr) => {
                        writes += flush(transport.as_mut(), &mut outbox);
                        transport.leave(addr);
                    }
                    Action::Deliver(d) => {
                        delivered += 1;
                        let _ = dlv_tx.send((SimTime(now.0.max(ts_floor)), d));
                    }
                    Action::Event(e) => {
                        let _ = evt_tx.send((SimTime(now.0.max(ts_floor)), e));
                    }
                    _ => {}
                }
            }
            writes += flush(transport.as_mut(), &mut outbox);
            if let Some(tr) = trace.as_mut() {
                engine.drain_observations_into(&mut observations);
                for obs in observations.drain(..) {
                    // Hybrid-logical stamp: never record an event earlier
                    // than a protocol timestamp this member has seen.
                    if let Some(ts) = obs_ts(&obs) {
                        ts_floor = ts_floor.max(ts);
                    }
                    let _ = tr.record(SimTime(now.0.max(ts_floor)), &obs);
                }
            }
        }};
    }

    // What founding the group queued (its subscription above all) takes
    // effect now, not at the first wake-up.
    pump!(now0);

    loop {
        // Park until the inbox has something, the tick is due or the stop
        // grace has run out.
        let wake = stop_at.map_or(next_tick, |at| at.min(next_tick));
        let wait = wake.saturating_duration_since(Instant::now());
        let Ok(datagrams) = rx.take_turn(wait, &mut intake) else {
            break;
        };
        ctr.reg.inc(ctr.turns, 1);
        ctr.reg.record(ctr.turn_datagrams, datagrams);
        depth_peak = depth_peak.max(datagrams + rx.depth());

        let now = cfg.clock.now();
        engine.begin_batch();
        for entry in intake.drain(..) {
            match entry {
                Inbox::Datagrams(batch) => {
                    for d in batch {
                        engine.handle_packet(now, &Packet::new(cfg.id.0, d.addr, d.payload));
                    }
                }
                Inbox::Command(Command::Publish {
                    conn,
                    request,
                    giop,
                }) => {
                    if engine.multicast_request(now, conn, request, giop).is_err() {
                        publish_rejected += 1;
                    }
                }
                Inbox::Command(Command::AddMember(p)) => {
                    engine.add_processor(now, cfg.group, p);
                    pending_adds.push((p, Instant::now()));
                }
                Inbox::Command(Command::RemoveMember(p)) => {
                    engine.remove_processor(now, cfg.group, p);
                }
                Inbox::Command(Command::Stop) => {
                    stop_at.get_or_insert_with(|| Instant::now() + cfg.stop_grace);
                }
            }
        }
        engine.end_batch(now);

        let now_i = Instant::now();
        if now_i >= next_tick {
            let lag = now_i.saturating_duration_since(next_tick);
            ctr.reg.record(ctr.lag, lag.as_micros() as u64);
            engine.tick(now);
            ticks += 1;
            next_tick += cfg.tick;
            if now_i > next_tick + cfg.tick * 50 {
                // Way behind (debugger pause, CPU stall): resynchronize
                // rather than firing a catch-up burst.
                next_tick = now_i + cfg.tick;
            }

            pending_adds.retain_mut(|(member, last_try)| {
                let present = engine
                    .membership(cfg.group)
                    .is_some_and(|m| m.contains(member));
                if present {
                    return false;
                }
                if last_try.elapsed() >= ADD_RETRY && !engine.is_reconfiguring(cfg.group) {
                    engine.add_processor(now, cfg.group, *member);
                    *last_try = now_i;
                }
                true
            });
        }

        // The turn's one pump: one `send_batch` carries everything the
        // datagrams, the commands and the tick made the engine send.
        pump!(now);

        if stop_at.is_some_and(|at| now_i >= at) {
            break;
        }
    }

    let now = cfg.clock.now();
    pump!(now);
    transport.shutdown();
    ctr.reg.inc(ctr.recv, rx.received());
    ctr.reg.inc(ctr.sent, transport.sent());
    ctr.reg.inc(ctr.writes, writes);
    ctr.reg.inc(ctr.ticks, ticks);
    ctr.reg.inc(ctr.deliveries, delivered);
    // The deepest backlog any turn found waiting, its own intake included.
    ctr.reg.set(ctr.depth, depth_peak as i64);
    let trace_path = trace.and_then(|t| t.finish(SimTime(now.0.max(ts_floor))).ok());
    RuntimeReport {
        transport: kind,
        fell_back,
        delivered,
        sent_datagrams: transport.sent(),
        recv_datagrams: rx.received(),
        publish_rejected,
        ticks,
        final_members: engine.membership(cfg.group).unwrap_or_default(),
        metrics: ctr.reg.snapshot(),
        trace_path,
    }
}
