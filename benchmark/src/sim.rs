//! The five simulator workloads.
//!
//! Three of them (`sim-fanin-64`, `sim-loss-1k`, `sim-paced-64`) and the
//! steady phase of `sim-durable-restart-1k` are one routine with different
//! [`GroupShape`]s; `sim-orb-invoke` has its own closed loop. Nothing below
//! passes a workload's name to the system under test: it receives a
//! `SimConfig`, a `ProtocolConfig` and the generated messages.

use crate::host::{ClientLoop, LogHandle, Probe, TimedLog, TimedNode};
use crate::measure::{
    median, set_counting, set_up, InputRng, LatencyHist, SpeedProbe, Window, SLICES,
};
use crate::replay;
use crate::trace::Kind;
use crate::{Outcome, RunArgs};
use bytes::Bytes;
use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::{
    ClockMode, ConnectionId, GroupId, ObjectGroupId, PackPolicy, Packing, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum,
};
use ftmp_net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime};
use ftmp_orb::OrbEndpoint;
use ftmp_store::{LogRecord, RecoveredState};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Datagrams kept from the traced window for the replay measurements.
const CORPUS_CAP: usize = 20_000;

const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(100);

fn group_conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// Who sends when.
#[derive(Clone, Copy)]
pub enum Pattern {
    /// The sender rotates every virtual millisecond and sends `per_ms`.
    Rotate { per_ms: u64 },
    /// Member 1 alone sends one message every `every_us`.
    Paced { every_us: u64 },
}

#[derive(Clone, Copy)]
pub struct GroupShape {
    pub members: u32,
    pub body_len: usize,
    pub loss: f64,
    pub packing: bool,
    pub pattern: Pattern,
    pub durable: bool,
}

struct GroupWorld {
    net: SimNet<TimedNode>,
    shape: GroupShape,
    probe: Rc<Probe>,
    proto: ProtocolConfig,
    bodies: Vec<Bytes>,
    sends: u64,
    round: u64,
    logs: Vec<(PathBuf, Arc<LogHandle>)>,
}

impl GroupWorld {
    fn build(shape: GroupShape, args: &RunArgs, log_root: &Path) -> GroupWorld {
        let mut sim = SimConfig::with_seed(args.seed);
        if shape.loss > 0.0 {
            sim = sim.loss(LossModel::Iid { p: shape.loss });
        }
        let mut proto = ProtocolConfig::with_seed(args.seed);
        if shape.packing {
            proto = proto.packing(Packing::with(
                1400,
                PackPolicy::Deadline(SimDuration::from_micros(500)),
            ));
        }
        let probe = Probe::new(args.trace);
        let members: Vec<ProcessorId> = (1..=shape.members).map(ProcessorId).collect();
        let mut net = SimNet::new(sim);
        net.set_classifier(ftmp_core::wire::classify);
        net.set_message_counter(ftmp_core::wire::message_count);
        let mut logs = Vec::new();
        if shape.durable {
            // A set-up starts from empty logs, like a first boot.
            let _ = std::fs::remove_dir_all(log_root);
        }
        for id in 1..=shape.members {
            let mut engine = Processor::new(ProcessorId(id), proto.clone(), ClockMode::Lamport);
            engine.create_group(SimTime::ZERO, GROUP, GROUP_ADDR, members.clone());
            engine.bind_connection(group_conn(), GROUP);
            if args.trace {
                engine.enable_telemetry();
            }
            if shape.durable {
                let dir = log_root.join(format!("member-{id}"));
                let (log, handle) = TimedLog::open(&dir, id, Arc::clone(&probe.sink))
                    .expect("open a durable log inside the work directory");
                engine.set_delivery_log(Box::new(log));
                logs.push((dir, handle));
            }
            net.add_node(id, TimedNode::new(engine, Rc::clone(&probe)));
            net.with_node(id, |node, now, out| node.pump(now, out));
        }
        GroupWorld {
            net,
            shape,
            probe,
            proto,
            bodies: InputRng::new(args.seed).bodies(64, shape.body_len),
            sends: 0,
            round: 0,
            logs,
        }
    }

    fn send_from(&mut self, from: u32) -> Option<crate::trace::MsgId> {
        self.sends += 1;
        let req = RequestNum(self.sends);
        let body = self.bodies[(self.sends % self.bodies.len() as u64) as usize].clone();
        self.net
            .with_node(from, move |node, now, out| {
                node.call_send(now, group_conn(), req, body, out)
            })
            .flatten()
    }

    /// Do `ops` sends in the workload's pattern, advancing virtual time.
    fn drive(&mut self, ops: u64) {
        let mut left = ops;
        while left > 0 {
            match self.shape.pattern {
                Pattern::Rotate { per_ms } => {
                    let from = (self.round % u64::from(self.shape.members)) as u32 + 1;
                    for _ in 0..per_ms.min(left) {
                        self.send_from(from);
                    }
                    left -= per_ms.min(left);
                    self.net.run_for(SimDuration::from_millis(1));
                }
                Pattern::Paced { every_us } => {
                    self.send_from(1);
                    left -= 1;
                    self.net.run_for(SimDuration::from_micros(every_us));
                }
            }
            self.round += 1;
        }
    }

    fn delivered_total(&self) -> u64 {
        self.net.nodes().map(|(_, n)| n.tally.delivered).sum()
    }

    /// Run until every live member has delivered `want`, or `limit_ms`.
    fn drain(&mut self, want: u64, limit_ms: u64) {
        for _ in 0..limit_ms / 10 {
            let done = self
                .net
                .alive()
                .iter()
                .all(|&id| self.net.node(id).is_some_and(|n| n.tally.delivered >= want));
            if done {
                return;
            }
            self.net.run_for(SimDuration::from_millis(10));
        }
    }
}

/// Raise `peak` to the most messages and bytes any member now retains.
fn retention_peak(net: &SimNet<TimedNode>, group: GroupId, peak: &mut (usize, usize)) {
    for (_, n) in net.nodes() {
        if let Some(m) = n.proc().group_metrics(group) {
            peak.0 = peak.0.max(m.retention_msgs);
            peak.1 = peak.1.max(m.retention_bytes);
        }
    }
}

fn window_ops(args: &RunArgs) -> (u64, u64) {
    // Whole slices of whole rounds, so every slice does the same work.
    let unit = SLICES * 5;
    let ops = ((args.ops_per_second * args.seconds / unit as f64).round() as u64).max(1) * unit;
    (ops, (ops / 10).div_ceil(5) * 5)
}

/// Start keeping the datagrams the world transmits (traced pass).
fn tap_corpus<N: ftmp_net::SimNode>(net: &mut SimNet<N>) -> Rc<RefCell<Vec<Bytes>>> {
    let corpus = Rc::new(RefCell::new(Vec::with_capacity(CORPUS_CAP)));
    let sink = Rc::clone(&corpus);
    net.set_wire_tap(move |_, _, _, payload| {
        let mut c = sink.borrow_mut();
        if c.len() < CORPUS_CAP {
            c.push(Bytes::copy_from_slice(payload));
        }
    });
    corpus
}

fn merged_order_lat<'a>(nodes: impl Iterator<Item = &'a TimedNode>) -> LatencyHist {
    let mut all = LatencyHist::default();
    for n in nodes {
        all.merge(&n.tally.order_lat);
    }
    all
}

/// `(p50, p99)` of the median slice, each slice's samples taken alone.
fn median_slice_latency<'a>(slices: impl Iterator<Item = &'a Vec<u32>>) -> (f64, f64) {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for samples in slices {
        let mut h = LatencyHist::default();
        samples.iter().for_each(|&us| h.record(u64::from(us)));
        p50s.extend(h.percentile(50.0));
        p99s.extend(h.percentile(99.0));
    }
    (median(&mut p50s), median(&mut p99s))
}

/// The end-to-end metrics of a sim workload: latencies over the whole window.
fn end_to_end(out: &mut Outcome, window: &Window, lat: &LatencyHist, setup_s: f64) {
    let p = |p: f64| lat.percentile(p).unwrap_or(0.0);
    crate::end_to_end(out, window, (p(50.0), p(99.0), lat.count()), setup_s);
}

/// Protocol counters summed over the members, cumulative since set-up.
#[derive(Clone, Copy, Default)]
struct Counters {
    nacks: u64,
    retransmissions: u64,
    duplicates: u64,
    heartbeats_suppressed: u64,
    rmp_in: u64,
}

impl Counters {
    fn of<'a>(nodes: impl Iterator<Item = &'a TimedNode>) -> Counters {
        let mut c = Counters::default();
        for n in nodes {
            let s = n.proc().stats();
            c.nacks += s.nacks_sent;
            c.retransmissions += s.retransmissions_sent;
            c.duplicates += s.duplicates;
            c.heartbeats_suppressed += s.heartbeats_suppressed;
            c.rmp_in += n.proc().layer_totals().rmp.msgs_in;
        }
        c
    }
}

/// Per-layer read-outs shared by the sim workloads (traced pass). Counts are
/// what the window added to `at_open`; the engine's telemetry histograms
/// cannot be cut, so they also hold the warm-up's samples.
fn layer_readouts(
    out: &mut Outcome,
    probe: &Probe,
    window: &Window,
    net_stats: &ftmp_net::NetStats,
    at_open: Counters,
    nodes: &[&TimedNode],
) {
    let deliveries = window.deliveries().max(1) as f64;
    let wall_ns = window.wall_s() * 1e9;
    out.set("trace.deliveries_per_s", window.rate().value);
    out.set(
        "wire.bytes_per_delivery",
        net_stats.sent_bytes as f64 / deliveries,
    );
    out.set(
        "wire.datagrams_per_delivery",
        net_stats.sent_packets as f64 / deliveries,
    );
    out.set(
        "pack.msgs_per_datagram",
        net_stats.sent_messages as f64 / net_stats.sent_packets.max(1) as f64,
    );
    out.set("net.lost", net_stats.lost as f64);

    let now = Counters::of(nodes.iter().copied());
    out.set(
        "pack.heartbeats_suppressed",
        (now.heartbeats_suppressed - at_open.heartbeats_suppressed) as f64,
    );
    out.set("rmp.nacks_sent", (now.nacks - at_open.nacks) as f64);
    out.set(
        "rmp.retransmissions_sent",
        (now.retransmissions - at_open.retransmissions) as f64,
    );
    out.set(
        "rmp.duplicate_ratio",
        (now.duplicates - at_open.duplicates) as f64 / (now.rmp_in - at_open.rmp_in).max(1) as f64,
    );
    let mut queue_peak = 0;
    let mut tel = ftmp_telemetry::Registry::new();
    for n in nodes {
        queue_peak = queue_peak.max(n.proc().layer_totals().romp.queue_high_water);
        if let Some(t) = n.proc().telemetry() {
            tel.merge(t.registry());
        }
    }
    out.set("romp.queue_peak", queue_peak as f64);
    let snap = tel.snapshot();
    let hist = |name: &str| snap.histogram(name).copied().unwrap_or_default();
    out.set("rmp.recovery_p50_us", hist("rmp_recovery_us").p50 as f64);
    out.set("rmp.recovery_p99_us", hist("rmp_recovery_us").p99 as f64);
    out.set("romp.hold_p50_us", hist("ordering_delay_us").p50 as f64);
    out.set("romp.hold_p95_us", hist("ordering_delay_us").p95 as f64);
    out.set(
        "romp.stability_lag_p50_us",
        hist("stability_lag_us").p50 as f64,
    );
    out.set("pgmp.view_change_p50_us", hist("view_change_us").p50 as f64);

    let sink = &probe.sink;
    let stat = |k: Kind| sink.stat(k);
    out.set(
        "processor.handle_packet_ns",
        stat(Kind::HandlePacket).mean_self_ns(),
    );
    out.set("processor.tick_ns", stat(Kind::Tick).mean_self_ns());
    out.set("processor.send_ns", stat(Kind::Send).mean_self_ns());
    out.set("processor.drain_ns", stat(Kind::Drain).mean_self_ns());
    out.set("orb.invoke_ns", stat(Kind::OrbInvoke).mean_self_ns());
    out.set(
        "orb.on_delivery_ns",
        stat(Kind::OrbOnDelivery).mean_self_ns(),
    );
    out.set(
        "store.append_ns_per_record",
        stat(Kind::StoreAppend).mean_self_ns(),
    );
    let turns: Vec<_> = Kind::ALL
        .into_iter()
        .filter(|k| k.is_node_turn())
        .map(stat)
        .collect();
    let busy_ns: u64 = turns.iter().map(|s| s.total_ns).sum();
    out.set("processor.busy_share", busy_ns as f64 / wall_ns);
    out.set("net.sim_overhead_share", 1.0 - busy_ns as f64 / wall_ns);
    let events: u64 = turns.iter().map(|s| s.calls).sum();
    out.set("net.events_per_s", events as f64 / window.wall_s());
    out.set(
        "processor.packets_per_delivery",
        stat(Kind::HandlePacket).calls as f64 / deliveries,
    );
    let engine = [Kind::HandlePacket, Kind::Tick, Kind::Send, Kind::Drain].map(stat);
    out.set(
        "processor.allocs_per_delivery",
        engine.iter().map(|s| s.self_allocs).sum::<u64>() as f64 / deliveries,
    );
    out.set(
        "processor.alloc_bytes_per_delivery",
        engine.iter().map(|s| s.self_alloc_bytes).sum::<u64>() as f64 / deliveries,
    );
    let cpu = window.cpu();
    out.set("runtime.cpu_user_us_per_delivery", cpu.user_us / deliveries);
    out.set("runtime.cpu_sys_us_per_delivery", cpu.sys_us / deliveries);
}

fn write_trace(probe: &Probe, args: &RunArgs) {
    let path = args.work_dir.join(format!("{}.trace.json", args.workload));
    match std::fs::write(&path, probe.sink.to_json(&args.workload)) {
        Ok(()) => println!(
            "# trace: {} spans in {}",
            probe.sink.spans_kept(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// `sim-fanin-64`, `sim-loss-1k`, `sim-paced-64` and `sim-durable-restart-1k`.
pub fn run_group(shape: GroupShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (ops, warm) = window_ops(args);
    let log_root = args.work_dir.join(format!("logs-{}", std::process::id()));
    let probe = SpeedProbe::sim(args.speed_exponent);
    let (setup_s, mut w) = set_up(probe, || {
        let mut w = GroupWorld::build(shape, args, &log_root);
        w.drive(warm);
        w
    });

    // The measured window.
    let opened_at = w.net.now();
    w.probe.stamping.set(true);
    w.probe.sink.reset_stats();
    w.net.reset_stats();
    let corpus = args.trace.then(|| tap_corpus(&mut w.net));
    let mut retention = (0, 0);
    let at_open = Counters::of(w.net.nodes().map(|(_, n)| n));
    set_counting(args.trace);
    let mut window = Window::open(w.delivered_total(), probe);
    for _ in 0..SLICES {
        w.drive(ops / SLICES);
        window.mark(w.delivered_total());
        retention_peak(&w.net, GROUP, &mut retention);
    }
    set_counting(false);
    w.probe.stamping.set(false);
    w.net.clear_wire_tap();
    let net_stats = w.net.stats().clone();
    if args.trace {
        let nodes: Vec<&TimedNode> = w.net.nodes().map(|(_, n)| n).collect();
        layer_readouts(&mut out, &w.probe, &window, &net_stats, at_open, &nodes);
    }

    // Correctness gate: every live member delivered every send (a refused
    // send is one never delivered), in one order.
    w.drain(w.sends, 2_000);
    out.attempted = w.sends;
    let members: Vec<&TimedNode> = w.net.nodes().map(|(_, n)| n).collect();
    out.failed = members
        .iter()
        .map(|n| w.sends.saturating_sub(n.tally.delivered))
        .max()
        .unwrap_or(0);
    let agree = members.windows(2).all(|p| {
        p[0].tally.delivered == p[1].tally.delivered
            && p[0].tally.order_hash == p[1].tally.order_hash
    });
    out.check(agree, "members delivered different sequences");
    out.check(
        members.iter().all(|n| n.tally.delivered <= w.sends),
        "a message was delivered twice",
    );

    let lat = merged_order_lat(members.iter().copied());
    end_to_end(&mut out, &window, &lat, setup_s);
    if args.trace {
        out.set("rmp.retention_peak_msgs", retention.0 as f64);
        out.set("rmp.retention_peak_bytes", retention.1 as f64);
        replay::wire_and_layers(&mut out, &corpus.expect("traced").borrow(), shape.members);
    }

    if shape.durable {
        crash_restart(&mut w, &mut out, args);
        let _ = std::fs::remove_dir_all(&log_root);
    }
    if args.trace {
        membership_readouts(&mut out, opened_at, w.net.nodes().map(|(_, n)| n));
        write_trace(&w.probe, args);
    }
    out
}

/// `pgmp.view_changes` and `pgmp.convictions` from the moment the window
/// opened (`since`) to the end of the run: views installed at the first
/// member, convictions summed over the members.
fn membership_readouts<'a>(
    out: &mut Outcome,
    since: SimTime,
    nodes: impl Iterator<Item = &'a TimedNode>,
) {
    let (mut views, mut convictions) = (None, 0);
    for n in nodes {
        views.get_or_insert_with(|| {
            let changed = |(at, e): &(SimTime, ProtocolEvent)| {
                *at >= since && matches!(e, ProtocolEvent::MembershipChange { .. })
            };
            n.tally.events.iter().filter(|e| changed(e)).count()
        });
        convictions += n.proc().layer_totals().pgmp.convictions;
    }
    out.set("pgmp.view_changes", views.unwrap_or(0) as f64);
    out.set("pgmp.convictions", convictions as f64);
}

/// After the steady phase of `sim-durable-restart-1k`: crash member 3, fail
/// over, restart it from its log with member 1 as sponsor, rejoin.
fn crash_restart(w: &mut GroupWorld, out: &mut Outcome, args: &RunArgs) {
    const VICTIM: u32 = 3;
    let ms = |t: SimTime, since: SimTime| (t.as_micros() - since.as_micros()) as f64 / 1_000.0;
    let mut turn = 0u32;
    let mut survivor_send = |w: &mut GroupWorld| {
        turn += 1;
        w.send_from(turn % 2 + 1)
    };

    // Crash, and keep sending: the first message sent after the crash is
    // held until the survivors have convicted the victim and changed view.
    let crashed_at = w.net.now();
    w.net.crash(VICTIM);
    let first = survivor_send(w);
    for id in [1, 2] {
        if let (Some(n), Some(first)) = (w.net.node_mut(id), first) {
            n.watch(first);
        }
    }
    let failed_over = |w: &GroupWorld| {
        [1, 2]
            .iter()
            .filter_map(|&id| w.net.node(id)?.tally.watch_delivered)
            .max()
            .filter(|_| {
                [1, 2].iter().all(|&id| {
                    w.net
                        .node(id)
                        .is_some_and(|n| n.tally.watch_delivered.is_some())
                })
            })
    };
    for _ in 0..3_000 {
        if failed_over(w).is_some() {
            break;
        }
        w.net.run_for(SimDuration::from_millis(1));
        survivor_send(w);
    }
    let failover = failed_over(w);
    out.check(
        failover.is_some(),
        "survivors never delivered after the crash",
    );
    out.set(
        "pgmp.failover_ms",
        failover.map_or(0.0, |t| ms(t, crashed_at)),
    );
    let detected = [1, 2]
        .iter()
        .filter_map(|&id| {
            w.net.node(id)?.tally.events.iter().find_map(|(t, e)| {
                matches!(e, ProtocolEvent::FaultReport { processor, .. } if processor.0 == VICTIM)
                    .then_some(*t)
            })
        })
        .min();
    out.set(
        "pgmp.detect_ms",
        detected.map_or(0.0, |t| ms(t, crashed_at)),
    );
    // The delta the victim misses while it is down.
    for _ in 0..50 {
        survivor_send(w);
        w.net.run_for(SimDuration::from_millis(1));
    }

    // Recovery, five times over the log the run wrote; the last one is used.
    let dir = w.logs[VICTIM as usize - 1].0.clone();
    let mut restarts = Vec::new();
    let mut recover_ns = Vec::new();
    let mut rebuilt = None;
    for _ in 0..5 {
        let t = Instant::now();
        let recovered = ftmp_store::recover(&dir).expect("log recovery");
        let scan = t.elapsed();
        let state = RecoveredState::from_records(&recovered.records);
        let mut engine = Processor::new(ProcessorId(VICTIM), w.proto.clone(), ClockMode::Lamport);
        engine.expect_join(GROUP, GROUP_ADDR);
        engine.bind_connection(group_conn(), GROUP);
        restarts.push(t.elapsed().as_secs_f64() * 1e3);
        recover_ns.push(scan.as_nanos() as f64 / recovered.records.len().max(1) as f64);
        rebuilt = Some((engine, recovered, state));
    }
    let (mut engine, recovered, state) = rebuilt.expect("five recoveries");
    out.set("store.restart_wall_ms", median(&mut restarts));
    out.set("store.recover_ns_per_record", median(&mut recover_ns));
    out.check(
        recovered.stats.records_quarantined == 0,
        "the crashed log was corrupt",
    );
    let before_crash: Vec<LogRecord> = delivered_only(recovered.records);
    out.check(
        state.delivered == before_crash.len() as u64,
        "recovered state disagrees with the recovered records",
    );

    if args.trace {
        engine.enable_telemetry();
    }
    let (log, handle) = TimedLog::open(&dir, VICTIM, Arc::clone(&w.probe.sink)).expect("reopen");
    engine.set_delivery_log(Box::new(log));
    w.logs[VICTIM as usize - 1].1 = handle;
    let restarted_at = w.net.now();
    let mut node = TimedNode::new(engine, Rc::clone(&w.probe));
    node.watch_first_delivery(restarted_at);
    w.net.revive(VICTIM, node);
    w.net.with_node(VICTIM, |n, now, out| n.pump(now, out));
    w.net.with_node(1, |n, now, out| {
        n.proc_mut().add_processor(now, GROUP, ProcessorId(VICTIM));
        n.pump(now, out);
    });
    let rejoined = |w: &GroupWorld| w.net.node(VICTIM).and_then(|n| n.tally.first_delivery);
    for _ in 0..3_000 {
        if rejoined(w).is_some() {
            break;
        }
        survivor_send(w);
        w.net.run_for(SimDuration::from_millis(1));
    }
    out.check(
        rejoined(w).is_some(),
        "the restarted member never delivered",
    );
    out.set(
        "store.rejoin_ms",
        rejoined(w).map_or(0.0, |t| ms(t, restarted_at)),
    );
    w.drain(w.sends, 2_000);
    out.attempted = w.sends;
    let survivors: Vec<&TimedNode> = [1, 2].iter().filter_map(|&id| w.net.node(id)).collect();
    out.failed += survivors
        .iter()
        .map(|n| w.sends.saturating_sub(n.tally.delivered))
        .max()
        .unwrap_or(0);
    out.check(
        survivors[0].tally.order_hash == survivors[1].tally.order_hash,
        "survivors delivered different sequences",
    );

    // Close the logs: sync each (timed), count what they hold.
    let mut syncs = Vec::new();
    let (mut io_errors, mut appended, mut segments, mut bytes) = (0, 0, 0, 0);
    for (dir, handle) in &w.logs {
        let mut log = handle.log.lock().expect("no holder of the log panics");
        let t = Instant::now();
        out.check(log.sync().is_ok(), "log sync failed");
        syncs.push(t.elapsed().as_nanos() as f64);
        io_errors += log.io_errors();
        appended += handle.appends.load(std::sync::atomic::Ordering::Relaxed);
        for (_, path) in ftmp_store::log::list_segments(dir).unwrap_or_default() {
            segments += 1;
            bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
    }
    out.set("store.sync_ns", median(&mut syncs));
    out.set("store.io_errors", io_errors as f64);
    out.set("store.segments", f64::from(segments));
    out.set(
        "store.bytes_per_record",
        bytes as f64 / appended.max(1) as f64,
    );
    out.check(io_errors == 0, "a log append failed");

    // The victim's log against a survivor's: the same records before the
    // crash, a contiguous run of the survivor's after the rejoin, and no
    // request number twice.
    let victim = delivered_only(ftmp_store::recover(&dir).expect("victim log").records);
    let survivor = delivered_only(
        ftmp_store::recover(&w.logs[0].0)
            .expect("survivor log")
            .records,
    );
    let n = before_crash.len();
    out.check(
        n <= survivor.len()
            && ftmp_store::state::fingerprint(&before_crash)
                == ftmp_store::state::fingerprint(&survivor[..n]),
        "the victim's pre-crash log is not a prefix of the survivor's",
    );
    let after = &victim[n.min(victim.len())..];
    let resumed = after
        .first()
        .and_then(|first| survivor.iter().position(|r| r == first));
    out.check(
        resumed.is_some_and(|at| {
            at >= n
                && survivor.len() >= at + after.len()
                && &survivor[at..at + after.len()] == after
        }),
        "the victim's post-rejoin log is not a run of the survivor's",
    );
    let mut seen = std::collections::BTreeSet::new();
    out.check(
        victim.iter().all(|r| match r {
            LogRecord::Delivered(d) => seen.insert(d.request_num.0),
            LogRecord::ViewChange(_) => true,
        }),
        "the victim logged a request number twice",
    );
}

fn delivered_only(records: Vec<LogRecord>) -> Vec<LogRecord> {
    records
        .into_iter()
        .filter(|r| matches!(r, LogRecord::Delivered(_)))
        .collect()
}

// --- sim-orb-invoke ---------------------------------------------------------

const ORB_DOMAIN_ADDR: McastAddr = McastAddr(500);
const ORB_GROUP: GroupId = GroupId(10);
const ORB_GROUP_ADDR: McastAddr = McastAddr(600);
const OBJECT_KEY: &[u8] = b"obj";
const CLIENTS: [u32; 2] = [1, 2];
const SERVERS: [u32; 3] = [3, 4, 5];
/// Invocations each client keeps outstanding.
const OUTSTANDING: u64 = 16;

struct OrbWorld {
    net: SimNet<TimedNode>,
    probe: Rc<Probe>,
    conn: ConnectionId,
}

impl OrbWorld {
    /// 2 client and 3 server replicas connected through the real
    /// ConnectRequest/Connect handshake, each client about to make `total`
    /// invocations of which the first `warm` are warm-up.
    fn build(args: &RunArgs, total: u64, warm: u64) -> OrbWorld {
        let og_server = ObjectGroupId::new(2, 7);
        let conn = ConnectionId::new(ObjectGroupId::new(1, 1), og_server);
        let pids = |ids: &[u32]| ids.iter().map(|&i| ProcessorId(i)).collect::<Vec<_>>();
        let proto = ProtocolConfig::with_seed(args.seed);
        let probe = Probe::new(args.trace);
        let mut net = SimNet::new(SimConfig::with_seed(args.seed));
        net.set_classifier(ftmp_core::wire::classify);
        net.set_message_counter(ftmp_core::wire::message_count);
        for id in CLIENTS.into_iter().chain(SERVERS) {
            let mut engine = Processor::new(ProcessorId(id), proto.clone(), ClockMode::Lamport);
            if args.trace {
                engine.enable_telemetry();
            }
            let mut orb = OrbEndpoint::new();
            let client = if CLIENTS.contains(&id) {
                orb.register_client(conn);
                let mut c = ClientLoop::new(conn, OBJECT_KEY, id == CLIENTS[0]);
                c.remaining = total;
                c.measure_above = warm;
                Some(c)
            } else {
                orb.host_replica(
                    og_server,
                    OBJECT_KEY,
                    Box::new(ftmp_orb::Counter::default()),
                );
                engine.register_server(
                    og_server,
                    ServerRegistration {
                        processors: pids(&SERVERS),
                        pool: vec![(ORB_GROUP, ORB_GROUP_ADDR)],
                    },
                    ORB_DOMAIN_ADDR,
                );
                None
            };
            let node = TimedNode::new(engine, Rc::clone(&probe)).with_orb(orb, client);
            net.add_node(id, node);
            net.with_node(id, |n, now, out| n.pump(now, out));
        }
        for id in CLIENTS {
            let clients = pids(&CLIENTS);
            net.with_node(id, move |n, now, out| {
                n.proc_mut()
                    .open_connection(now, conn, clients, ORB_DOMAIN_ADDR);
                n.pump(now, out);
            });
        }
        let mut w = OrbWorld { net, probe, conn };
        let connected = |w: &OrbWorld| {
            w.net
                .nodes()
                .all(|(_, n)| n.proc().connection_group(conn).is_some())
        };
        for _ in 0..400 {
            if connected(&w) {
                break;
            }
            w.net.run_for(SimDuration::from_millis(5));
        }
        assert!(connected(&w), "connection establishment did not complete");
        for id in CLIENTS {
            w.net
                .with_node(id, |n, now, out| n.call_invoke(now, OUTSTANDING, out));
        }
        w
    }

    /// Step the simulator until client 1 has completed `target` invocations.
    fn run_to(&mut self, target: u64) {
        // A second of virtual time without progress means the loop is stuck.
        let mut stall = (self.probe.completed.get(), self.net.now());
        while self.probe.completed.get() < target {
            let Some(now) = self.net.step() else {
                break;
            };
            if self.probe.completed.get() != stall.0 {
                stall = (self.probe.completed.get(), now);
            } else if now.as_micros() - stall.1.as_micros() > 1_000_000 {
                break;
            }
        }
    }

    fn delivered_total(&self) -> u64 {
        self.net.nodes().map(|(_, n)| n.tally.delivered).sum()
    }
}

pub fn run_orb(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (ops, warm) = window_ops(args);
    let total = warm + ops;
    let probe = SpeedProbe::sim(args.speed_exponent);
    let (setup_s, mut w) = set_up(probe, || {
        let mut w = OrbWorld::build(args, total, warm);
        w.run_to(warm);
        w
    });

    let opened_at = w.net.now();
    w.probe.stamping.set(true);
    w.probe.sink.reset_stats();
    w.net.reset_stats();
    let corpus = args.trace.then(|| tap_corpus(&mut w.net));
    let suppressed_open = suppressed(&w);
    let at_open = Counters::of(w.net.nodes().map(|(_, n)| n));
    set_counting(args.trace);
    let mut window = Window::open(w.delivered_total(), probe);
    let mut retention = (0, 0);
    let mut slice_lats = Vec::with_capacity(SLICES as usize);
    for slice in 1..=SLICES {
        w.run_to(warm + ops / SLICES * slice);
        window.mark(w.delivered_total());
        retention_peak(&w.net, ORB_GROUP, &mut retention);
        let reporting = w.net.node_mut(CLIENTS[0]).and_then(TimedNode::client_mut);
        slice_lats.push(reporting.map(|c| std::mem::take(&mut c.slice_lat)));
    }
    set_counting(false);
    w.probe.stamping.set(false);
    w.net.clear_wire_tap();
    let net_stats = w.net.stats().clone();
    if args.trace {
        let nodes: Vec<&TimedNode> = w.net.nodes().map(|(_, n)| n).collect();
        layer_readouts(&mut out, &w.probe, &window, &net_stats, at_open, &nodes);
    }
    let invokes_per_s = ops as f64 / window.wall_s();
    w.net.run_for(SimDuration::from_millis(300));

    // Correctness gate: every invocation completed once, every server
    // replica executed each exactly once, one delivery order everywhere.
    out.attempted = total;
    let nodes: Vec<&TimedNode> = w.net.nodes().map(|(_, n)| n).collect();
    let clients: Vec<&ClientLoop> = nodes.iter().filter_map(|n| n.client()).collect();
    out.failed = clients
        .iter()
        .map(|c| total.saturating_sub(c.completed) + c.failed)
        .max()
        .unwrap_or(total);
    out.check(
        clients.iter().all(|c| c.completed <= total),
        "an invocation completed twice",
    );
    for n in &nodes {
        let Some(servant) = n.orb().and_then(|o| o.servant(w.conn.server)) else {
            continue;
        };
        let value = ftmp_orb::servant::decode_i64_result(&servant.snapshot());
        out.check(
            value == Some(total as i64),
            "a server replica did not execute every invocation exactly once",
        );
    }
    let agree = nodes.windows(2).all(|p| {
        p[0].tally.delivered == p[1].tally.delivered
            && p[0].tally.order_hash == p[1].tally.order_hash
    });
    out.check(agree, "members delivered different sequences");

    // The operation here is an invocation, so the two latency metrics are
    // invoke → completion at client 1: a request's ordering hold, the
    // servant, a reply's ordering hold. (Per message the median sits between
    // the request and reply modes and jumps from one to the other with the seed.)
    //
    // They are the median slice's, not the whole window's: about one seed
    // in ten the closed loop locks, somewhere in the window and for good,
    // from one heartbeat interval per invocation into two (BENCHMARK.md),
    // and whole-window percentiles then read anything in between.
    let invoke_lat = &clients[0].invoke_lat;
    let (p50, p99) = median_slice_latency(slice_lats.iter().flatten());
    crate::end_to_end(&mut out, &window, (p50, p99, invoke_lat.count()), setup_s);
    let msg_lat = merged_order_lat(nodes.iter().copied());
    out.note("invokes_per_s", invokes_per_s, "1/s");
    out.note(
        "msg_order_p50_us",
        msg_lat.percentile(50.0).unwrap_or(0.0),
        "us",
    );
    out.note(
        "msg_order_p99_us",
        msg_lat.percentile(99.0).unwrap_or(0.0),
        "us",
    );
    if args.trace {
        out.set("rmp.retention_peak_msgs", retention.0 as f64);
        out.set("rmp.retention_peak_bytes", retention.1 as f64);
        out.set("orb.invokes_per_s", invokes_per_s);
        out.set(
            "orb.invoke_p50_us",
            invoke_lat.percentile(50.0).unwrap_or(0.0),
        );
        out.set(
            "orb.invoke_p99_us",
            invoke_lat.percentile(99.0).unwrap_or(0.0),
        );
        let (req, rep, evicted) = suppressed(&w);
        let (req, rep) = (req - suppressed_open.0, rep - suppressed_open.1);
        out.set("orb.requests_suppressed", req as f64);
        out.set("orb.replies_suppressed", rep as f64);
        out.set(
            "orb.suppressed_ratio",
            (req + rep) as f64 / window.deliveries().max(1) as f64,
        );
        out.set("orb.dup_evictions", evicted as f64);
        replay::wire_and_layers(&mut out, &corpus.expect("traced").borrow(), 5);
        replay::giop(&mut out, OBJECT_KEY);
        membership_readouts(&mut out, opened_at, w.net.nodes().map(|(_, n)| n));
        write_trace(&w.probe, args);
    }
    out
}

/// `(requests suppressed at servers, replies suppressed at clients,
/// duplicate-detector evictions)` so far.
fn suppressed(w: &OrbWorld) -> (u64, u64, u64) {
    let mut sum = (0, 0, 0);
    for (_, n) in w.net.nodes() {
        if let Some(orb) = n.orb() {
            let (req, rep) = orb.suppression_counts();
            sum = (sum.0 + req, sum.1 + rep, sum.2 + orb.dup_evictions());
        }
    }
    sum
}
