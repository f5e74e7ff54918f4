//! `sock-fanin-64`: three `ftmp_runtime` founders in this process over the
//! TCP mesh on the host's loopback interface (no link is crossed), driven
//! closed-loop from the main thread. The only other threads are the
//! runtime's own.

use crate::measure::{
    alloc_counts, fold_delivery, median, set_counting, set_up, InputRng, SpeedProbe, Window, SLICES,
};
use crate::{Outcome, RunArgs};
use bytes::Bytes;
use ftmp_core::{
    ConnectionId, Delivery, GroupId, ObjectGroupId, ProcessorId, ProtocolConfig, ProtocolEvent,
    RequestNum,
};
use ftmp_net::{McastAddr, SimDuration, SimTime};
use ftmp_runtime::node::{self, NodeConfig, NodeParts, RuntimeClock, RuntimeHandle, RuntimeReport};
use ftmp_runtime::transport::{
    self, RxReceiver, TcpConfig, TcpMeshTransport, Transport, TransportMode, TransportSpec,
    UdpConfig, UdpMulticastTransport,
};
use ftmp_runtime::{sys, TraceWriter};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::Path;
use std::time::{Duration, Instant};

const MEMBERS: u32 = 3;
const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(0x4654_4D31);
/// Publishes each member keeps outstanding: below the knee the probe found
/// (64 gave more throughput, 128 collapsed to 10 ms latencies).
const OUTSTANDING: u64 = 32;
const BODY_LEN: usize = 64;
const STALL: Duration = Duration::from_secs(5);
/// With nobody refilling, the 96 publishes in flight drain in a millisecond
/// or two (the last of them wait out a heartbeat) and the nodes fall idle;
/// their threads run on both cores, so the reference work does too.
const SETTLE: Duration = Duration::from_millis(3);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

fn loopback_listener() -> (std::net::TcpListener, SocketAddr) {
    let l = sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
        .expect("bind a loopback listener");
    let addr = l.local_addr().expect("listener address");
    (l, addr)
}

#[derive(Default)]
struct Member {
    outstanding: u64,
    delivered: u64,
    order_hash: u64,
}

struct Cluster {
    handles: Vec<RuntimeHandle>,
    clock: RuntimeClock,
    members: Vec<Member>,
    bodies: Vec<Bytes>,
    /// Publish time in runtime µs by request number; 0 = not sampled.
    sent_us: Vec<u64>,
    stamping: bool,
    next_req: u64,
    /// Latencies are sampled from this request number on: a publish in
    /// flight while the load generator stood still at a slice boundary
    /// waited for it, not for the system under test.
    sample_from: u64,
    /// Publishes whose own delivery came back to their publisher.
    completed: u64,
    /// Whether a member whose publish came back issues the next one. The
    /// members share one total, not a quota each: the slowest of them would
    /// otherwise close the window alone, each publish waiting out the quiet
    /// members' 10 ms heartbeat.
    refilling: bool,
    /// publish → ordered delivery, wall µs, of the slice being measured.
    slice_lat: Vec<u32>,
    /// No delivery anywhere for [`STALL`]: the loop cannot close any more
    /// (a member was convicted, say), so the run is cut short and fails.
    stalled: bool,
}

impl Cluster {
    fn spawn(args: &RunArgs, trace_dir: Option<&Path>) -> Cluster {
        let ids: Vec<ProcessorId> = (1..=MEMBERS).map(ProcessorId).collect();
        let (mut listeners, addrs): (Vec<_>, Vec<_>) =
            (0..MEMBERS).map(|_| loopback_listener()).unzip();
        let clock = RuntimeClock::process_start();
        let mut handles = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let (rxq, rx) = transport::rx_channel();
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| *a)
                .collect();
            let spec = TransportSpec {
                mode: TransportMode::TcpMesh,
                udp: UdpConfig::default(),
                tcp: Some(TcpConfig::new(listeners.remove(0), peers)),
            };
            let selected = transport::open_transport(spec, rxq).expect("open the TCP mesh");
            let mut cfg = NodeConfig::founder(id, GROUP, GROUP_ADDR, ids.clone());
            // Defaults, but for the fault detector: this virtual machine now
            // and then stops a thread for a few hundred milliseconds, and
            // with the default 120 ms the other two members then convict a
            // live one (about one run in forty did). Detection is not what
            // this workload measures.
            cfg.protocol = ProtocolConfig::with_seed(args.seed)
                .fail_timeout_of(SimDuration::from_millis(3_000))
                .ack_stall_of(SimDuration::from_millis(6_000));
            cfg.connection = Some((conn(), GROUP));
            // One clock for every node and the load generator, so a publish
            // stamp and a delivery stamp subtract.
            cfg.clock = clock.clone();
            cfg.stop_grace = Duration::from_millis(50);
            let trace = trace_dir.map(|dir| {
                TraceWriter::create(dir.join(format!("node-{}.trace", id.0)), id.0, 0)
                    .expect("create a runtime trace inside the work directory")
            });
            handles.push(node::spawn(
                cfg,
                NodeParts {
                    transport: selected,
                    rx,
                    dlog: None,
                    trace,
                },
            ));
        }
        Cluster {
            handles,
            clock,
            members: (0..MEMBERS).map(|_| Member::default()).collect(),
            bodies: InputRng::new(args.seed).bodies(64, BODY_LEN),
            sent_us: Vec::new(),
            stamping: false,
            next_req: 0,
            sample_from: 0,
            completed: 0,
            refilling: true,
            slice_lat: Vec::new(),
            stalled: false,
        }
    }

    /// Top member `i` up to its outstanding limit.
    fn refill(&mut self, i: usize) {
        while self.refilling && self.members[i].outstanding < OUTSTANDING {
            self.next_req += 1;
            let req = self.next_req;
            if self.stamping {
                let slot = req as usize;
                if self.sent_us.len() <= slot {
                    self.sent_us.resize(slot + 4096, 0);
                }
                self.sent_us[slot] = self.clock.now().as_micros().max(1);
            }
            let body = self.bodies[(req % self.bodies.len() as u64) as usize].clone();
            self.handles[i].publish(conn(), RequestNum(req), body);
            self.members[i].outstanding += 1;
        }
    }

    fn on_delivery(&mut self, i: usize, at: SimTime, d: &Delivery) {
        let m = &mut self.members[i];
        m.delivered += 1;
        m.order_hash = fold_delivery(m.order_hash, d);
        if let Some(&sent) = self.sent_us.get(d.request_num.0 as usize) {
            if sent != 0 && d.request_num.0 >= self.sample_from {
                let us = at.as_micros().saturating_sub(sent);
                self.slice_lat.push(u32::try_from(us).unwrap_or(u32::MAX));
            }
        }
        if d.source.0 as usize == i + 1 {
            self.completed += 1;
            self.members[i].outstanding -= 1;
            self.refill(i);
        }
    }

    /// Keep the loop closed until `done(self)`, or nothing moves any more.
    fn run_until(&mut self, done: impl Fn(&Cluster) -> bool) {
        let mut last_progress = Instant::now();
        let mut turn = 0;
        while !done(self) && !self.stalled {
            let before = self.delivered_total();
            let mut got = false;
            for i in 0..self.handles.len() {
                while let Ok((at, d)) = self.handles[i].deliveries.try_recv() {
                    self.on_delivery(i, at, &d);
                    got = true;
                }
            }
            if !got {
                // Idle: block briefly on one member's queue, in turn.
                turn = (turn + 1) % self.handles.len();
                if let Ok((at, d)) = self.handles[turn]
                    .deliveries
                    .recv_timeout(Duration::from_micros(200))
                {
                    self.on_delivery(turn, at, &d);
                }
            }
            if self.delivered_total() != before {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL {
                self.stalled = true;
            }
        }
    }

    fn run_to_completed(&mut self, target: u64) {
        self.run_until(|c| c.completed >= target);
    }

    fn delivered_total(&self) -> u64 {
        self.members.iter().map(|m| m.delivered).sum()
    }

    /// Stop every node and wait for its threads; idempotent.
    fn stop(&mut self) -> (Vec<RuntimeReport>, Vec<ProtocolEvent>) {
        // Concurrently: a member still running would convict a stopped one.
        for h in &self.handles {
            h.command(node::Command::Stop);
        }
        let mut events = Vec::new();
        let reports = std::mem::take(&mut self.handles)
            .into_iter()
            .map(|h| {
                while let Ok((_, e)) = h.events.try_recv() {
                    events.push(e);
                }
                h.join()
            })
            .collect();
        (reports, events)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    // Publishes by all members together, in whole slices; a slice is at least
    // four times what is in flight, so that (at the smoke test's scale too)
    // most of its publishes are issued and delivered inside it.
    let per_member =
        ((args.ops_per_second * args.seconds / SLICES as f64).round() as u64).max(4 * OUTSTANDING);
    let per_slice = per_member * u64::from(MEMBERS);
    let warm = (per_slice * SLICES / 10).max(1);
    let trace_dir = args.trace.then(|| {
        args.work_dir
            .join(format!("runtime-trace-{}", std::process::id()))
    });
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }

    // Set-up: spawn, mesh bring-up, warm-up traffic.
    let probe = SpeedProbe {
        settle: SETTLE,
        both_cores: true,
        exponent: args.speed_exponent,
    };
    let (setup_s, mut c) = set_up(probe, || {
        let mut c = Cluster::spawn(args, trace_dir.as_deref());
        for i in 0..MEMBERS as usize {
            c.refill(i);
        }
        c.run_to_completed(warm);
        c
    });

    c.stamping = true;
    set_counting(args.trace);
    let allocs_open = alloc_counts();
    let mut window = Window::open(c.delivered_total(), probe);
    let (mut p50s, mut p99s, mut samples) = (Vec::new(), Vec::new(), 0);
    for slice in 1..=SLICES {
        c.sample_from = c.next_req + 1;
        c.run_to_completed(warm + per_slice * slice);
        window.mark(c.delivered_total());
        // Wall-clock latencies are as disturbed as wall-clock rates, so they
        // too are taken per slice, corrected, and reported as the median slice.
        c.slice_lat.sort_unstable();
        let at = |p: usize| {
            c.slice_lat
                .get(c.slice_lat.len() * p / 100)
                .map(|&us| f64::from(us))
        };
        // (raw, corrected for the box's speed over the slice)
        let factor = window.last_factor();
        p50s.extend(at(50).map(|us| (us, us * factor)));
        p99s.extend(at(99).map(|us| (us, us * factor)));
        samples += c.slice_lat.len();
        c.slice_lat.clear();
    }
    set_counting(false);
    let allocs = alloc_counts();
    c.stamping = false;
    // Stop issuing; every publish issued so far has to arrive at every member.
    c.refilling = false;
    let want = c.next_req;
    c.run_until(|c| c.members.iter().all(|m| m.delivered >= want));

    // Correctness gate.
    out.attempted = want;
    let short = c
        .members
        .iter()
        .map(|m| want.saturating_sub(m.delivered))
        .max()
        .unwrap_or(want);
    let agree = c
        .members
        .windows(2)
        .all(|p| p[0].delivered == p[1].delivered && p[0].order_hash == p[1].order_hash);
    out.check(agree, "members delivered different sequences");
    out.check(
        c.members.iter().all(|m| m.delivered <= want),
        "a message was delivered twice",
    );
    let stalled = c.stalled;
    let (reports, events) = c.stop();
    let rejected: u64 = reports.iter().map(|r| r.publish_rejected).sum();
    // A rejected publish is one never delivered: `short` counts it.
    out.failed = short;
    let view_changes = events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::MembershipChange { .. }))
        .count();
    out.check(view_changes == 0, "the membership changed during the run");
    if view_changes > 0 || stalled {
        // Say what the members saw: this is the failure the box provokes.
        for r in &reports {
            eprintln!(
                "member delivered {}, rejected {}, final view {:?}",
                r.delivered, r.publish_rejected, r.final_members
            );
        }
        for e in &events {
            eprintln!("event: {e:?}");
        }
    }
    out.check(
        !stalled,
        "deliveries stopped before every publish came back",
    );

    let medians = |slices: &[(f64, f64)]| {
        let (mut raw, mut corrected): (Vec<f64>, Vec<f64>) = slices.iter().copied().unzip();
        (median(&mut raw), median(&mut corrected))
    };
    let (p50, p99) = (medians(&p50s), medians(&p99s));
    out.note("order_p50_us.raw", p50.0, "us");
    out.note("order_p99_us.raw", p99.0, "us");
    crate::end_to_end(&mut out, &window, (p50.1, p99.1, samples as u64), setup_s);

    if args.trace {
        let deliveries = window.deliveries().max(1) as f64;
        let cpu = window.cpu();
        out.set("trace.deliveries_per_s", window.rate().value);
        out.set("runtime.cpu_user_us_per_delivery", cpu.user_us / deliveries);
        out.set("runtime.cpu_sys_us_per_delivery", cpu.sys_us / deliveries);
        out.set(
            "processor.allocs_per_delivery",
            (allocs.0 - allocs_open.0) as f64 / deliveries,
        );
        out.set(
            "processor.alloc_bytes_per_delivery",
            (allocs.1 - allocs_open.1) as f64 / deliveries,
        );
        // Whole-run counters over whole-run deliveries.
        let run_deliveries: u64 = reports.iter().map(|r| r.delivered).sum();
        let sent: u64 = reports.iter().map(|r| r.sent_datagrams).sum();
        out.set(
            "runtime.tx_datagrams_per_delivery",
            sent as f64 / run_deliveries.max(1) as f64,
        );
        let recv: u64 = reports.iter().map(|r| r.recv_datagrams).sum();
        out.set(
            "processor.packets_per_delivery",
            recv as f64 / run_deliveries.max(1) as f64,
        );
        out.set("runtime.publish_rejected", rejected as f64);
        out.set(
            "runtime.ticks",
            reports.iter().map(|r| r.ticks).sum::<u64>() as f64,
        );
        let lag = reports
            .iter()
            .filter_map(|r| r.metrics.histogram("runtime_timer_lag_us"))
            .map(|h| h.p99)
            .max()
            .unwrap_or(0);
        out.set("runtime.timer_lag_p99_us", lag as f64);
        out.set("pgmp.view_changes", view_changes as f64);
        out.set("runtime.tcp_loopback_ns_per_datagram", tcp_floor());
        out.set("runtime.udp_loopback_ns_per_datagram", udp_floor());
        for r in &reports {
            if let Some(p) = &r.trace_path {
                println!("# trace: {}", p.display());
            }
        }
    }
    out
}

/// Bare forwarding: `Transport::send` on one endpoint to `recv_timeout` on
/// the other, 64 B, one datagram in flight. Median of 5 passes, ns each.
fn floor(tx: &mut dyn Transport, rx: &RxReceiver) -> f64 {
    const N: usize = 4_000;
    let body = [0x5Au8; BODY_LEN];
    // Until the first datagram arrives the path may still be coming up.
    let up = Instant::now() + Duration::from_secs(5);
    loop {
        tx.send(GROUP_ADDR, &body);
        if rx.recv_timeout(Duration::from_millis(50)).is_ok() {
            break;
        }
        if Instant::now() > up {
            return 0.0;
        }
    }
    while rx.try_recv().is_some() {}
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                tx.send(GROUP_ADDR, &body);
                let _ = rx.recv_timeout(Duration::from_secs(1));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    median(&mut passes)
}

fn tcp_floor() -> f64 {
    let ((la, _), (lb, addr_b)) = (loopback_listener(), loopback_listener());
    let (qa, _rx_a) = transport::rx_channel();
    let (qb, rx_b) = transport::rx_channel();
    let (Ok(mut a), Ok(mut b)) = (
        TcpMeshTransport::open(TcpConfig::new(la, vec![addr_b]), qa),
        TcpMeshTransport::open(TcpConfig::new(lb, Vec::new()), qb),
    ) else {
        return 0.0;
    };
    b.join(GROUP_ADDR);
    let ns = floor(&mut a, &rx_b);
    a.shutdown();
    b.shutdown();
    ns
}

fn udp_floor() -> f64 {
    // A port of this process's own, so concurrent runs do not hear each other.
    let cfg = UdpConfig {
        port: 40_000 + (std::process::id() % 20_000) as u16,
        ..UdpConfig::default()
    };
    if !transport::multicast_available(&cfg) {
        return 0.0;
    }
    let (qa, _rx_a) = transport::rx_channel();
    let (qb, rx_b) = transport::rx_channel();
    let (Ok(mut a), Ok(mut b)) = (
        UdpMulticastTransport::open(&cfg, qa),
        UdpMulticastTransport::open(&cfg, qb),
    ) else {
        return 0.0;
    };
    b.join(GROUP_ADDR);
    let ns = floor(&mut a, &rx_b);
    a.shutdown();
    b.shutdown();
    ns
}
