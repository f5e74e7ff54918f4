//! ftmp-cluster — N real OS processes, one FTMP member each, checked by
//! the same seven oracles as the simulator (E18).
//!
//! The parent process resolves one transport for the whole cluster (probe
//! multicast once, fall back to TCP uniformly — a mixed cluster would
//! partition), picks a shared clock epoch, and spawns itself with the
//! `member` subcommand once per member. The scripted schedule, relative to
//! the epoch:
//!
//! ```text
//! t=0        founders P1..P3 up, steady traffic from t=300ms
//! t=1200ms   P4 spawns as a joiner; P1 sponsors it (retrying AddProcessor)
//! t=2200ms   P2 is kill -9'd mid-traffic
//! t=2600ms   P2 restarts (incarnation 1): recovers its durable log,
//!            resumes its request counter past everything it already
//!            delivered, rejoins via P1's sponsorship
//! t=duration everyone stops, drains, writes trace + metrics + report
//! ```
//!
//! Each member records its observation stream with `ftmp-runtime`'s trace
//! writer; the parent replays every trace file through
//! `ftmp_check::replay` and requires all seven oracles clean. A simulator
//! CrashRestart cell runs alongside as the parity baseline, and everything
//! lands in `results/e18.json`.

use bytes::Bytes;
use ftmp_check::replay::{read_trace_dir, replay_traces};
use ftmp_check::{run_cell, seed_budget, Scenario};
use ftmp_core::actions::ProtocolEvent;
use ftmp_core::config::ProtocolConfig;
use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_net::McastAddr;
use ftmp_runtime::{node, transport};
use std::fmt::Write as _;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(0x4654_4D50);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

// The scripted fault schedule (epoch-relative, milliseconds).
const T_SEND_START: u64 = 300;
/// The joiner process spawns this long before its sponsorship, so its
/// sockets are subscribed before the join view is announced.
const T_SPAWN_JOINER: u64 = 900;
const T_JOIN: u64 = 1_200;
const T_KILL: u64 = 2_200;
const T_RESTART: u64 = 2_600;
const T_READD: u64 = 2_700;
/// Sends stop this long before the end so orders converge under silence.
const QUIESCE_MS: u64 = 900;

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn arg_val(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_u64(args: &[String], key: &str, default: u64) -> u64 {
    arg_val(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("member") {
        std::process::exit(run_member(&args[1..]));
    }
    std::process::exit(run_parent(&args));
}

// --- member process ---------------------------------------------------------

struct MemberArgs {
    id: u32,
    founders: Vec<u32>,
    all_ids: Vec<u32>,
    epoch_us: u64,
    port_base: u16,
    tcp: bool,
    fell_back: bool,
    dir: PathBuf,
    duration_ms: u64,
    rate_ms: u64,
    joiner: bool,
    restart: bool,
    incarnation: u32,
    /// `id@ms` sponsorships this member performs.
    adds: Vec<(u32, u64)>,
}

fn parse_member(args: &[String]) -> MemberArgs {
    let ids = |s: String| -> Vec<u32> { s.split(',').filter_map(|t| t.parse().ok()).collect() };
    MemberArgs {
        id: arg_u64(args, "--id", 0) as u32,
        founders: ids(arg_val(args, "--founders").unwrap_or_default()),
        all_ids: ids(arg_val(args, "--all").unwrap_or_default()),
        epoch_us: arg_u64(args, "--epoch-us", 0),
        port_base: arg_u64(args, "--port-base", 47_700) as u16,
        tcp: args.iter().any(|a| a == "--tcp"),
        fell_back: args.iter().any(|a| a == "--fell-back"),
        dir: PathBuf::from(arg_val(args, "--dir").expect("--dir required")),
        duration_ms: arg_u64(args, "--duration-ms", 4_500),
        rate_ms: arg_u64(args, "--rate-ms", 25),
        joiner: args.iter().any(|a| a == "--joiner"),
        restart: args.iter().any(|a| a == "--restart"),
        incarnation: arg_u64(args, "--incarnation", 0) as u32,
        adds: args
            .iter()
            .zip(args.iter().skip(1))
            .filter(|(k, _)| *k == "--add")
            .filter_map(|(_, v)| {
                let (id, ms) = v.split_once('@')?;
                Some((id.parse().ok()?, ms.parse().ok()?))
            })
            .collect(),
    }
}

fn tcp_port(port_base: u16, id: u32) -> u16 {
    port_base + 1 + id as u16
}

#[allow(clippy::too_many_lines)]
fn run_member(args: &[String]) -> i32 {
    let a = parse_member(args);
    let clock = node::RuntimeClock::with_unix_epoch(a.epoch_us);
    let id = ProcessorId(a.id);

    // Durable delivery log: every member persists; a restart recovers the
    // log first and resumes its request counter past every request its
    // previous incarnation already delivered (exactly-once across kill -9).
    let log_dir = a.dir.join(format!("logs/P{}", a.id));
    let mut recovered_records = 0u64;
    let mut recover_us = 0u64;
    if a.restart {
        let t0 = Instant::now();
        match ftmp_store::RecoveredState::from_log(&log_dir) {
            Ok((state, stats)) => {
                recover_us = t0.elapsed().as_micros() as u64;
                recovered_records = stats.records_recovered;
                // The recovered per-connection delivery sets tell the new
                // incarnation what it already executed; what they can NOT
                // tell it is which of its old in-flight requests the
                // *survivors* went on to deliver after the crash. Request
                // numbers therefore carry the incarnation (an FT-CORBA
                // retry-id epoch): the new life never reuses a number, so
                // the group's duplicate suppression — which rightly drops
                // any reused (conn, request) — never splits the order.
                let own = state
                    .per_conn
                    .get(&conn())
                    .map(|reqs| {
                        reqs.iter()
                            .filter(|r| r.0 / 1_000_000 == u64::from(a.id))
                            .count()
                    })
                    .unwrap_or(0);
                eprintln!(
                    "P{}: recovered {} records ({} own deliveries) in {}us",
                    a.id, recovered_records, own, recover_us
                );
            }
            Err(e) => {
                eprintln!("P{}: recover failed: {e}", a.id);
                return 3;
            }
        }
    }
    std::fs::create_dir_all(&log_dir).expect("create log dir");
    let dlog =
        ftmp_store::DurableLog::open(&log_dir, ftmp_store::LogConfig::default()).expect("open log");

    let (rxq, rx) = transport::rx_channel();
    let udp = transport::UdpConfig {
        port: a.port_base,
        ..transport::UdpConfig::default()
    };
    let selected = if a.tcp {
        let listener = ftmp_runtime::sys::tcp_listener_reuse(SocketAddrV4::new(
            Ipv4Addr::LOCALHOST,
            tcp_port(a.port_base, a.id),
        ))
        .expect("bind mesh listener");
        let peers: Vec<SocketAddr> = a
            .all_ids
            .iter()
            .filter(|&&p| p != a.id)
            .map(|&p| {
                SocketAddr::V4(SocketAddrV4::new(
                    Ipv4Addr::LOCALHOST,
                    tcp_port(a.port_base, p),
                ))
            })
            .collect();
        let mut sel = transport::open_transport(
            transport::TransportSpec {
                mode: transport::TransportMode::TcpMesh,
                udp,
                tcp: Some(transport::TcpConfig::new(listener, peers)),
            },
            rxq,
        )
        .expect("open tcp mesh");
        // The parent made the fallback decision for the whole cluster;
        // carry it into this member's counters.
        sel.fell_back = a.fell_back;
        sel
    } else {
        transport::open_transport(
            transport::TransportSpec {
                mode: transport::TransportMode::UdpMulticast,
                udp,
                tcp: None,
            },
            rxq,
        )
        .expect("open udp multicast")
    };
    let kind = selected.kind;

    let trace = ftmp_runtime::TraceWriter::create(
        a.dir
            .join(format!("trace-P{}-i{}.trc", a.id, a.incarnation)),
        a.id,
        a.incarnation,
    )
    .expect("create trace");

    let mut cfg = if a.joiner {
        node::NodeConfig::joiner(id, GROUP, GROUP_ADDR)
    } else {
        node::NodeConfig::founder(
            id,
            GROUP,
            GROUP_ADDR,
            a.founders.iter().map(|&p| ProcessorId(p)).collect(),
        )
    };
    cfg.protocol = ProtocolConfig::default();
    cfg.clock = clock.clone();
    cfg.connection = Some((conn(), GROUP));
    cfg.stop_grace = Duration::from_millis(300);
    let handle = node::spawn(
        cfg,
        node::NodeParts {
            transport: selected,
            rx,
            dlog: Some(Box::new(dlog)),
            trace: Some(trace),
        },
    );

    // Scripted member loop: publish on cadence, sponsor scheduled adds,
    // sample end-to-end latency off the delivery stream.
    let mut joined = !a.joiner;
    let mut adds = a.adds.clone();
    let mut published = 0u64;
    let mut lat_us: Vec<u64> = Vec::new();
    let mut next_send_ms = T_SEND_START.max(clock.now().0 / 1_000 + a.rate_ms);
    let send_until = a.duration_ms.saturating_sub(QUIESCE_MS);
    loop {
        let now_ms = clock.now().0 / 1_000;
        if now_ms >= a.duration_ms {
            break;
        }
        while let Ok((_, ev)) = handle.events.recv_timeout(Duration::ZERO) {
            if matches!(ev, ProtocolEvent::JoinedGroup { .. }) {
                joined = true;
            }
        }
        while let Ok((at, d)) = handle.deliveries.recv_timeout(Duration::ZERO) {
            if d.giop.len() >= 8 {
                let sent = u64::from_le_bytes(d.giop[..8].try_into().unwrap());
                lat_us.push(at.0.saturating_sub(sent));
            }
        }
        adds.retain(|&(member, at_ms)| {
            if now_ms >= at_ms {
                handle.command(node::Command::AddMember(ProcessorId(member)));
                false
            } else {
                true
            }
        });
        if joined && now_ms >= next_send_ms && now_ms < send_until {
            let mut giop = clock.now().0.to_le_bytes().to_vec();
            giop.resize(64, a.id as u8);
            // id * 1M + incarnation * 100k + counter: request numbers are
            // globally unique across processes AND across one process's
            // incarnations (see the recovery comment above).
            let req = u64::from(a.id) * 1_000_000 + u64::from(a.incarnation) * 100_000 + published;
            handle.publish(conn(), RequestNum(req), Bytes::from(giop));
            published += 1;
            next_send_ms += a.rate_ms;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = handle.stop();

    lat_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat_us.is_empty() {
            0
        } else {
            lat_us[((lat_us.len() - 1) as f64 * p) as usize]
        }
    };
    let mut txt = String::new();
    let _ = writeln!(txt, "id={}", a.id);
    let _ = writeln!(txt, "incarnation={}", a.incarnation);
    let _ = writeln!(txt, "transport={}", kind.label());
    let _ = writeln!(txt, "fell_back={}", report.fell_back);
    let _ = writeln!(txt, "published={published}");
    let _ = writeln!(txt, "delivered={}", report.delivered);
    let _ = writeln!(txt, "sent_datagrams={}", report.sent_datagrams);
    let _ = writeln!(txt, "recv_datagrams={}", report.recv_datagrams);
    let _ = writeln!(txt, "publish_rejected={}", report.publish_rejected);
    let _ = writeln!(txt, "ticks={}", report.ticks);
    let _ = writeln!(txt, "lat_samples={}", lat_us.len());
    let _ = writeln!(txt, "lat_p50_us={}", pct(0.50));
    let _ = writeln!(txt, "lat_p99_us={}", pct(0.99));
    let _ = writeln!(txt, "recovered_records={recovered_records}");
    let _ = writeln!(txt, "recover_us={recover_us}");
    let _ = writeln!(
        txt,
        "final_members={}",
        report
            .final_members
            .iter()
            .map(|p| p.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(
        a.dir
            .join(format!("report-P{}-i{}.txt", a.id, a.incarnation)),
        txt,
    )
    .expect("write report");
    std::fs::write(
        a.dir
            .join(format!("metrics-P{}-i{}.json", a.id, a.incarnation)),
        report.metrics.to_json() + "\n",
    )
    .expect("write metrics");
    0
}

// --- parent process ---------------------------------------------------------

struct SeedOutcome {
    seed: u64,
    transport: &'static str,
    fell_back: bool,
    files: usize,
    observed: u64,
    delivered: u64,
    violations: u64,
    rejoins: u32,
    recovered_records: u64,
    deliveries_per_sec: f64,
    lat_p50_us: u64,
    lat_p99_us: u64,
    first_counterexample: Option<String>,
}

fn spawn_member(
    exe: &Path,
    dir: &Path,
    base: &[String],
    extra: &[String],
) -> std::io::Result<Child> {
    Proc::new(exe)
        .arg("member")
        .args(base)
        .args(extra)
        .arg("--dir")
        .arg(dir)
        .spawn()
}

#[allow(clippy::too_many_lines)]
fn run_parent(args: &[String]) -> i32 {
    let founders = 3u32;
    let joiner_id = 4u32;
    let victim = 2u32;
    let duration_ms = arg_u64(args, "--duration-ms", 4_500);
    let rate_ms = arg_u64(args, "--rate-ms", 25);
    let port_base = arg_u64(args, "--port-base", 47_700) as u16;
    let force_tcp = args.iter().any(|a| a == "--tcp");
    let out_dir = PathBuf::from(arg_val(args, "--dir").unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("ftmp-cluster-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }));
    let out_json = arg_val(args, "--out").unwrap_or_else(|| "results/e18.json".into());
    let seeds = seed_budget(1).min(4);
    let exe = std::env::current_exe().expect("current_exe");

    let all_ids: Vec<u32> = (1..=founders).chain([joiner_id]).collect();
    let founder_list = (1..=founders)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let all_list = all_ids
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let mut outcomes: Vec<SeedOutcome> = Vec::new();
    for seed in 0..seeds {
        let run_dir = out_dir.join(format!("seed{seed}"));
        std::fs::create_dir_all(&run_dir).expect("create run dir");
        let run_port = port_base + (seed as u16) * 8;

        // One transport decision for the whole cluster: a mixed cluster
        // would partition.
        let udp = transport::UdpConfig {
            port: run_port,
            ..transport::UdpConfig::default()
        };
        let multicast = !force_tcp && transport::multicast_available(&udp);
        let fell_back = !force_tcp && !multicast;
        let (t_label, mut t_flags) = if multicast {
            ("udp-multicast", vec![])
        } else {
            ("tcp-mesh", vec!["--tcp".to_string()])
        };
        if fell_back {
            t_flags.push("--fell-back".to_string());
        }
        println!(
            "[e18 seed {seed}] transport={t_label}{} port-base={run_port} dir={}",
            if fell_back { " (fell back)" } else { "" },
            run_dir.display()
        );

        let epoch_us = unix_micros() + 200_000;
        let epoch_at = Instant::now() + Duration::from_millis(200);
        let base: Vec<String> = [
            "--founders",
            &founder_list,
            "--all",
            &all_list,
            "--epoch-us",
            &epoch_us.to_string(),
            "--port-base",
            &run_port.to_string(),
            "--duration-ms",
            &duration_ms.to_string(),
            "--rate-ms",
            &rate_ms.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .chain(t_flags.iter().cloned())
        .collect();

        let mut children: Vec<(u32, Child)> = Vec::new();
        for fid in 1..=founders {
            let mut extra = vec!["--id".to_string(), fid.to_string()];
            if fid == 1 {
                // P1 sponsors the joiner and the restarted victim.
                extra.extend(["--add".into(), format!("{joiner_id}@{T_JOIN}")]);
                extra.extend(["--add".into(), format!("{victim}@{T_READD}")]);
            }
            children.push((
                fid,
                spawn_member(&exe, &run_dir, &base, &extra).expect("spawn founder"),
            ));
        }

        let until = |ms: u64| {
            let target = epoch_at + Duration::from_millis(ms);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        };

        until(T_SPAWN_JOINER);
        children.push((
            joiner_id,
            spawn_member(
                &exe,
                &run_dir,
                &base,
                &[
                    "--id".to_string(),
                    joiner_id.to_string(),
                    "--joiner".to_string(),
                ],
            )
            .expect("spawn joiner"),
        ));

        until(T_KILL);
        let v = children
            .iter_mut()
            .find(|(id, _)| *id == victim)
            .expect("victim child");
        v.1.kill().expect("kill -9 victim");
        println!("[e18 seed {seed}] killed P{victim} (SIGKILL)");

        until(T_RESTART);
        children.push((
            victim,
            spawn_member(
                &exe,
                &run_dir,
                &base,
                &[
                    "--id".to_string(),
                    victim.to_string(),
                    "--joiner".to_string(),
                    "--restart".to_string(),
                    "--incarnation".to_string(),
                    "1".to_string(),
                ],
            )
            .expect("respawn victim"),
        ));

        let mut ok = true;
        for (id, mut child) in children {
            let status = child.wait().expect("wait child");
            if !status.success() && id != victim {
                eprintln!("[e18 seed {seed}] P{id} exited with {status}");
                ok = false;
            }
        }
        if !ok {
            eprintln!("[e18 seed {seed}] member failure; aborting");
            return 2;
        }

        // Replay every member trace through the seven oracles.
        let files = read_trace_dir(&run_dir).expect("read traces");
        let founder_ids: Vec<ProcessorId> = (1..=founders).map(ProcessorId).collect();
        let live: Vec<ProcessorId> = all_ids.iter().map(|&i| ProcessorId(i)).collect();
        let report = replay_traces(GROUP, &founder_ids, &files, &live);
        println!(
            "[e18 seed {seed}] replay: files={} observed={} delivered={} rejoins={} violations={}",
            report.files, report.observed, report.delivered, report.rejoins, report.violations
        );
        if let Some(cex) = &report.first_counterexample {
            eprintln!("{cex}");
        }

        // Aggregate member self-reports.
        let mut recovered_records = 0u64;
        let mut lat_p50 = Vec::new();
        let mut lat_p99 = Vec::new();
        for entry in std::fs::read_dir(&run_dir).expect("read run dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("report-") && name.ends_with(".txt")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read member report");
            let field = |k: &str| -> u64 {
                text.lines()
                    .find_map(|l| l.strip_prefix(&format!("{k}=")))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            recovered_records += field("recovered_records");
            if field("lat_samples") > 0 {
                lat_p50.push(field("lat_p50_us"));
                lat_p99.push(field("lat_p99_us"));
            }
        }
        lat_p50.sort_unstable();
        lat_p99.sort_unstable();
        let traffic_secs = (duration_ms.saturating_sub(QUIESCE_MS)) as f64 / 1_000.0;
        outcomes.push(SeedOutcome {
            seed,
            transport: t_label,
            fell_back,
            files: report.files,
            observed: report.observed,
            delivered: report.delivered,
            violations: report.violations,
            rejoins: report.rejoins,
            recovered_records,
            deliveries_per_sec: report.delivered as f64 / traffic_secs,
            lat_p50_us: lat_p50.get(lat_p50.len() / 2).copied().unwrap_or(0),
            lat_p99_us: lat_p99.last().copied().unwrap_or(0),
            first_counterexample: report.first_counterexample.clone(),
        });
    }

    // Simulator parity baseline: the same fault shape (crash + durable-log
    // restart) through the same oracles, in virtual time. Parameters match
    // the pinned conformance cell.
    let sim = run_cell(Scenario::CrashRestart, 0x5EED, 36, 4096);
    println!(
        "[e18 sim] crash-restart cell: observed={} delivered={} violations={}",
        sim.observations, sim.delivered, sim.violations
    );

    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"e18-cluster\",\n");
    let _ = writeln!(
        j,
        "  \"schedule\": {{\"members\": {founders}, \"join_ms\": {T_JOIN}, \"kill9_ms\": {T_KILL}, \"restart_ms\": {T_RESTART}, \"duration_ms\": {duration_ms}, \"rate_ms\": {rate_ms}}},"
    );
    let _ = writeln!(
        j,
        "  \"sim_baseline\": {{\"scenario\": \"{}\", \"observed\": {}, \"delivered\": {}, \"violations\": {}}},",
        sim.scenario, sim.observations, sim.delivered, sim.violations
    );
    j.push_str("  \"runs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"seed\": {}, \"transport\": \"{}\", \"fell_back\": {}, \"trace_files\": {}, \
             \"observed\": {}, \"delivered\": {}, \"violations\": {}, \"rejoins\": {}, \
             \"recovered_records\": {}, \"deliveries_per_sec\": {:.0}, \
             \"e2e_p50_us\": {}, \"e2e_p99_us\": {}, \"counterexample\": {}}}{}",
            o.seed,
            o.transport,
            o.fell_back,
            o.files,
            o.observed,
            o.delivered,
            o.violations,
            o.rejoins,
            o.recovered_records,
            o.deliveries_per_sec,
            o.lat_p50_us,
            o.lat_p99_us,
            match &o.first_counterexample {
                Some(c) => format!("{:?}", c.replace(['\n', '"'], " ")),
                None => "null".to_string(),
            },
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    if let Some(parent) = Path::new(&out_json).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(&out_json, &j).expect("write e18 json");
    println!("{j}");

    if let Ok(mdir) = std::env::var("FTMP_METRICS_DIR") {
        // Merge every member's runtime-layer snapshot into one registry.
        let mut reg = ftmp_telemetry::Registry::new();
        let c_runs = reg.counter("e18_runs");
        reg.inc(c_runs, outcomes.len() as u64);
        let c_viol = reg.counter("e18_violations");
        reg.inc(c_viol, outcomes.iter().map(|o| o.violations).sum());
        let c_deliv = reg.counter("e18_delivered");
        reg.inc(c_deliv, outcomes.iter().map(|o| o.delivered).sum());
        std::fs::create_dir_all(&mdir).expect("metrics dir");
        std::fs::write(
            Path::new(&mdir).join("e18_metrics.json"),
            reg.snapshot().to_json() + "\n",
        )
        .expect("write e18 metrics");
        // Member snapshots ride along verbatim.
        for o in &outcomes {
            let run_dir = out_dir.join(format!("seed{}", o.seed));
            if let Ok(entries) = std::fs::read_dir(&run_dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.starts_with("metrics-") && name.ends_with(".json") {
                        let dst = Path::new(&mdir).join(format!("e18_seed{}_{}", o.seed, name));
                        let _ = std::fs::copy(entry.path(), dst);
                    }
                }
            }
        }
    }

    let total_violations: u64 = outcomes.iter().map(|o| o.violations).sum();
    if total_violations > 0 || sim.violations > 0 {
        eprintln!("e18: ORACLE VIOLATIONS DETECTED");
        return 1;
    }
    println!(
        "e18: clean — {} seed(s), sim parity clean, transport(s): {}",
        outcomes.len(),
        outcomes
            .iter()
            .map(|o| o.transport)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .join(", ")
    );
    0
}
