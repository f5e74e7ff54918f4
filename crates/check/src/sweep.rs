//! The schedule-sweep driver: run a seeded workload under every fault
//! scenario in the matrix with all oracles attached, and report per-cell
//! verdicts with a counterexample (first violating observation plus the
//! filtered trace window) on failure.

use bytes::Bytes;
use ftmp_core::{
    wire, ClockMode, ConnectionId, GroupId, ObjectGroupId, OverlayPolicy, PackPolicy, Packing,
    Processor, ProcessorId, ProtocolConfig, RequestNum, SimProcessor, TimerPolicy,
};
use ftmp_net::{
    FaultPlan, LinkDegrade, LinkSelector, LossModel, McastAddr, NodeId, SimConfig, SimDuration,
    SimNet, SimTime,
};
use ftmp_telemetry::escape_json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use crate::report;
use crate::suite::Checker;

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);
const FOUNDERS: u32 = 4;
/// Logical connections bound in the [`Scenario::ConnSoak`] cell.
const SOAK_CONNS: u32 = 10_000;

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// One fault scenario of the sweep matrix (ISSUE: loss, burst,
/// partition+heal, crash, join/leave churn, latency spikes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Perfect network: the baseline cell.
    Lossless,
    /// Independent 8% loss per (packet, receiver).
    IidLoss,
    /// Gilbert–Elliott burst loss with latency jitter.
    BurstLoss,
    /// A minority partition mid-run, healed later; the minority is excluded
    /// and learns of it after the heal.
    PartitionHeal,
    /// One founder crashes mid-run; the survivors reconfigure.
    Crash,
    /// A join and a voluntary leave, serialized per §7.1, with traffic
    /// throughout.
    Churn,
    /// A latency×20 + extra-loss window on one member's outbound links,
    /// ridden out under adaptive timers.
    LatencySpike,
    /// 10 000 logical connections bound to the one processor group, with
    /// traffic spread across random connections — the engine's connection
    /// table under the full oracle suite (no ORB endpoint sits above it).
    ConnSoak,
    /// One founder (with a durable delivery log attached) crashes
    /// mid-traffic, restarts from its log later in the run, and rejoins
    /// under the same processor id — the DESIGN.md §12 recovery path, with
    /// all seven oracles checking across the restart boundary.
    CrashRestart,
    /// A 64- or 128-member group (seed parity picks the size) running the
    /// tree-mode dissemination overlay with packing on, plus a join and a
    /// leave mid-run: each view change forces an overlay rebuild with all
    /// seven oracles watching (DESIGN.md §13).
    LargeGroup,
    /// One founder's *outbound* links go dark mid-run while its inbound
    /// side keeps flowing: the survivors convict it, and — unlike
    /// [`PartitionHeal`](Scenario::PartitionHeal) — the victim hears the
    /// Membership message excluding it in real time and must leave through
    /// the exclusion-notice path while still receiving traffic.
    AsymmetricPartition,
    /// Persistent 50% loss on the single directed link 2→3 for the whole
    /// run (a half-broken NIC): NACK recovery carries one direction of one
    /// link indefinitely while suspicion stays asymmetric.
    OneWayLoss,
    /// Every member stamps with E4's synchronized-clock source
    /// ([`ClockMode::Synchronized`]) under per-member skews spanning
    /// ±30 ms, exercising the Lamport floor that keeps timestamps — and so
    /// total order — monotone despite physical-clock disagreement.
    ClockSkew,
}

impl Scenario {
    /// The full matrix.
    pub const ALL: [Scenario; 13] = [
        Scenario::Lossless,
        Scenario::IidLoss,
        Scenario::BurstLoss,
        Scenario::PartitionHeal,
        Scenario::Crash,
        Scenario::Churn,
        Scenario::LatencySpike,
        Scenario::ConnSoak,
        Scenario::CrashRestart,
        Scenario::LargeGroup,
        Scenario::AsymmetricPartition,
        Scenario::OneWayLoss,
        Scenario::ClockSkew,
    ];

    /// The conformance-job matrix: every scenario except
    /// [`LargeGroup`](Scenario::LargeGroup), whose 64/128-member cells cost
    /// as much as the rest of the matrix combined and run in the dedicated
    /// `large-group` CI job. New axes added to [`ALL`](Scenario::ALL) are
    /// picked up here (and by `sweep_smoke`) automatically.
    pub fn matrix() -> Vec<Scenario> {
        Scenario::ALL
            .into_iter()
            .filter(|s| *s != Scenario::LargeGroup)
            .collect()
    }

    /// Stable name for verdicts and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Lossless => "lossless",
            Scenario::IidLoss => "iid-loss",
            Scenario::BurstLoss => "burst-loss",
            Scenario::PartitionHeal => "partition-heal",
            Scenario::Crash => "crash",
            Scenario::Churn => "churn",
            Scenario::LatencySpike => "latency-spike",
            Scenario::ConnSoak => "conn-soak-10k",
            Scenario::CrashRestart => "crash-restart",
            Scenario::LargeGroup => "large-group",
            Scenario::AsymmetricPartition => "asymmetric-partition",
            Scenario::OneWayLoss => "one-way-loss",
            Scenario::ClockSkew => "clock-skew",
        }
    }

    /// Scenario by stable name (corpus-manifest decoding).
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Timestamp source for member `id` in this scenario: everything runs
    /// Lamport except the clock-skew cell, where members stamp from
    /// synchronized physical clocks disagreeing by up to ±30 ms.
    fn clock(self, id: u32) -> ClockMode {
        match self {
            Scenario::ClockSkew => ClockMode::Synchronized {
                skew_us: (id as i64 % 5 - 2) * 15_000,
            },
            _ => ClockMode::Lamport,
        }
    }

    /// Protocol shaping shared by a cell's founders *and* any member joining
    /// mid-run: the overlay scenario needs joiners to speak tree mode too,
    /// or the new member would never subscribe to its neighborhood.
    fn shape(self, proto: ProtocolConfig) -> ProtocolConfig {
        match self {
            Scenario::LargeGroup => proto
                .packing(Packing::with(
                    1400,
                    PackPolicy::Deadline(SimDuration::from_micros(500)),
                ))
                .overlay(OverlayPolicy::Tree { arity: 4 }),
            _ => proto,
        }
    }

    /// Founding-member count: LargeGroup alternates 64/128 by seed parity
    /// so a multi-seed sweep covers both sizes; every other cell keeps the
    /// classic 4-founder group.
    fn founders(self, seed: u64) -> u32 {
        match self {
            Scenario::LargeGroup => {
                if seed.is_multiple_of(2) {
                    128
                } else {
                    64
                }
            }
            _ => FOUNDERS,
        }
    }
}

/// Sweep shape: seeds × scenarios, workload length, trace capture size.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First seed; cells run `base_seed..base_seed + seeds_per_scenario`.
    pub base_seed: u64,
    /// Seeds per scenario.
    pub seeds_per_scenario: u64,
    /// Workload steps per cell (each step: one multicast + 1–10 ms).
    pub steps: usize,
    /// Trace ring capacity per cell (records).
    pub trace_capacity: usize,
    /// Scenarios to run.
    pub scenarios: Vec<Scenario>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base_seed: 0x5EED,
            seeds_per_scenario: seed_budget(2),
            steps: 60,
            trace_capacity: 4096,
            scenarios: Scenario::ALL.to_vec(),
        }
    }
}

/// Seeds per scenario from the `CONFORMANCE_SEEDS` environment variable
/// (the `CHAOS_SEEDS` convention), else `default`.
pub fn seed_budget(default: u64) -> u64 {
    std::env::var("CONFORMANCE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// One (scenario, seed) execution's outcome.
#[derive(Debug, Clone)]
pub struct CellVerdict {
    /// Scenario name.
    pub scenario: &'static str,
    /// Seed of this execution.
    pub seed: u64,
    /// Observations the oracles consumed.
    pub observations: u64,
    /// Ordered deliveries among them.
    pub delivered: u64,
    /// Oracle violations (0 = conformant).
    pub violations: u64,
    /// On failure: first violating observation with context, plus the
    /// FTMP-filtered trace window (truncation flagged).
    pub counterexample: Option<String>,
}

/// The whole matrix's verdicts.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// One verdict per (scenario, seed) cell.
    pub cells: Vec<CellVerdict>,
}

impl SweepReport {
    /// Zero violations everywhere?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.violations == 0)
    }

    /// Number of executions.
    pub fn executions(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Total observations checked.
    pub fn observations(&self) -> u64 {
        self.cells.iter().map(|c| c.observations).sum()
    }

    /// Total ordered deliveries checked.
    pub fn delivered(&self) -> u64 {
        self.cells.iter().map(|c| c.delivered).sum()
    }

    /// Total violations.
    pub fn violations(&self) -> u64 {
        self.cells.iter().map(|c| c.violations).sum()
    }

    /// The E13 metric: violations per 10 000 executions.
    pub fn violations_per_10k(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.violations() as f64 * 10_000.0 / self.executions() as f64
    }

    /// Failing cells.
    pub fn failures(&self) -> impl Iterator<Item = &CellVerdict> {
        self.cells.iter().filter(|c| c.violations > 0)
    }

    /// Hand-rolled JSON (the workspace has no serde), mirroring the
    /// harness report format: suitable as a CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"executions\": {},\n", self.executions()));
        s.push_str(&format!("  \"observations\": {},\n", self.observations()));
        s.push_str(&format!("  \"delivered\": {},\n", self.delivered()));
        s.push_str(&format!("  \"violations\": {},\n", self.violations()));
        s.push_str(&format!(
            "  \"violations_per_10k\": {:.3},\n",
            self.violations_per_10k()
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let cx = match &c.counterexample {
                Some(text) => format!(", \"counterexample\": \"{}\"", escape_json(text)),
                None => String::new(),
            };
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"seed\": {}, \"observations\": {}, \
                 \"delivered\": {}, \"violations\": {}{}}}{}\n",
                c.scenario,
                c.seed,
                c.observations,
                c.delivered,
                c.violations,
                cx,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Run the full matrix.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for &scenario in &cfg.scenarios {
        for seed in cfg.base_seed..cfg.base_seed + cfg.seeds_per_scenario {
            report
                .cells
                .push(run_cell(scenario, seed, cfg.steps, cfg.trace_capacity));
        }
    }
    report
}

struct Cell {
    scenario: Scenario,
    net: SimNet<SimProcessor>,
    checker: Checker,
    rng: SmallRng,
    members: BTreeSet<u32>,
    crashed: BTreeSet<u32>,
    next_req: u64,
    /// Connections the workload spreads over (one for every scenario but
    /// ConnSoak). Request numbers stay monotone over all of them, matching
    /// §4's allocation rule.
    conns: Vec<ConnectionId>,
    /// Durable-log directory of the crash-restart victim, when the
    /// scenario persists deliveries.
    dlog_dir: Option<std::path::PathBuf>,
}

impl Cell {
    fn alive(&self) -> Vec<u32> {
        self.members
            .iter()
            .copied()
            .filter(|id| !self.crashed.contains(id))
            .collect()
    }

    fn send_random(&mut self) {
        let alive = self.alive();
        if alive.is_empty() {
            return;
        }
        let id = alive[self.rng.gen_range(0..alive.len())];
        let on = self.conns[self.rng.gen_range(0..self.conns.len())];
        self.next_req += 1;
        let req = RequestNum(self.next_req);
        let len = self.rng.gen_range(8..256usize);
        self.net.with_node(id, move |n, now, out| {
            let _ = n
                .engine_mut()
                .multicast_request(now, on, req, Bytes::from(vec![0u8; len]));
            n.pump_at(now, out);
        });
    }

    fn step(&mut self) {
        self.send_random();
        let pause = self.rng.gen_range(1..10u64);
        self.net.run_for(SimDuration::from_millis(pause));
    }

    fn join(&mut self, joiner: u32, sponsor: u32) {
        let seed = self.rng.gen();
        let mut e = Processor::new(
            ProcessorId(joiner),
            self.scenario.shape(ProtocolConfig::with_seed(seed)),
            self.scenario.clock(joiner),
        );
        e.expect_join(GROUP, ADDR);
        e.bind_connection(conn(), GROUP);
        e.enable_telemetry();
        self.net.add_node(joiner, SimProcessor::new(e));
        self.checker.attach(&mut self.net, joiner);
        self.net
            .with_node(joiner, |n, now, out| n.pump_at(now, out));
        self.net.with_node(sponsor, move |n, now, out| {
            n.engine_mut()
                .add_processor(now, GROUP, ProcessorId(joiner));
            n.pump_at(now, out);
        });
        self.members.insert(joiner);
        // §7.1: membership changes are serialized — let this one complete.
        self.net.run_for(SimDuration::from_millis(500));
    }

    /// Restart a crashed member from its durable log (DESIGN.md §12):
    /// recover the log — asserting the clean crash left nothing to
    /// quarantine — rebuild a fresh engine under the **same** processor id,
    /// reattach a log on the same directory, and rejoin via a sponsored
    /// §7.1 add. The checker is told about the rejoin so observer-keyed
    /// oracle state resets while the one-history oracles keep checking
    /// across the boundary. Returns what the log recovered to.
    fn restart_from_log(&mut self, id: u32, sponsor: u32) -> ftmp_store::RecoveredState {
        let dir = self
            .dlog_dir
            .clone()
            .expect("restart requires a durable-log scenario");
        let recovered = ftmp_store::recover(&dir).expect("recover victim log");
        assert_eq!(
            recovered.stats.records_quarantined, 0,
            "clean crash must recover without quarantine"
        );
        let state = ftmp_store::RecoveredState::from_records(&recovered.records);
        assert_eq!(state.delivered + view_records(&recovered.records), {
            recovered.records.len() as u64
        });
        let seed = self.rng.gen();
        let mut e = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(seed),
            self.scenario.clock(id),
        );
        e.expect_join(GROUP, ADDR);
        for &c in &self.conns {
            e.bind_connection(c, GROUP);
        }
        e.enable_telemetry();
        let log = ftmp_store::DurableLog::open(&dir, ftmp_store::LogConfig::default())
            .expect("reopen victim log");
        e.set_delivery_log(Box::new(log));
        self.net.revive(id, SimProcessor::new(e));
        self.checker.attach(&mut self.net, id);
        self.checker.rejoin(id);
        self.net.with_node(id, |n, now, out| n.pump_at(now, out));
        self.net.with_node(sponsor, move |n, now, out| {
            n.engine_mut().add_processor(now, GROUP, ProcessorId(id));
            n.pump_at(now, out);
        });
        self.crashed.remove(&id);
        self.members.insert(id);
        // §7.1: membership changes are serialized — let this one complete.
        self.net.run_for(SimDuration::from_millis(500));
        state
    }

    fn leave(&mut self, leaver: u32, sponsor: u32) {
        self.net.with_node(sponsor, move |n, now, out| {
            n.engine_mut()
                .remove_processor(now, GROUP, ProcessorId(leaver));
            n.pump_at(now, out);
        });
        self.members.remove(&leaver);
        self.checker.retire(leaver);
        self.net.run_for(SimDuration::from_millis(500));
    }
}

/// Build one cell: the simulated 4-founder group (telemetry on, so failure
/// reports can splice flight-recorder dumps) with the oracle suite attached.
fn build_cell(scenario: Scenario, seed: u64, trace_capacity: usize) -> Cell {
    let mut sim = SimConfig::with_seed(seed);
    let mut proto = ProtocolConfig::with_seed(seed);
    match scenario {
        Scenario::Lossless
        | Scenario::PartitionHeal
        | Scenario::Crash
        | Scenario::Churn
        | Scenario::ConnSoak
        | Scenario::CrashRestart
        | Scenario::LargeGroup
        | Scenario::AsymmetricPartition
        | Scenario::ClockSkew => {}
        Scenario::OneWayLoss => {
            // A half-broken NIC: the whole run, one direction of one link.
            sim = sim.degrade(LinkDegrade::lossy(
                SimTime::ZERO,
                SimTime(u64::MAX),
                LinkSelector::Link(vec![(2, 3)]),
                0.5,
            ));
        }
        Scenario::IidLoss => {
            sim = sim.loss(LossModel::Iid { p: 0.08 });
        }
        Scenario::BurstLoss => {
            sim = sim.loss(LossModel::Burst {
                p_good: 0.01,
                p_bad: 0.6,
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
            });
        }
        Scenario::LatencySpike => {
            sim = sim.degrade(LinkDegrade {
                from: SimTime(150_000),
                until: SimTime(500_000),
                links: LinkSelector::From(vec![1]),
                latency_factor: 20.0,
                extra_loss: 0.25,
            });
            proto = proto
                .fail_timeout_of(SimDuration::from_millis(30))
                .timer_policy(TimerPolicy::Adaptive);
        }
    }
    let proto = scenario.shape(proto);
    let founders_n = scenario.founders(seed);
    let mut net = SimNet::new(sim);
    net.set_classifier(wire::classify);
    net.enable_trace(trace_capacity);
    let founders: Vec<ProcessorId> = (1..=founders_n).map(ProcessorId).collect();
    let checker = Checker::new(GROUP, &founders);
    // §7: several logical connections share one processor group and one
    // multicast address; the soak binds ten thousand of them.
    let conns: Vec<ConnectionId> = if scenario == Scenario::ConnSoak {
        (0..SOAK_CONNS)
            .map(|i| ConnectionId::new(ObjectGroupId::new(3, i), ObjectGroupId::new(4, i)))
            .collect()
    } else {
        vec![conn()]
    };
    for id in 1..=founders_n {
        let mut e = Processor::new(ProcessorId(id), proto.clone(), scenario.clock(id));
        e.create_group(SimTime::ZERO, GROUP, ADDR, founders.clone());
        for &c in &conns {
            e.bind_connection(c, GROUP);
        }
        e.enable_telemetry();
        net.add_node(id, SimProcessor::new(e));
        checker.attach(&mut net, id);
        net.with_node(id, |n, now, out| n.pump_at(now, out));
    }
    // The crash-restart victim persists its deliveries; a small segment
    // size makes the run span several segments.
    let dlog_dir = (scenario == Scenario::CrashRestart).then(|| {
        let dir = ftmp_store::scratch_dir("sweep-crash-restart");
        let log = ftmp_store::DurableLog::open(
            &dir,
            ftmp_store::LogConfig {
                segment_bytes: 4096,
            },
        )
        .expect("open victim log");
        net.with_node(FOUNDERS, move |n, _, _| {
            n.engine_mut().set_delivery_log(Box::new(log));
        });
        dir
    });
    Cell {
        scenario,
        net,
        checker,
        rng: SmallRng::seed_from_u64(seed ^ 0x00C0_4F0C_A11E_D5EE),
        members: (1..=founders_n).collect(),
        crashed: BTreeSet::new(),
        next_req: 0,
        conns,
        dlog_dir,
    }
}

/// ViewChange records in a recovered stream.
fn view_records(records: &[ftmp_store::LogRecord]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r, ftmp_store::LogRecord::ViewChange(_)))
        .count() as u64
}

/// Render a failing cell's counterexample: the first violating observation
/// with its context window, the FTMP-filtered trace excerpt, and every live
/// member's flight-recorder dump (the conviction-frozen dump when one was
/// captured, else the live ring).
fn build_counterexample(cell: &Cell, live: &[NodeId]) -> String {
    let mut cx = cell.checker.with_suite(|s| {
        let mut by: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for v in s.violations() {
            *by.entry(v.oracle).or_default() += 1;
        }
        let breakdown: Vec<String> = by.iter().map(|(o, n)| format!("{o}={n}")).collect();
        format!(
            "violations by oracle: {}\n{}",
            breakdown.join(", "),
            s.first_counterexample().unwrap_or_default()
        )
    });
    if let Some(trace) = cell.net.trace() {
        cx.push_str(&report::excerpt(trace, 40).to_string());
    }
    for &id in live {
        if let Some(n) = cell.net.node(id) {
            let eng = n.engine();
            if let Some(dump) = eng.conviction_dump().or_else(|| eng.flight_dump()) {
                cx.push('\n');
                cx.push_str(&dump);
            }
        }
    }
    cx
}

/// Run one (scenario, seed) cell: build a 4-founder group with the full
/// oracle suite attached, drive the seeded workload and the scenario's
/// fault schedule, settle, and collect the verdict.
pub fn run_cell(scenario: Scenario, seed: u64, steps: usize, trace_capacity: usize) -> CellVerdict {
    run_cell_instrumented(scenario, seed, steps, trace_capacity, None).0
}

/// [`run_cell`] plus the coverage instrument: an optional targeted
/// [`FaultPlan`] installed before the schedule runs, and the cell's merged
/// metrics snapshot (every live member's
/// [`register_metrics`](ftmp_core::Processor::register_metrics) view merged
/// in id order, plus sweep- and network-level counters). The snapshot's
/// [`buckets`] signature is the coverage map the explorer feeds on
/// (DESIGN.md §15).
///
/// [`buckets`]: ftmp_telemetry::Snapshot::buckets
pub fn run_cell_instrumented(
    scenario: Scenario,
    seed: u64,
    steps: usize,
    trace_capacity: usize,
    plan: Option<&FaultPlan>,
) -> (CellVerdict, ftmp_telemetry::Snapshot) {
    let mut cell = build_cell(scenario, seed, trace_capacity);
    if let Some(p) = plan {
        cell.net.set_fault_plan(p.clone());
    }
    for step in 0..steps.max(12) {
        match scenario {
            Scenario::Crash if step == steps / 3 => {
                // Keep a live majority of 4 so conviction stays possible.
                cell.net.crash(4);
                cell.crashed.insert(4);
                cell.checker.retire(4);
            }
            Scenario::CrashRestart if step == steps / 3 => {
                cell.net.crash(FOUNDERS);
                cell.crashed.insert(FOUNDERS);
                cell.checker.retire(FOUNDERS);
            }
            Scenario::CrashRestart if step == (steps * 2) / 3 => {
                let sponsor = cell.alive()[0];
                cell.restart_from_log(FOUNDERS, sponsor);
            }
            Scenario::PartitionHeal if step == steps / 4 => {
                cell.net.partition(vec![vec![1, 2, 3], vec![4]]);
            }
            Scenario::AsymmetricPartition if step == steps / 4 => {
                // P4's outbound side goes dark; its inbound side still
                // flows, so it watches its own conviction happen live.
                for dst in 1..=3 {
                    cell.net.block_link(4, dst);
                }
            }
            Scenario::AsymmetricPartition if step == (steps * 3) / 4 => {
                for dst in 1..=3 {
                    cell.net.unblock_link(4, dst);
                }
                cell.checker.retire(4);
            }
            Scenario::PartitionHeal if step == (steps * 3) / 4 => {
                // The majority convicted P4 during the partition; after the
                // heal it learns of its exclusion and leaves.
                cell.net.heal();
                cell.checker.retire(4);
            }
            Scenario::Churn if step == steps / 3 => {
                let sponsor = cell.alive()[0];
                cell.join(FOUNDERS + 1, sponsor);
            }
            Scenario::Churn if step == (steps * 2) / 3 => {
                let alive = cell.alive();
                if alive.len() >= 3 && alive.contains(&2) {
                    let sponsor = *alive.iter().find(|&&id| id != 2).expect("majority");
                    cell.leave(2, sponsor);
                }
            }
            // Overlay churn: a join then a leave, each installing a view
            // that rebuilds every member's dissemination tree mid-traffic.
            Scenario::LargeGroup if step == steps / 3 => {
                let sponsor = cell.alive()[0];
                let joiner = cell.members.iter().max().copied().unwrap_or(0) + 1;
                cell.join(joiner, sponsor);
            }
            Scenario::LargeGroup if step == (steps * 2) / 3 => {
                let alive = cell.alive();
                if alive.contains(&2) {
                    let sponsor = *alive.iter().find(|&&id| id != 2).expect("majority");
                    cell.leave(2, sponsor);
                }
            }
            _ => {}
        }
        cell.step();
    }
    // Settle: drain retransmissions, complete any reconfiguration.
    cell.net.run_for(SimDuration::from_secs(3));
    // The processors expected to have converged: alive and still members.
    let live: Vec<NodeId> = cell
        .alive()
        .into_iter()
        .filter(|&id| {
            cell.net
                .node(id)
                .is_some_and(|n| n.engine().membership(GROUP).is_some())
        })
        .collect();
    // A hostile enough schedule (explorer mutants can black-hole every
    // link) may dissolve the whole group — mutual suspicion convicts
    // everyone and the last survivors leave. That is a legal outcome, not
    // a harness error: there is no view left to converge, so the
    // finish-time checks are vacuous, while any safety violation observed
    // *en route* has already been recorded.
    if !live.is_empty() {
        cell.checker.finish(live.iter().copied());
    }
    let violations = cell.checker.violation_count();
    let counterexample = (violations > 0).then(|| build_counterexample(&cell, &live));
    let verdict = CellVerdict {
        scenario: scenario.name(),
        seed,
        observations: cell.checker.observed(),
        delivered: cell.checker.delivered(),
        violations,
        counterexample,
    };
    let snapshot = aggregate_snapshot(&cell, &live, &verdict);
    if let Some(dir) = &cell.dlog_dir {
        drop(cell.net); // close the victim's log before deleting it
        let _ = std::fs::remove_dir_all(dir);
    }
    (verdict, snapshot)
}

/// Merge the live members' metrics views (in id order — counters add,
/// histograms merge, gauges take the cross-member maximum) and append
/// sweep- and network-level counters: one snapshot summarizing everything
/// this execution made the protocol do.
fn aggregate_snapshot(
    cell: &Cell,
    live: &[NodeId],
    verdict: &CellVerdict,
) -> ftmp_telemetry::Snapshot {
    let mut agg = ftmp_telemetry::Registry::new();
    for &id in live {
        if let Some(n) = cell.net.node(id) {
            n.engine().register_metrics(&mut agg);
        }
    }
    for (name, v) in [
        ("sweep_observations", verdict.observations),
        ("sweep_delivered", verdict.delivered),
        ("sweep_violations", verdict.violations),
        ("net_sent_packets", cell.net.stats().sent_packets),
        ("net_sent_messages", cell.net.stats().sent_messages),
        ("net_delivered", cell.net.stats().delivered),
        ("net_lost", cell.net.stats().lost),
        ("net_partitioned", cell.net.stats().partitioned),
        ("net_to_crashed", cell.net.stats().to_crashed),
    ] {
        let c = agg.counter(name);
        agg.inc(c, v);
    }
    for (kind, (packets, _bytes)) in &cell.net.stats().per_kind {
        let c = agg.counter(&format!("net_kind_{kind:#04x}_packets"));
        agg.inc(c, *packets);
    }
    agg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Event;
    use ftmp_core::observe::Observation;
    use ftmp_core::{SeqNum, Timestamp};

    /// The recovery path end to end inside the sweep: a founder with a
    /// durable log crashes mid-traffic, restarts from the log, rejoins
    /// under its old id, and the whole run — across the restart boundary —
    /// stays conformant under all seven oracles.
    #[test]
    fn crash_restart_cell_runs_clean_across_the_boundary() {
        let v = run_cell(Scenario::CrashRestart, 0x5EED, 36, 4096);
        assert_eq!(
            v.violations,
            0,
            "{}",
            v.counterexample.as_deref().unwrap_or("no counterexample")
        );
        assert!(v.delivered > 0, "workload must deliver");
    }

    /// Cut the last `k` records off the log at `dir`, at a frame boundary:
    /// what a crash leaves of a log whose host had not reached its turn
    /// boundary (DESIGN.md §12, durability point). Returns the records cut.
    fn chop_log_tail(dir: &std::path::Path, k: usize) -> Vec<ftmp_store::LogRecord> {
        let mut records = ftmp_store::recover(dir).expect("recover").records;
        let cut = records.split_off(records.len() - k);
        let mut bytes: u64 = cut
            .iter()
            .map(|r| {
                let mut frame = Vec::new();
                ftmp_store::record::encode_frame(r, &mut frame);
                frame.len() as u64
            })
            .sum();
        let segments = ftmp_store::log::list_segments(dir).expect("list segments");
        for (_, path) in segments.iter().rev() {
            let len = std::fs::metadata(path).expect("segment").len();
            let take = bytes.min(len - ftmp_store::log::SEGMENT_HEADER as u64);
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(len - take))
                .expect("truncate segment");
            bytes -= take;
        }
        assert_eq!(bytes, 0, "the log held the records cut");
        cut
    }

    /// The crash-restart cell with the victim's log cut `k` records short
    /// of what it delivered — the tail a buffering log loses when its host
    /// dies between turn boundaries. The restart derives an earlier
    /// horizon, so the donor's delta past it is longer: it must hold every
    /// record the crash took, plus what the group delivered while the
    /// victim was down. All seven oracles stay clean across the boundary.
    #[test]
    fn crash_restart_with_a_lost_log_tail_is_covered_by_the_donor_delta() {
        const LOST: usize = 5;
        let mut cell = build_cell(Scenario::CrashRestart, 0x5EED, 4096);
        let donor = 1;
        let donor_dir = ftmp_store::scratch_dir("sweep-donor");
        let log = ftmp_store::DurableLog::open(&donor_dir, ftmp_store::LogConfig::default())
            .expect("open donor log");
        cell.net.with_node(donor, move |n, _, _| {
            n.engine_mut().set_delivery_log(Box::new(log));
        });
        for _ in 0..12 {
            cell.step();
        }
        cell.net.crash(FOUNDERS);
        cell.crashed.insert(FOUNDERS);
        cell.checker.retire(FOUNDERS);
        for _ in 0..12 {
            cell.step();
        }
        let victim_dir = cell.dlog_dir.clone().expect("crash-restart persists");
        let gap = chop_log_tail(&victim_dir, LOST);
        let state = cell.restart_from_log(FOUNDERS, donor);
        for _ in 0..12 {
            cell.step();
        }
        cell.net.run_for(SimDuration::from_secs(3));
        let live = cell.alive();
        assert!(live.contains(&FOUNDERS), "the victim rejoined");
        cell.checker.finish(live);
        assert_eq!(cell.checker.violation_count(), 0, "all seven oracles clean");

        let horizon = state.horizon_of(GROUP);
        let delta: Vec<ftmp_store::LogRecord> = ftmp_store::recover(&donor_dir)
            .expect("recover donor")
            .records
            .into_iter()
            .filter(|r| matches!(r, ftmp_store::LogRecord::Delivered(d) if d.ts > horizon))
            .collect();
        let lost: Vec<&ftmp_store::LogRecord> = gap
            .iter()
            .filter(|r| matches!(r, ftmp_store::LogRecord::Delivered(_)))
            .collect();
        assert!(!lost.is_empty(), "the chop took deliveries");
        assert!(
            lost.iter().all(|r| delta.contains(r)),
            "the donor delta past the chopped horizon holds every lost delivery"
        );
        assert!(
            delta.len() > lost.len(),
            "and, strictly, what the group delivered while the victim was down"
        );
        drop(cell);
        let _ = std::fs::remove_dir_all(&victim_dir);
        let _ = std::fs::remove_dir_all(&donor_dir);
    }

    /// The overlay cell end to end: tree mode (arity 4, packing on) with a
    /// join and a leave mid-run — all seven oracles stay clean through both
    /// forced tree rebuilds. Seeds alternate 64/128 members by parity; the
    /// default budget runs one 64-member cell, the `large-group` CI job
    /// widens to 8 seeds (both sizes) via `CONFORMANCE_SEEDS`.
    #[test]
    fn large_group_cell_runs_clean_through_churn() {
        for seed in 0x5EED..0x5EED + seed_budget(1) {
            let v = run_cell(Scenario::LargeGroup, seed, 24, 4096);
            assert_eq!(
                v.violations,
                0,
                "seed {seed}: {}",
                v.counterexample.as_deref().unwrap_or("no counterexample")
            );
            assert!(v.delivered > 0, "seed {seed}: workload must deliver");
        }
    }

    /// Force an oracle violation in an otherwise healthy cell and check the
    /// rendered counterexample splices in the flight-recorder dumps of the
    /// live members alongside the violation and trace excerpt.
    #[test]
    fn forced_violation_report_includes_flight_recorder_dump() {
        let mut cell = build_cell(Scenario::Lossless, 7, 4096);
        for _ in 0..5 {
            cell.step();
        }
        cell.net.run_for(SimDuration::from_secs(1));
        // Replay a delivery verbatim: a fabricated duplicate trips the
        // duplicate-suppression oracle through the real ingestion path.
        let ev = Event {
            at: SimTime(2_000_000),
            node: ProcessorId(1),
            obs: Observation::Delivered {
                group: GROUP,
                conn: conn(),
                request: RequestNum(9_999),
                source: ProcessorId(1),
                seq: SeqNum(1),
                ts: Timestamp(1),
            },
        };
        cell.checker.with_suite_mut(|s| {
            s.ingest(ev.clone());
            s.ingest(ev);
        });
        assert!(cell.checker.violation_count() > 0, "duplicate must trip");
        let live: Vec<NodeId> = cell.alive();
        let cx = build_counterexample(&cell, &live);
        assert!(cx.contains("violation:"), "missing violation line:\n{cx}");
        assert!(
            cx.contains("flight recorder P"),
            "missing flight-recorder dump:\n{cx}"
        );
        // The dump is per-processor: every live member contributed one.
        for id in &live {
            assert!(
                cx.contains(&format!("flight recorder P{id}")),
                "missing P{id} dump:\n{cx}"
            );
        }
        // And the JSON cell embeds it, escaped onto a single line.
        let report = SweepReport {
            cells: vec![CellVerdict {
                scenario: "lossless",
                seed: 7,
                observations: 10,
                delivered: 5,
                violations: 1,
                counterexample: Some(cx),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"counterexample\": \""));
        assert!(json.contains("flight recorder P"));
        assert!(
            !json.contains("recorder P1 (\n"),
            "newlines must be escaped"
        );
    }
}
