//! E17 — dissemination-overlay control-plane cost (DESIGN.md §13).
//!
//! Writes `results/e17.json`: control-datagram receptions and NACK-repair
//! latency for the flat full-mesh control plane versus the k-ary
//! dissemination tree, at 16/64/128/256 members under a light rotating
//! workload with 2% iid loss. Flat mode has every member receive every
//! other member's heartbeat — O(n²) control receptions per interval — while
//! tree mode confines steady-state digests to O(k) tree neighborhoods, so
//! the headline figure is the flat/tree reception ratio at each size.
//!
//! At 64 and 128 members the full conformance checker rides along (both
//! modes) with a voluntary mid-run membership change, so the numbers come
//! from runs the seven oracles certify, including a tree rebuild.

use ftmp_check::FtmpWorld;
use ftmp_core::{ClockMode, OverlayPolicy, PackPolicy, Packing, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig, SimDuration};
use ftmp_telemetry::Registry;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [u32; 4] = [16, 64, 128, 256];
const ROUNDS: u32 = 40;

fn deadline_packing() -> Packing {
    Packing::with(1400, PackPolicy::Deadline(SimDuration::from_micros(500)))
}

struct Cell {
    members: u32,
    mode: &'static str,
    checked: bool,
    violations: u64,
    deliveries: u64,
    datagrams_sent: u64,
    control_received: u64,
    repair_p50_us: u64,
    repair_p99_us: u64,
    wall_ms: f64,
    counterexample: Option<String>,
}

/// One run: `ROUNDS` rotating multicasts at 10 ms spacing, a voluntary
/// removal of the highest member halfway through when `check` is set, and
/// a settle window. Control receptions sum `ProcessorStats::control_received`
/// over members; repair latency is the merged `rmp_recovery_us` histogram.
fn run_cell(n: u32, tree: bool, check: bool) -> Cell {
    let mut proto = ProtocolConfig::with_seed(0xE17).packing(deadline_packing());
    if tree {
        proto = proto.overlay(OverlayPolicy::Tree { arity: 4 });
    }
    let sim = SimConfig::with_seed(0xE17 + u64::from(n)).loss(LossModel::Iid { p: 0.02 });
    let mut w = FtmpWorld::new(n, sim, proto, ClockMode::Lamport);
    w.enable_telemetry();
    let checker = check.then(|| w.attach_checker());
    let wall = Instant::now();
    for round in 0..ROUNDS {
        // Rotate over the members that survive the mid-run removal.
        let from = round % (n - 1) + 1;
        w.send(from, 64);
        if round == ROUNDS / 2 && check {
            w.leave(n, 1);
        }
        w.run_ms(10);
    }
    w.run_ms(400);
    let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;

    let res = w.collect();
    let deliveries: u64 = res.sequences.iter().map(|s| s.len() as u64).sum();
    let (violations, counterexample) = match &checker {
        Some(c) => {
            c.finish(1..n); // member n departed mid-run
            (
                c.violation_count(),
                c.with_suite(|s| s.first_counterexample()),
            )
        }
        None => (0, None),
    };
    let mut control_received = 0u64;
    let mut merged = Registry::new();
    for (_, node) in w.net.nodes() {
        control_received += node.engine().stats().control_received();
        if let Some(t) = node.engine().telemetry() {
            merged.merge(t.registry());
        }
    }
    let repair = merged
        .snapshot()
        .histogram("rmp_recovery_us")
        .cloned()
        .unwrap_or_default();
    Cell {
        members: n,
        mode: if tree { "tree" } else { "flat" },
        checked: check,
        violations,
        deliveries,
        datagrams_sent: w.net.stats().sent_packets,
        control_received,
        repair_p50_us: repair.p50,
        repair_p99_us: repair.p99,
        wall_ms,
        counterexample,
    }
}

fn main() {
    let mut cells: Vec<Cell> = Vec::new();
    for &n in &SIZES {
        let check = n == 64 || n == 128;
        for tree in [false, true] {
            let c = run_cell(n, tree, check);
            eprintln!(
                "e17: n={} mode={} control_received={} deliveries={} violations={} ({:.0} ms)",
                c.members, c.mode, c.control_received, c.deliveries, c.violations, c.wall_ms
            );
            if c.violations > 0 {
                eprintln!("{}", c.counterexample.as_deref().unwrap_or("no cx"));
            }
            assert_eq!(c.violations, 0, "oracles must stay clean at n={n}");
            cells.push(c);
        }
    }

    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"e17_overlay\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"members\": {}, \"mode\": \"{}\", \"checked\": {}, \"violations\": {}, \
             \"deliveries\": {}, \"datagrams_sent\": {}, \"control_received\": {}, \
             \"repair_p50_us\": {}, \"repair_p99_us\": {}, \"wall_ms\": {:.1}}}{}",
            c.members,
            c.mode,
            c.checked,
            c.violations,
            c.deliveries,
            c.datagrams_sent,
            c.control_received,
            c.repair_p50_us,
            c.repair_p99_us,
            c.wall_ms,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"control_reduction\": [\n");
    for (k, &n) in SIZES.iter().enumerate() {
        let flat = cells
            .iter()
            .find(|c| c.members == n && c.mode == "flat")
            .expect("flat cell");
        let tree = cells
            .iter()
            .find(|c| c.members == n && c.mode == "tree")
            .expect("tree cell");
        let ratio = flat.control_received as f64 / tree.control_received.max(1) as f64;
        let _ = writeln!(
            j,
            "    {{\"members\": {}, \"flat_over_tree\": {:.2}}}{}",
            n,
            ratio,
            if k + 1 < SIZES.len() { "," } else { "" }
        );
        if n == 128 {
            assert!(
                ratio >= 4.0,
                "tree must cut control receptions >=4x at 128 members, got {ratio:.2}"
            );
        }
    }
    j.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/e17.json", &j).expect("write results/e17.json");
    print!("{j}");
}
