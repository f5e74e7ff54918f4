//! `ftmp-benchmark`: the FTMP stack's benchmark. See `BENCHMARK.md`.
//!
//! One pass of one workload is one process (`--workload … --trace 0|1`), so
//! peak memory and allocator state belong to that workload alone; `run` and
//! `repeat` re-execute this binary once per workload and pass.

pub mod cli;
pub mod host;
pub mod measure;
pub mod replay;
pub mod sim;
pub mod sock;
pub mod table;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One pass of one workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ops_per_second: f64,
    pub speed_exponent: f64,
    /// Where log directories and trace files go: inside the checkout.
    pub work_dir: PathBuf,
}

/// What a pass measured and whether its outputs were correct.
#[derive(Default)]
pub struct Outcome {
    /// Values of the metrics `BENCHMARK.json` names, by name.
    values: BTreeMap<&'static str, f64>,
    /// Context printed beside them (spreads, sample counts): name, value, unit.
    notes: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Agreement or exactly-once violations, in words.
    pub violations: Vec<&'static str>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    pub fn check(&mut self, ok: bool, violation: &'static str) {
        if !ok {
            self.violations.push(violation);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Operations that failed; every one of them when an invariant broke.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed.min(self.attempted)
        } else {
            self.attempted
        }
    }
}

/// The end-to-end metrics every workload shares (`peak_rss_mb` is read when
/// the pass ends); `latency` is `(p50 µs, p99 µs, samples)`.
pub fn end_to_end(
    out: &mut Outcome,
    window: &measure::Window,
    latency: (f64, f64, u64),
    setup_s: f64,
) {
    let rate = window.rate();
    out.set("deliveries_per_s", rate.value);
    out.note("deliveries_per_s.raw", rate.raw, "1/s");
    out.note("deliveries_per_s.spread", rate.spread, "ratio");
    out.note("window_s", window.wall_s(), "s");
    out.note("window_deliveries", window.deliveries() as f64, "count");
    out.set("order_p50_us", latency.0);
    out.set("order_p99_us", latency.1);
    out.note("order_samples", latency.2 as f64, "count");
    let cpu = window.cpu_us_per_delivery();
    out.set("cpu_us_per_delivery", cpu.value);
    out.note("cpu_us_per_delivery.raw", cpu.raw, "us");
    out.note("box_speed", window.speed(), "ratio");
    out.set("setup_s", setup_s);
}

/// Run one pass in this process.
pub fn run_pass(args: &RunArgs) -> Outcome {
    use sim::{GroupShape, Pattern};
    let fanin = GroupShape {
        members: 5,
        body_len: 64,
        loss: 0.0,
        packing: true,
        pattern: Pattern::Rotate { per_ms: 5 },
        durable: false,
    };
    let mut out = match args.workload.as_str() {
        "sim-fanin-64" => sim::run_group(fanin, args),
        "sim-loss-1k" => sim::run_group(
            GroupShape {
                body_len: 1024,
                loss: 0.02,
                packing: false,
                ..fanin
            },
            args,
        ),
        "sim-paced-64" => sim::run_group(
            GroupShape {
                packing: false,
                pattern: Pattern::Paced { every_us: 7_000 },
                ..fanin
            },
            args,
        ),
        "sim-durable-restart-1k" => sim::run_group(
            GroupShape {
                members: 3,
                body_len: 1024,
                packing: false,
                durable: true,
                ..fanin
            },
            args,
        ),
        "sim-orb-invoke" => sim::run_orb(args),
        "sock-fanin-64" => sock::run(args),
        other => unreachable!("{other} is checked against the table before a pass starts"),
    };
    out.set("peak_rss_mb", measure::peak_rss_mib());
    out
}

/// The metrics this pass reports under the contract: every end-to-end
/// metric untraced, every per-layer metric traced (0 where a layer is not
/// part of the workload).
pub fn contract_metrics(
    out: &Outcome,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut rows = Vec::new();
    if trace {
        for m in &table::PER_LAYER {
            rows.push((m.name, out.get(m.name).unwrap_or(0.0), m.unit));
        }
    } else {
        for m in &table::END_TO_END {
            let v = out
                .get(m.name)
                .ok_or_else(|| format!("{} was not measured", m.name))?;
            rows.push((m.name, v, m.unit));
        }
    }
    match rows.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(format!("{name} is {v}")),
        None => Ok(rows),
    }
}

/// Print a finished pass: one `workload metric value unit` line per metric
/// and note, then the result object as the last line.
pub fn report(args: &RunArgs, out: &Outcome) -> Result<(), String> {
    let w = &args.workload;
    let rows = contract_metrics(out, args.trace)?;
    for (name, v, unit) in &rows {
        println!("{w} {name} {v} {unit}");
    }
    // Both passes note the same context; the traced pass's is marked so.
    let pass = if args.trace { "traced." } else { "" };
    for (name, v, unit) in &out.notes {
        println!("{w} {pass}{name} {v} {unit}");
    }
    let failed = out.failed_ops();
    println!(
        "{w} {pass}failed_ops_ratio {} ratio",
        failed as f64 / out.attempted.max(1) as f64
    );
    for v in &out.violations {
        println!("# VIOLATION: {v}");
    }
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1)
    );
    for (i, (name, v, unit)) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    j.push_str("}}");
    println!("{j}");
    Ok(())
}
