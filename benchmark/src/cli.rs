//! Command line: one pass (the form the driver calls), `run`, `repeat`, `list`.

use crate::table::{self, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::RunArgs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

pub const USAGE: &str = "\
usage: ftmp-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
       ftmp-benchmark run <all|workload> [--seed n] [--seconds s] [--json path]
       ftmp-benchmark repeat <k> [--seed n] [--seconds s]
       ftmp-benchmark list [--json]";

pub enum Cmd {
    Pass(RunArgs),
    Run {
        which: Vec<&'static Workload>,
        opts: Opts,
        json: Option<PathBuf>,
    },
    Repeat {
        k: usize,
        opts: Opts,
    },
    List {
        json: bool,
    },
}

#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
}

/// Log directories and trace files go under the build directory, which is
/// inside the checkout and ignored by git.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ftmp-benchmark")
}

pub fn parse(argv: &[String]) -> Result<Cmd, String> {
    let mut positional = Vec::new();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut bare_json = false;
    let mut it = argv.iter().map(String::as_str).peekable();
    while let Some(a) = it.next() {
        match a {
            "--json" if it.peek().is_none_or(|n| n.starts_with("--")) => bare_json = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--json" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a, v);
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => positional.push(a),
        }
    }
    let num = |flag: &str, default: f64| -> Result<f64, String> {
        match flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag} {v}: not a number")),
        }
    };
    let opts = Opts {
        seed: match flags.get("--seed") {
            None => DEFAULT_SEED,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--seed {v}: not a whole number"))?,
        },
        seconds: num("--seconds", RUN_SECONDS as f64)?,
    };
    if opts.seconds <= 0.0 {
        return Err("--seconds must be above 0".into());
    }
    let named = |name: &str| {
        table::workload(name).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", known.join(", "))
        })
    };
    match positional.as_slice() {
        [] => {
            let w = named(flags.get("--workload").ok_or(USAGE)?)?;
            Ok(Cmd::Pass(RunArgs {
                workload: w.name.to_string(),
                seed: opts.seed,
                seconds: opts.seconds,
                trace: num("--trace", 0.0)? != 0.0,
                ops_per_second: w.ops_per_second,
                speed_exponent: w.speed_exponent,
                work_dir: work_dir(),
            }))
        }
        ["run", which] => Ok(Cmd::Run {
            which: if *which == "all" {
                WORKLOADS.iter().collect()
            } else {
                vec![named(which)?]
            },
            opts,
            json: flags.get("--json").map(PathBuf::from),
        }),
        ["repeat", k] => Ok(Cmd::Repeat {
            k: k.parse()
                .ok()
                .filter(|&k| k >= 2)
                .ok_or("repeat needs k >= 2")?,
            opts,
        }),
        ["list"] => Ok(Cmd::List { json: bare_json }),
        _ => Err(USAGE.into()),
    }
}

/// `(workload, metric) → (value, unit)` of one `run`.
pub type Results = BTreeMap<(String, String), (f64, String)>;

/// One child process: one pass of one workload. Returns its metric lines.
fn pass(
    workload: &str,
    opts: Opts,
    trace: bool,
    echo: bool,
    into: &mut Results,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a pass: {e}"))?;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, unit] = f.as_slice() {
            if *w == workload {
                if let Ok(v) = value.parse::<f64>() {
                    into.insert((w.to_string(), metric.to_string()), (v, unit.to_string()));
                    if echo {
                        println!("{line}");
                    }
                    continue;
                }
            }
        }
        if echo && line.starts_with('#') {
            println!("{line}");
        }
    }
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{workload} (trace {}) failed its correctness gate or did not finish",
            u8::from(trace)
        ))
    }
}

/// Both passes of every workload in `which`, plus the two figures that need
/// both passes.
pub fn run(which: &[&'static Workload], opts: Opts, echo: bool) -> (Results, Vec<String>) {
    let mut results = Results::new();
    let mut errors = Vec::new();
    for w in which {
        for trace in [false, true] {
            if let Err(e) = pass(w.name, opts, trace, echo, &mut results) {
                errors.push(e);
            }
        }
        let get = |m: &str| {
            results
                .get(&(w.name.to_string(), m.to_string()))
                .map(|r| r.0)
        };
        if let (Some(plain), Some(traced)) =
            (get("deliveries_per_s"), get("trace.deliveries_per_s"))
        {
            let mut derived = vec![("trace.overhead_share", plain / traced - 1.0)];
            if !table::is_sim(w.name) {
                // There the traced pass is the one with a TraceWriter attached.
                derived.push(("runtime.trace_recorder_share", traced / plain));
            }
            for (name, v) in derived {
                if echo {
                    println!("{} {name} {v} ratio", w.name);
                }
                results.insert((w.name.to_string(), name.to_string()), (v, "ratio".into()));
            }
        }
    }
    (results, errors)
}

pub fn results_json(results: &Results, opts: Opts) -> String {
    let mut j = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"results\": [\n",
        opts.seed, opts.seconds
    );
    for (i, ((w, m), (v, unit))) in results.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"workload\": \"{w}\", \"metric\": \"{m}\", \"value\": {v}, \"unit\": \"{unit}\"}}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let (ld, n) = (x.len(), 4);
    [1, 2, 3].map(|i| {
        let j = (i * (ld + 1) / n).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * n) as f64;
        (x[j - 1] * (n as f64 - delta) + x[j] * delta) / n as f64
    })
}

/// `repeat k`: run everything `k` times at one seed; per metric print the
/// median, quartiles and max÷min, hold end-to-end spreads to their bounds,
/// and hold every virtual-time and count metric on `sim-*` to exact equality.
pub fn repeat(k: usize, opts: Opts) -> Result<(), String> {
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failures = Vec::new();
    for round in 1..=k {
        eprintln!("repeat: run {round} of {k}");
        let (results, errors) = run(&all, opts, false);
        failures.extend(errors);
        for (key, (v, _)) in results {
            samples.entry(key).or_default().push(v);
        }
    }
    println!("workload metric median q1 q3 max/min verdict");
    for ((w, m), values) in &samples {
        let [q1, med, q3] = quartiles(values);
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let ratio = if lo > 0.0 { hi / lo } else { 1.0 };
        let e2e = END_TO_END.iter().find(|e| e.name == m);
        let exact = table::is_sim(w)
            && (e2e.is_some_and(|e| e.exact_on_sim)
                || PER_LAYER.iter().any(|p| p.name == m && p.exact_on_sim));
        let verdict = if values.len() < k {
            "FAIL (missing from a run)".to_string()
        } else if exact {
            if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
                "PASS (identical)".to_string()
            } else {
                "FAIL (not identical)".to_string()
            }
        } else if let Some(e) = e2e {
            let spread = (q3 - q1) / med;
            // setup_s is held to its bound between sets of runs, not within one.
            if spread <= e.bound || e.name == "setup_s" {
                format!(
                    "PASS (spread {:.1}% of bound {:.0}%)",
                    spread * 100.0,
                    e.bound * 100.0
                )
            } else {
                format!(
                    "FAIL (spread {:.1}% over bound {:.0}%)",
                    spread * 100.0,
                    e.bound * 100.0
                )
            }
        } else {
            "-".to_string()
        };
        if verdict.starts_with("FAIL") {
            failures.push(format!("{w} {m}: {verdict}"));
        }
        println!("{w} {m} {med} {q1} {q3} {ratio:.4} {verdict}");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn the_driver_form_parses_to_one_pass() {
        let argv: Vec<String> = "--workload sim-paced-64 --seed 7 --seconds 6 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Cmd::Pass(a)) = parse(&argv) else {
            panic!("one pass expected");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-paced-64", 7, 6.0, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&[]).is_err());
    }
}
