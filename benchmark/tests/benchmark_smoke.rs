//! Every workload, both passes, at 1/200 of the benchmark's scale: the
//! correctness gate holds, every metric `BENCHMARK.json` names is printed
//! exactly once and is finite, and the predictions that must hold exactly do.

use ftmp_benchmark::table::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// One pass; returns `metric → value` from its `workload metric value unit`
/// lines, and its last line (the result object).
fn pass(workload: &str, trace: bool) -> (BTreeMap<String, f64>, String) {
    let seconds = RUN_SECONDS as f64 / 200.0;
    let out = Command::new(env!("CARGO_BIN_EXE_ftmp-benchmark"))
        .args(["--workload", workload, "--seed", "7"])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, _unit] = f.as_slice() {
            if *w == workload {
                let v: f64 = value.parse().expect("a number");
                assert!(v.is_finite(), "{workload} {name} is {v}");
                assert!(
                    metrics.insert(name.to_string(), v).is_none(),
                    "{workload} printed {name} twice"
                );
            }
        }
    }
    let last = stdout.lines().last().expect("a result line").to_string();
    (metrics, last)
}

#[test]
fn every_workload_passes_its_gate_and_reports_every_metric() {
    for w in &WORKLOADS {
        let lossless = w.name != "sim-loss-1k";
        let (e2e, result) = pass(w.name, false);
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{result}"
        );
        assert!(result.contains("\"failed\": 0,"), "{result}");
        assert_eq!(
            result.matches("\"value\"").count(),
            END_TO_END.len(),
            "{result}"
        );
        for m in &END_TO_END {
            let v = e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
            assert!(*v > 0.0, "{} {} must never be 0", w.name, m.name);
            assert_eq!(
                result
                    .matches(&format!("\"{}\": {{\"value\"", m.name))
                    .count(),
                1,
                "{} in {result}",
                m.name
            );
        }
        assert_eq!(e2e["failed_ops_ratio"], 0.0);

        let (layers, result) = pass(w.name, true);
        assert!(result.starts_with("{\"correct\": true"), "{result}");
        assert_eq!(
            result.matches("\"value\"").count(),
            PER_LAYER.len(),
            "{result}"
        );
        for m in &PER_LAYER {
            assert!(layers.contains_key(m.name), "{} lacks {}", w.name, m.name);
        }
        assert_eq!(layers["traced.failed_ops_ratio"], 0.0);

        // The predictions that hold exactly.
        if lossless {
            assert_eq!(layers["rmp.nacks_sent"], 0.0, "{}", w.name);
            assert_eq!(layers["net.lost"], 0.0, "{}", w.name);
        }
        if w.name != "sim-durable-restart-1k" {
            assert_eq!(layers["pgmp.view_changes"], 0.0, "{}", w.name);
            assert_eq!(layers["pgmp.convictions"], 0.0, "{}", w.name);
        }
        match w.name {
            "sim-fanin-64" => assert!(layers["pack.msgs_per_datagram"] > 1.0),
            "sock-fanin-64" => {}
            _ => {
                assert_eq!(layers["pack.msgs_per_datagram"], 1.0, "{}", w.name);
                assert_eq!(layers["pack.heartbeats_suppressed"], 0.0, "{}", w.name);
            }
        }
        if w.name == "sim-loss-1k" {
            assert!(layers["rmp.nacks_sent"] > 0.0 && layers["rmp.retransmissions_sent"] > 0.0);
        }
        if w.name == "sim-durable-restart-1k" {
            assert!(layers["pgmp.failover_ms"] > 0.0 && layers["store.rejoin_ms"] > 0.0);
            assert!(layers["pgmp.view_changes"] >= 2.0, "one out, one back in");
            assert_eq!(layers["store.io_errors"], 0.0);
        }
        if w.name == "sim-orb-invoke" {
            assert!(
                layers["orb.requests_suppressed"] > 0.0 && layers["orb.replies_suppressed"] > 0.0
            );
        }
    }
}
