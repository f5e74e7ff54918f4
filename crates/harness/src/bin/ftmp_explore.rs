//! `ftmp-explore` — E19: coverage-guided schedule exploration vs. the
//! fixed matrix.
//!
//! Runs the fixed scenario matrix and the feedback-guided explorer at the
//! *same* cell-execution budget, compares how many `(metric, log2-bucket)`
//! coverage pairs each reached, and asserts the explorer strictly wins —
//! the acceptance criterion for DESIGN.md §15. Writes the growth curves,
//! corpus manifest (replayable genome JSONs) and any minimized failures to
//! `results/e19.json` and `results/e19_corpus.json`.
//!
//! ```text
//! ftmp-explore                               # default budget (48 cells)
//! ftmp-explore --budget 2000 --steps 60      # long bug-hunt run
//! ftmp-explore --seed 0xBEEF --out results/e19.json
//! ```
//!
//! Exit status: 0 when the explorer beat the matrix and no oracle
//! violations surfaced; 1 when either fails (the JSON is still written —
//! a failure's minimized genome is the artifact you want).

use ftmp_check::{explore, matrix_coverage, CoverageMap, ExploreConfig, ExploreOutcome, Scenario};
use ftmp_telemetry::escape_json;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: ftmp-explore [--budget N] [--steps N] [--seed N|0xHEX] \
         [--scenarios a,b,…] [--out FILE] [--corpus FILE]\n\
         scenarios: {}",
        Scenario::matrix()
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExploreConfig::default();
    let mut out_path = PathBuf::from("results/e19.json");
    let mut corpus_path = PathBuf::from("results/e19_corpus.json");
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--budget" => cfg.budget = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => cfg.steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.base_seed = parse_u64(&take(&mut i)).unwrap_or_else(|| usage()),
            "--scenarios" => {
                cfg.scenarios = take(&mut i)
                    .split(',')
                    .map(|n| Scenario::by_name(n.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--out" => out_path = PathBuf::from(take(&mut i)),
            "--corpus" => corpus_path = PathBuf::from(take(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if cfg.scenarios.is_empty() || cfg.budget == 0 {
        usage();
    }

    eprintln!(
        "e19: fixed matrix, {} scenarios, budget {} cells, {} steps…",
        cfg.scenarios.len(),
        cfg.budget,
        cfg.steps
    );
    let (matrix_cov, matrix_history) = matrix_coverage(&cfg);
    eprintln!(
        "e19: matrix reached {} buckets; exploring at the same budget…",
        matrix_cov.len()
    );
    let outcome = explore(&cfg);
    eprintln!(
        "e19: explorer reached {} buckets in {} executions, corpus {}, failures {}",
        outcome.coverage.len(),
        outcome.executions,
        outcome.corpus.len(),
        outcome.failures.len()
    );

    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(
        &out_path,
        report_json(&cfg, &matrix_cov, &matrix_history, &outcome),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", out_path.display()));
    if let Some(dir) = corpus_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&corpus_path, corpus_json(&outcome))
        .unwrap_or_else(|e| panic!("write {}: {e}", corpus_path.display()));
    eprintln!(
        "e19: wrote {} and {}",
        out_path.display(),
        corpus_path.display()
    );

    for f in &outcome.failures {
        eprintln!(
            "e19: VIOLATION ({} violations) minimized to {} gene(s): {}",
            f.verdict.violations,
            f.genome.genes.len(),
            f.genome.to_json()
        );
        if let Some(cx) = &f.verdict.counterexample {
            eprintln!("{cx}");
        }
    }

    // The acceptance criterion: strictly more coverage at equal budget.
    let won = outcome.coverage.len() > matrix_cov.len();
    if !won {
        eprintln!(
            "e19: FAIL — explorer {} buckets vs matrix {} (needs strictly more)",
            outcome.coverage.len(),
            matrix_cov.len()
        );
    }
    if !won || !outcome.failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!(
        "e19: PASS — explorer {} > matrix {} buckets, no violations",
        outcome.coverage.len(),
        matrix_cov.len()
    );
}

fn history_json(h: &[(usize, usize)]) -> String {
    let pts: Vec<String> = h.iter().map(|(e, c)| format!("[{e}, {c}]")).collect();
    format!("[{}]", pts.join(", "))
}

/// `results/e19.json`: config, both growth curves, the verdict, and every
/// minimized failure (hand-rolled JSON; the workspace has no serde).
fn bucket_list_json(cov: &CoverageMap) -> String {
    let items: Vec<String> = cov
        .iter()
        .map(|(m, b)| format!("[\"{}\", {b}]", escape_json(m)))
        .collect();
    format!("[{}]", items.join(", "))
}

fn report_json(
    cfg: &ExploreConfig,
    matrix_cov: &CoverageMap,
    matrix_history: &[(usize, usize)],
    outcome: &ExploreOutcome,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"e19\",\n");
    s.push_str(&format!("  \"budget\": {},\n", cfg.budget));
    s.push_str(&format!("  \"steps\": {},\n", cfg.steps));
    s.push_str(&format!("  \"base_seed\": {},\n", cfg.base_seed));
    s.push_str(&format!(
        "  \"scenarios\": [{}],\n",
        cfg.scenarios
            .iter()
            .map(|sc| format!("\"{}\"", sc.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"matrix\": {{\"buckets\": {}, \"history\": {}, \"reached\": {}}},\n",
        matrix_cov.len(),
        history_json(matrix_history),
        bucket_list_json(matrix_cov)
    ));
    s.push_str(&format!(
        "  \"explorer\": {{\"buckets\": {}, \"executions\": {}, \"corpus\": {}, \"history\": {}, \
         \"reached\": {}}},\n",
        outcome.coverage.len(),
        outcome.executions,
        outcome.corpus.len(),
        history_json(&outcome.history),
        bucket_list_json(&outcome.coverage)
    ));
    s.push_str(&format!(
        "  \"explorer_beats_matrix\": {},\n",
        outcome.coverage.len() > matrix_cov.len()
    ));
    s.push_str("  \"failures\": [\n");
    for (i, f) in outcome.failures.iter().enumerate() {
        let cx = match &f.verdict.counterexample {
            Some(text) => format!(", \"counterexample\": \"{}\"", escape_json(text)),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"genome\": {}, \"violations\": {}{}}}{}\n",
            f.genome.to_json(),
            f.verdict.violations,
            cx,
            if i + 1 < outcome.failures.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `results/e19_corpus.json`: every interesting schedule as a replayable
/// genome, with the novelty it contributed when found.
fn corpus_json(outcome: &ExploreOutcome) -> String {
    let mut s = String::from("{\n  \"corpus\": [\n");
    for (i, e) in outcome.corpus.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"genome\": {}, \"novelty\": {}, \"violations\": {}}}{}\n",
            e.genome.to_json(),
            e.novelty,
            e.violations,
            if i + 1 < outcome.corpus.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
