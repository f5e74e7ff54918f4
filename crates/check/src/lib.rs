//! # ftmp-check — online protocol-conformance checking for FTMP
//!
//! This crate turns the paper's delivery guarantees (reliability, source
//! order, causal order, total order, virtual synchrony, duplicate
//! suppression, buffer-reclamation safety) into executable *oracles* that
//! run online against the [`ftmp_core::Observation`] stream tapped off the
//! protocol engines, and a seeded *schedule-sweep driver* that exercises
//! the full fault matrix (loss, burst, partition+heal, crash, churn,
//! latency spikes) and reports violations per execution.
//!
//! The pieces:
//!
//! - [`obs`] — the [`Event`] envelope, the [`Oracle`] trait, and
//!   [`Violation`] records.
//! - [`oracles`] — one oracle per paper property; all incremental, with
//!   memory bounded by the ack horizon (see each module's docs).
//! - [`suite`] — [`OracleSuite`] fans each event to every oracle and keeps
//!   a bounded context ring; [`Checker`] is the `Rc`-shared handle that
//!   attaches the suite to simulated processors.
//! - [`replay`] — reads the trace files `ftmp-runtime` records during
//!   real-socket runs and feeds them through the same suite, so sim and
//!   real transports are judged by identical oracles.
//! - [`report`] — bridges [`ftmp_net::Trace`] captures into counterexample
//!   excerpts (FTMP-classified records only, truncation flagged) and
//!   re-exports the golden FNV trace hash.
//! - [`sweep`] — the seed × scenario matrix driver behind the conformance
//!   test, the chaos suite, and experiment E13.
//! - [`mod@explore`] — the coverage-guided schedule explorer (E19): genomes of
//!   targeted wire-class faults, a telemetry-bucket coverage map, greedy
//!   counterexample minimization, and deterministic replay-from-genome.
//!
//! Observation recording is off by default and costs one branch per
//! emission site when off; [`Checker::attach`] flips it on per node.

pub mod explore;
pub mod obs;
pub mod oracles;
pub mod replay;
pub mod report;
pub mod suite;
pub mod sweep;

pub use explore::{
    explore, matrix_coverage, minimize_with, CorpusEntry, CoverageMap, ExploreConfig,
    ExploreOutcome, Failure, FaultGene, GeneOp, Genome,
};
pub use obs::{Event, Key, Oracle, Violation};
pub use oracles::{
    CausalOrder, DuplicateSuppression, ReclamationSafety, Reliability, SourceOrder, TotalOrder,
    VirtualSynchrony,
};
pub use replay::{read_trace_dir, read_trace_file, replay_traces, ReplayReport, TraceFile};
pub use report::{excerpt, kind_name, trace_hash, TraceExcerpt};
pub use suite::{Checker, OracleSuite};
pub use sweep::{
    run_cell, run_cell_instrumented, run_sweep, seed_budget, CellVerdict, Scenario, SweepConfig,
    SweepReport,
};
