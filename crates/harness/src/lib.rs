#![warn(missing_docs)]
//! Experiment harness: workloads, sweeps, metrics and table printers.
//!
//! The ICPP 1999 FTMP paper contains no quantitative evaluation — its three
//! figures are structural. This crate regenerates those figures *empirically*
//! (F1–F3) and builds the performance experiments the text motivates
//! (E1–E12); see DESIGN.md §6 for the experiment index and EXPERIMENTS.md for
//! recorded results. Every experiment prints a human-readable table and can
//! dump machine-readable JSON.
//!
//! Run them with the `ftmp-exp` binary:
//!
//! ```text
//! cargo run -p ftmp-harness --release --bin ftmp-exp -- --exp all
//! cargo run -p ftmp-harness --release --bin ftmp-exp -- --exp e1 --json results/
//! ```

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod worlds;

pub use metrics::LatencyStats;
pub use report::Table;
pub use worlds::BaselineWorld;
