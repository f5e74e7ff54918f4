//! Trace-log replay: run the seven oracles over recorded real-socket
//! traces.
//!
//! The `ftmp-runtime` trace recorder writes one `ftmp-store` trace log per
//! (node, incarnation): an open record, one record per observation in
//! exact local emission order, and a close record on clean shutdown. This
//! module reads those logs back and feeds them through the same
//! [`OracleSuite`] that checks simulator runs — the replay path is what
//! makes a multi-process cluster run *checkable*, and hence what makes the
//! sim-vs-real parity claim testable.
//!
//! Merge semantics: oracle soundness depends on **per-node** event order
//! (each oracle keys its state by observer); cross-node interleaving only
//! affects counterexample readability. Replay therefore does a k-way merge
//! that always advances the node cursor with the smallest timestamp —
//! per-node order is preserved by construction, and cross-node order is as
//! good as the epoch-anchored clocks were. A node with multiple
//! incarnations (kill -9, restart) contributes its files in incarnation
//! order, with [`OracleSuite::retire`]/[`OracleSuite::rejoin`] called at
//! each boundary — same as the simulator's crash-restart scenario does.
//!
//! Torn tails: a kill -9'd member's trace may end mid-frame. The reader is
//! the store's own segment walk, so the durable log's torn-tail rule holds:
//! a cut-off last frame is counted, not fatal; a bad frame anywhere else is
//! an error. Reading never heals or otherwise changes a trace.

use ftmp_core::ids::{GroupId, ProcessorId};
use ftmp_core::observe::Observation;
use ftmp_net::SimTime;
use ftmp_store::trace;
use std::io;
use std::path::{Path, PathBuf};

use crate::obs::Event;
use crate::suite::OracleSuite;

/// One trace log read back: a single (node, incarnation) observation
/// stream.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Recording processor.
    pub node: ProcessorId,
    /// Incarnation (0 fresh; bumped per crash-restart).
    pub incarnation: u32,
    /// Observations in exact local emission order.
    pub events: Vec<(SimTime, Observation)>,
    /// True when the close record was present (clean shutdown).
    pub clean_end: bool,
    /// True when a frame cut off by a crash mid-`write` ended the log.
    pub torn_tail: bool,
}

/// Read one trace log (`ftmp_store::trace`, which `ftmp-runtime`'s
/// recorder writes) without changing it. A log with no close record
/// belongs to a crashed incarnation; a frame cut off at its end is counted
/// in [`TraceFile::torn_tail`]; any other anomaly is an `InvalidData`
/// error.
pub fn read_trace_file(path: &Path) -> io::Result<TraceFile> {
    let mut events = Vec::new();
    let info = trace::read(path, |at, obs| events.push((SimTime(at), obs)))?;
    Ok(TraceFile {
        node: info.node,
        incarnation: info.incarnation,
        events,
        clean_end: info.clean_end,
        torn_tail: info.torn_tail,
    })
}

/// Read every `*.trc` trace log in a directory.
pub fn read_trace_dir(dir: &Path) -> io::Result<Vec<TraceFile>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "trc"))
        .collect();
    paths.sort();
    paths.iter().map(|p| read_trace_file(p)).collect()
}

/// The outcome of replaying a set of traces through the oracle suite.
#[derive(Debug)]
pub struct ReplayReport {
    /// Trace files replayed.
    pub files: usize,
    /// Distinct nodes seen.
    pub nodes: Vec<ProcessorId>,
    /// Crash-restart boundaries crossed (retire+rejoin pairs).
    pub rejoins: u32,
    /// Events fed to the oracles.
    pub observed: u64,
    /// Delivered-message observations among them.
    pub delivered: u64,
    /// Total oracle violations.
    pub violations: u64,
    /// Violation count per oracle name, for oracles that fired.
    pub by_oracle: Vec<(&'static str, usize)>,
    /// Human-readable first counterexample, if any.
    pub first_counterexample: Option<String>,
    /// True when any trace ended without its close record *and* was not
    /// superseded by a later incarnation of the same node (i.e. a crash the
    /// schedule didn't expect).
    pub unexpected_truncation: bool,
}

impl ReplayReport {
    /// No oracle fired.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Replay trace logs through [`OracleSuite::standard`].
///
/// `live` is the membership expected to have converged at the end of the
/// run (passed to the reliability/convergence finish checks); nodes whose
/// final incarnation crashed should be omitted.
pub fn replay_traces(
    group: GroupId,
    founders: &[ProcessorId],
    files: &[TraceFile],
    live: &[ProcessorId],
) -> ReplayReport {
    let mut suite = OracleSuite::standard(group, founders);

    // Group per node, incarnations in order.
    let mut by_node: Vec<(ProcessorId, Vec<&TraceFile>)> = Vec::new();
    for f in files {
        match by_node.iter_mut().find(|(n, _)| *n == f.node) {
            Some((_, v)) => v.push(f),
            None => by_node.push((f.node, vec![f])),
        }
    }
    by_node.sort_by_key(|(n, _)| *n);
    let mut rejoins = 0u32;
    let mut unexpected_truncation = false;
    for (_, v) in &mut by_node {
        v.sort_by_key(|f| f.incarnation);
        for (i, f) in v.iter().enumerate() {
            let superseded = i + 1 < v.len();
            if !f.clean_end && !superseded {
                unexpected_truncation = true;
            }
        }
    }

    // K-way merge: one cursor per node walking its concatenated
    // incarnations; always advance the smallest timestamp. Incarnation
    // boundaries fire retire+rejoin exactly when the cursor crosses them.
    struct Cursor<'a> {
        node: ProcessorId,
        files: Vec<&'a TraceFile>,
        file_idx: usize,
        ev_idx: usize,
    }
    impl Cursor<'_> {
        fn peek(&self) -> Option<&(SimTime, Observation)> {
            self.files.get(self.file_idx)?.events.get(self.ev_idx)
        }
        /// Skip empty / exhausted files; report whether a boundary was
        /// crossed to reach the next event.
        fn settle(&mut self) -> u32 {
            let mut boundaries = 0;
            while self.file_idx < self.files.len()
                && self.ev_idx >= self.files[self.file_idx].events.len()
            {
                self.file_idx += 1;
                self.ev_idx = 0;
                if self.file_idx < self.files.len() {
                    boundaries += 1;
                }
            }
            boundaries
        }
    }

    let mut cursors: Vec<Cursor> = by_node
        .iter()
        .map(|(n, v)| Cursor {
            node: *n,
            files: v.clone(),
            file_idx: 0,
            ev_idx: 0,
        })
        .collect();

    let mut delivered = 0u64;
    loop {
        // Settle all cursors (firing any crossed incarnation boundaries),
        // then pick the live cursor with the smallest next timestamp.
        let mut best: Option<(SimTime, usize)> = None;
        for (i, c) in cursors.iter_mut().enumerate() {
            let crossed = c.settle();
            for _ in 0..crossed {
                suite.retire(c.node);
                suite.rejoin(c.node);
                rejoins += 1;
            }
            if let Some(&(at, _)) = c.peek() {
                if best.is_none_or(|(b, _)| at < b) {
                    best = Some((at, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        let c = &mut cursors[i];
        let (at, obs) = c.files[c.file_idx].events[c.ev_idx].clone();
        c.ev_idx += 1;
        if matches!(obs, Observation::Delivered { .. }) {
            delivered += 1;
        }
        suite.ingest(Event {
            at,
            node: c.node,
            obs,
        });
    }
    suite.finish(live);

    let names = [
        "reliability",
        "source-order",
        "causal-order",
        "total-order",
        "virtual-synchrony",
        "duplicate-suppression",
        "reclamation-safety",
    ];
    let by_oracle: Vec<(&'static str, usize)> = names
        .into_iter()
        .map(|n| (n, suite.violations_of(n)))
        .filter(|&(_, c)| c > 0)
        .collect();
    ReplayReport {
        files: files.len(),
        nodes: by_node.iter().map(|(n, _)| *n).collect(),
        rejoins,
        observed: suite.observed(),
        delivered,
        violations: suite.violation_count(),
        by_oracle,
        first_counterexample: suite.first_counterexample(),
        unexpected_truncation,
    }
}
