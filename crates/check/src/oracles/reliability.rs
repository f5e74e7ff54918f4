//! Reliability: no gaps among stable members (§5).
//!
//! RMP sequence numbers are shared by Regular and control messages, so the
//! Regular sub-sequence a processor delivers is *not* contiguous in general
//! (a Suspect or AddProcessor legitimately occupies a slot). What must hold
//! is cross-processor: for each source, the set of Regular sequence numbers
//! delivered anywhere is the reference, and every live processor must have
//! delivered exactly the reference suffix starting at its own first delivery
//! from that source (later joiners start mid-stream; nobody skips).
//!
//! Delivery-order mistakes are the source-order oracle's jurisdiction; this
//! oracle cares only about *completeness*. The suffix-equality against the
//! union is settled in [`finish`], where the union is complete. Memory is
//! one integer set per (group, source) for the run plus three integers per
//! (processor, group, source).
//!
//! [`finish`]: crate::obs::Oracle::finish

use std::collections::{BTreeMap, BTreeSet};

use ftmp_core::ids::{GroupId, ProcessorId};
use ftmp_core::observe::Observation;

use crate::obs::{Event, Oracle, Violation};

#[derive(Debug, Default, Clone)]
struct PerSource {
    first: u64,
    last: u64,
    count: u64,
}

/// See module docs.
#[derive(Debug, Default)]
pub struct Reliability {
    /// Union of Regular seqs delivered anywhere, per (group, source).
    union: BTreeMap<(GroupId, ProcessorId), BTreeSet<u64>>,
    /// Per-(observer, group, source) delivery summary.
    nodes: BTreeMap<(ProcessorId, GroupId, ProcessorId), PerSource>,
    /// Last seen view per (observer, group), to reset a source's stream
    /// state when it leaves (a rejoin restarts its sequence numbers).
    views: BTreeMap<(ProcessorId, GroupId), BTreeSet<ProcessorId>>,
}

impl Reliability {
    /// Fresh oracle.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Oracle for Reliability {
    fn name(&self) -> &'static str {
        "reliability"
    }

    fn observe(&mut self, ev: &Event, _out: &mut Vec<Violation>) {
        match &ev.obs {
            Observation::Delivered {
                group, source, seq, ..
            } => {
                let s = self
                    .nodes
                    .entry((ev.node, *group, *source))
                    .or_insert(PerSource {
                        first: seq.0,
                        last: 0,
                        count: 0,
                    });
                s.first = s.first.min(seq.0);
                s.last = s.last.max(seq.0);
                s.count += 1;
                self.union
                    .entry((*group, *source))
                    .or_default()
                    .insert(seq.0);
            }
            Observation::ViewInstalled { group, members, .. } => {
                let now: BTreeSet<ProcessorId> = members.iter().copied().collect();
                let prev = self.views.insert((ev.node, *group), now.clone());
                if let Some(prev) = prev {
                    for gone in prev.difference(&now) {
                        // The departed source's stream ended here; a rejoin
                        // under the same id restarts at seq 1, so both the
                        // local summary and the union must forget it.
                        self.nodes.remove(&(ev.node, *group, *gone));
                    }
                    for back in now.iter().filter(|p| !prev.contains(*p)) {
                        // (Re)admitted: drop any stale union entries from a
                        // previous incarnation. For a first-time joiner this
                        // is a no-op.
                        let stale = self
                            .nodes
                            .keys()
                            .all(|(_, g, src)| !(g == group && src == back));
                        if stale {
                            self.union.remove(&(*group, *back));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn retire(&mut self, node: ProcessorId) {
        // A retired observer installs no later view, so its summaries would
        // outlive a source's readmission and keep that source's previous
        // incarnation in the union. Its deliveries stay in the union; it is
        // no longer held to the suffix (`finish` checks the live only).
        self.nodes.retain(|(observer, _, _), _| *observer != node);
        self.views.retain(|(observer, _), _| *observer != node);
    }

    fn rejoin(&mut self, node: ProcessorId) {
        // Reset what the restarted processor *observed* — its new
        // incarnation starts mid-stream like a joiner. What it *sourced*
        // self-heals: when peers install the view readmitting it, the
        // membership diff above drops the old incarnation's summaries and
        // stale union entries ("a rejoin under the same id restarts at
        // seq 1").
        self.nodes.retain(|(observer, _, _), _| *observer != node);
        self.views.retain(|(observer, _), _| *observer != node);
    }

    fn finish(&mut self, live: &[ProcessorId], out: &mut Vec<Violation>) {
        for ((group, source), union) in &self.union {
            let Some(&top) = union.iter().next_back() else {
                continue;
            };
            for &node in live {
                let Some(s) = self.nodes.get(&(node, *group, *source)) else {
                    // Never delivered from this source: either the source was
                    // quiet in its views or everything fell below its join
                    // floor. Not distinguishable from here; covered by the
                    // total-order convergence check.
                    continue;
                };
                let expected = union.range(s.first..).count() as u64;
                if s.count != expected || s.last != top {
                    out.push(Violation {
                        oracle: "reliability",
                        node,
                        at: ftmp_net::SimTime::ZERO,
                        detail: format!(
                            "P{} has gaps in source P{} stream: delivered {} of {} expected \
                             seqs in [{}..={}] (reached {})",
                            node.0, source.0, s.count, expected, s.first, top, s.last
                        ),
                    });
                }
            }
        }
    }
}
