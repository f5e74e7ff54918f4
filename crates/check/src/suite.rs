//! The oracle suite: one ingestion point fanning observations out to every
//! oracle, a bounded recent-context ring for counterexamples, and the
//! [`Checker`] handle that wires a suite onto simulated processors.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use ftmp_core::ids::{GroupId, ProcessorId, Timestamp};
use ftmp_core::observe::Observation;
use ftmp_core::Node;
use ftmp_net::{NodeId, SimNet, SimTime};

use crate::obs::{Event, Oracle, Violation};
use crate::oracles;

/// How many recent events the context ring keeps for counterexamples.
const CONTEXT_CAP: usize = 48;
/// Violations recorded in full before further ones are only counted.
const VIOLATION_CAP: usize = 64;

/// All seven oracles plus the bookkeeping a verdict needs.
pub struct OracleSuite {
    oracles: Vec<Box<dyn Oracle>>,
    recent: VecDeque<Event>,
    observed: u64,
    delivered: u64,
    violations: Vec<Violation>,
    suppressed: u64,
    /// Context snapshot taken when the first violation fired.
    first_context: Option<Vec<Event>>,
    scratch: Vec<Violation>,
}

impl OracleSuite {
    /// A suite over the standard seven oracles, seeded with the founding
    /// view of `group` so founder transitions and reclamation membership are
    /// checked from the start (a processor attached later is treated as a
    /// joiner: its first observed view is its baseline).
    pub fn standard(group: GroupId, founders: &[ProcessorId]) -> Self {
        let mut s = OracleSuite {
            oracles: oracles::standard(),
            recent: VecDeque::with_capacity(CONTEXT_CAP),
            observed: 0,
            delivered: 0,
            violations: Vec::new(),
            suppressed: 0,
            first_context: None,
            scratch: Vec::new(),
        };
        let members: Vec<ProcessorId> = founders.to_vec();
        for &p in founders {
            s.ingest(Event {
                at: SimTime::ZERO,
                node: p,
                obs: Observation::ViewInstalled {
                    group,
                    members: members.clone(),
                    ts: Timestamp(0),
                },
            });
        }
        // The synthetic founding views are scaffolding, not observations.
        s.observed = 0;
        s
    }

    /// Feed one event through every oracle.
    pub fn ingest(&mut self, ev: Event) {
        self.observed += 1;
        if matches!(ev.obs, Observation::Delivered { .. }) {
            self.delivered += 1;
        }
        if self.recent.len() == CONTEXT_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(ev.clone());
        self.scratch.clear();
        for o in &mut self.oracles {
            o.observe(&ev, &mut self.scratch);
        }
        self.absorb();
    }

    /// A processor crashed or left: release it from convergence duties.
    pub fn retire(&mut self, node: ProcessorId) {
        for o in &mut self.oracles {
            o.retire(node);
        }
    }

    /// A retired processor restarted under the same id
    /// (crash→restart→rejoin): observer-keyed oracle state resets so the
    /// new incarnation is judged as a §7.1 joiner, while the
    /// one-history-per-id oracles (causal order, duplicate suppression)
    /// keep checking across the boundary.
    pub fn rejoin(&mut self, node: ProcessorId) {
        for o in &mut self.oracles {
            o.rejoin(node);
        }
    }

    /// End of run: `live` are the processors expected to have converged.
    pub fn finish(&mut self, live: &[ProcessorId]) {
        self.scratch.clear();
        for o in &mut self.oracles {
            o.finish(live, &mut self.scratch);
        }
        self.absorb();
    }

    fn absorb(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        if self.first_context.is_none() {
            self.first_context = Some(self.recent.iter().cloned().collect());
        }
        for v in self.scratch.drain(..) {
            if self.violations.len() < VIOLATION_CAP {
                self.violations.push(v);
            } else {
                self.suppressed += 1;
            }
        }
    }

    /// All recorded violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations, including any beyond the recording cap.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    /// Violations attributed to the named oracle.
    pub fn violations_of(&self, oracle: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.oracle == oracle)
            .count()
    }

    /// Observations ingested (synthetic founding views excluded).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// `Delivered` observations ingested.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The recent-event window captured when the first violation fired.
    pub fn first_context(&self) -> Option<&[Event]> {
        self.first_context.as_deref()
    }

    /// Render the first violation with its observation context — the
    /// minimal counterexample.
    pub fn first_counterexample(&self) -> Option<String> {
        let v = self.violations.first()?;
        let mut s = String::new();
        s.push_str(&format!("violation: {v}\n"));
        if let Some(ctx) = self.first_context() {
            s.push_str(&format!("last {} observations before it:\n", ctx.len()));
            for e in ctx {
                s.push_str(&format!(
                    "  {:>10}us P{}: {:?}\n",
                    e.at.as_micros(),
                    e.node.0,
                    e.obs
                ));
            }
        }
        Some(s)
    }
}

/// A shareable handle on an [`OracleSuite`], attachable to any number of
/// simulator-hosted [`Node`]s in a single-threaded [`SimNet`].
#[derive(Clone)]
pub struct Checker {
    suite: Rc<RefCell<OracleSuite>>,
}

impl Checker {
    /// A checker over the standard suite; `founders` is the initial
    /// membership of `group`.
    pub fn new(group: GroupId, founders: &[ProcessorId]) -> Self {
        Checker {
            suite: Rc::new(RefCell::new(OracleSuite::standard(group, founders))),
        }
    }

    /// Attach to one simulated processor: enables its observation recording
    /// and routes the stream into the shared suite.
    pub fn attach(&self, net: &mut SimNet<Node>, id: NodeId) {
        let suite = Rc::clone(&self.suite);
        let node = ProcessorId(id);
        let sim = net.node_mut(id).expect("attach to existing node");
        sim.set_observer(move |at, obs| {
            suite.borrow_mut().ingest(Event { at, node, obs });
        });
    }

    /// Attach to every listed node.
    pub fn attach_all(&self, net: &mut SimNet<Node>, ids: impl IntoIterator<Item = NodeId>) {
        for id in ids {
            self.attach(net, id);
        }
    }

    /// Release a crashed or departed processor from convergence duties.
    pub fn retire(&self, id: NodeId) {
        self.suite.borrow_mut().retire(ProcessorId(id));
    }

    /// A retired processor restarted under the same id — reset
    /// observer-keyed oracle state; call after [`Checker::attach`]ing the
    /// new incarnation.
    pub fn rejoin(&self, id: NodeId) {
        self.suite.borrow_mut().rejoin(ProcessorId(id));
    }

    /// Run end-of-run obligations over the processors expected to agree.
    pub fn finish(&self, live: impl IntoIterator<Item = NodeId>) {
        let live: Vec<ProcessorId> = live.into_iter().map(ProcessorId).collect();
        self.suite.borrow_mut().finish(&live);
    }

    /// Borrow the suite for inspection.
    pub fn with_suite<R>(&self, f: impl FnOnce(&OracleSuite) -> R) -> R {
        f(&self.suite.borrow())
    }

    /// Mutably borrow the suite — fault-injection fixtures feed fabricated
    /// observation streams through the same ingestion path the live
    /// observers use.
    pub fn with_suite_mut<R>(&self, f: impl FnOnce(&mut OracleSuite) -> R) -> R {
        f(&mut self.suite.borrow_mut())
    }

    /// Total violations so far.
    pub fn violation_count(&self) -> u64 {
        self.suite.borrow().violation_count()
    }

    /// Observations ingested so far.
    pub fn observed(&self) -> u64 {
        self.suite.borrow().observed()
    }

    /// `Delivered` observations ingested so far.
    pub fn delivered(&self) -> u64 {
        self.suite.borrow().delivered()
    }

    /// Panic with the first counterexample if any oracle tripped.
    ///
    /// `label` identifies the run (test name, seed) in the panic message.
    pub fn assert_clean(&self, label: &str) {
        let suite = self.suite.borrow();
        if suite.violation_count() > 0 {
            let cx = suite
                .first_counterexample()
                .unwrap_or_else(|| "no counterexample recorded".into());
            panic!(
                "{label}: {} conformance violation(s)\n{cx}",
                suite.violation_count()
            );
        }
    }
}
