//! The one builder of a simulated FTMP group: every gate, experiment and
//! test that runs members on the simulator builds them here, so the
//! oracles judge runs that were all assembled the same way.
//!
//! An [`FtmpWorld`] is a [`SimNet`] of [`Node`]s sharing one processor
//! group. It covers the founders (a clock per member, every connection the
//! world binds), a joiner waiting to be sponsored in (fresh, or reviving an
//! earlier incarnation of its id), a crash, a voluntary leave and a restart
//! from a durable log. Every member goes through one path: the engine is
//! built, bound and hosted by [`Node::sim`], the world's [`Checker`] is
//! attached when the caller asked for the oracles, and the node takes its
//! first turn. Everything after that is a [`Command`].

use bytes::Bytes;
use ftmp_core::{
    wire, ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, RequestNum, SendOutcome,
};
use ftmp_net::{McastAddr, NodeId, SimConfig, SimDuration, SimNet, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use crate::suite::Checker;

/// The connection every member of a default world binds.
pub fn world_conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// Results drained from a world: per-node delivery sequences and
/// send→deliver latency samples (µs) across all receivers.
#[derive(Debug, Default)]
pub struct RunResults {
    /// Per node: `(order key…, source, local seq)` in delivery order.
    pub sequences: Vec<Vec<(u64, u32, u64)>>,
    /// One sample per (message, receiver) pair.
    pub latencies_us: Vec<u64>,
}

impl RunResults {
    /// True when every node delivered the identical sequence.
    pub fn all_agree(&self) -> bool {
        self.sequences.windows(2).all(|w| w[0] == w[1])
    }

    /// Messages delivered at node 0.
    pub fn delivered(&self) -> usize {
        self.sequences.first().map_or(0, Vec::len)
    }
}

/// Each member's timestamp source, by processor id. A [`ClockMode`] is
/// every member's; a function of the id gives each member its own (E4's and
/// the clock-skew cell's per-member skews).
pub trait Clocks {
    /// The clock member `id` stamps with.
    fn clock(&self, id: u32) -> ClockMode;
}

impl Clocks for ClockMode {
    fn clock(&self, _id: u32) -> ClockMode {
        *self
    }
}

impl<F: Fn(u32) -> ClockMode> Clocks for F {
    fn clock(&self, id: u32) -> ClockMode {
        self(id)
    }
}

/// What a world is built with beyond [`FtmpWorld::new`]'s arguments:
/// the connections every member binds.
pub struct WorldBuilder {
    sim_cfg: SimConfig,
    proto: ProtocolConfig,
    clocks: Box<dyn Clocks>,
    conns: Vec<ConnectionId>,
}

impl WorldBuilder {
    /// Bind these connections at every member instead of
    /// [`world_conn`] alone (§7: several logical connections share one
    /// processor group).
    pub fn conns(mut self, conns: Vec<ConnectionId>) -> Self {
        self.conns = conns;
        self
    }

    /// Build the world: group `G1` at address 100 with founders `1..=n`.
    pub fn build(self, n: u32) -> FtmpWorld {
        let group = GroupId(1);
        let addr = McastAddr(100);
        let founders: Vec<ProcessorId> = (1..=n).map(ProcessorId).collect();
        let mut net = SimNet::new(self.sim_cfg);
        net.set_classifier(wire::classify);
        net.set_message_counter(wire::message_count);
        let mut world = FtmpWorld {
            net,
            n,
            group,
            addr,
            conns: self.conns,
            clocks: self.clocks,
            telemetry: false,
            checker: Checker::new(group, &founders),
            checked: false,
            members: (1..=n).collect(),
            send_times: HashMap::new(),
            next_req: 0,
        };
        for id in 1..=n {
            let mut engine = world.engine(id, self.proto.clone());
            engine.create_group(SimTime::ZERO, group, addr, founders.clone());
            world.host(id, engine);
        }
        world
    }
}

/// An n-member FTMP processor group on the simulator, every member bound
/// to the world's connections.
pub struct FtmpWorld {
    /// The simulator.
    pub net: SimNet<Node>,
    /// Founder count.
    pub n: u32,
    group: GroupId,
    addr: McastAddr,
    conns: Vec<ConnectionId>,
    clocks: Box<dyn Clocks>,
    telemetry: bool,
    checker: Checker,
    checked: bool,
    /// Founders and sponsored joiners that have not left.
    members: BTreeSet<u32>,
    send_times: HashMap<(u32, u64), u64>,
    next_req: u64,
}

impl FtmpWorld {
    /// Build the world: group `G1` at address 100 with founders `1..=n`,
    /// each stamping with `clock`'s mode for its id.
    pub fn new(
        n: u32,
        sim_cfg: SimConfig,
        proto: ProtocolConfig,
        clock: impl Clocks + 'static,
    ) -> Self {
        Self::builder(sim_cfg, proto, clock).build(n)
    }

    /// A world to shape before its founders are built.
    pub fn builder(
        sim_cfg: SimConfig,
        proto: ProtocolConfig,
        clock: impl Clocks + 'static,
    ) -> WorldBuilder {
        WorldBuilder {
            sim_cfg,
            proto,
            clocks: Box::new(clock),
            conns: vec![world_conn()],
        }
    }

    /// A fresh engine for member `id`, on its clock.
    fn engine(&self, id: u32, proto: ProtocolConfig) -> Processor {
        Processor::new(ProcessorId(id), proto, self.clocks.clock(id))
    }

    /// Host `engine` as member `id` — reviving an earlier incarnation of
    /// the id if the simulator has one — with the world's connections bound,
    /// its telemetry and checker as the world has them, and let it take its
    /// first turn. A revived id is a new incarnation to the oracles.
    fn host(&mut self, id: u32, mut engine: Processor) {
        for &conn in &self.conns {
            engine.bind_connection(conn, self.group);
        }
        if self.telemetry {
            engine.enable_telemetry();
        }
        let node = Node::sim(engine, self.group);
        let revived = self.net.node(id).is_some();
        if revived {
            self.net.revive(id, node);
        } else {
            self.net.add_node(id, node);
        }
        if self.checked {
            self.checker.attach(&mut self.net, id);
            if revived {
                self.checker.rejoin(id);
            }
        }
        self.net.with_node(id, |node, now, out| node.pump(now, out));
    }

    /// The group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The world's checker. It watches only once
    /// [`attach_checker`](Self::attach_checker) has attached it.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Have `id` take `cmd` in, in a turn of its own.
    pub fn command(&mut self, id: u32, cmd: Command) {
        self.net
            .with_node(id, move |node, now, out| node.command(now, cmd, out));
    }

    /// The connections every member binds.
    pub fn conns(&self) -> &[ConnectionId] {
        &self.conns
    }

    /// Multicast one Regular message of `payload_len` bytes from `from` on
    /// the world's first connection.
    pub fn send(&mut self, from: u32, payload_len: usize) {
        self.publish(from, self.conns[0], Bytes::from(vec![0xAB; payload_len]));
    }

    /// Multicast `giop` from `from` on `conn`. Request numbers stay
    /// monotone over all connections of the world, matching §4's
    /// allocation rule.
    pub fn publish(&mut self, from: u32, conn: ConnectionId, giop: Bytes) {
        self.next_req += 1;
        let publish = Command::Publish {
            conn,
            request: RequestNum(self.next_req),
            giop,
        };
        let now_us = self.net.now().as_micros();
        let sent = self.net.with_node(from, move |node, now, out| {
            node.command(now, publish, out);
            node.host.published.take()
        });
        if let Some(Some(Ok(SendOutcome::Sent { seq, .. }))) = sent {
            self.send_times.insert((from, seq.0), now_us);
        }
    }

    /// Enable protocol telemetry (latency histograms, counters) on every
    /// member, and on every member built from now on.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
        for id in self.net.alive() {
            self.net
                .with_node(id, |node, _, _| node.engine_mut().enable_telemetry());
        }
    }

    /// Advance virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        self.net.run_for(SimDuration::from_millis(ms));
    }

    /// Advance virtual time by microseconds.
    pub fn run_us(&mut self, us: u64) {
        self.net.run_for(SimDuration::from_micros(us));
    }

    /// Drain deliveries from every live founder into [`RunResults`].
    pub fn collect(&mut self) -> RunResults {
        let mut res = RunResults::default();
        for id in 1..=self.n {
            if self.net.is_crashed(id) {
                continue;
            }
            let Some(node) = self.net.node_mut(id) else {
                continue;
            };
            let mut seq = Vec::new();
            for (at, d) in node.take_deliveries() {
                seq.push((d.ts.0, d.source.0, d.seq.0));
                if let Some(sent) = self.send_times.get(&(d.source.0, d.seq.0)) {
                    res.latencies_us.push(at.as_micros().saturating_sub(*sent));
                }
            }
            res.sequences.push(seq);
        }
        res
    }

    /// Attach the world's [`Checker`] with the standard oracle suite to
    /// every founder, and to every member built from now on; the returned
    /// handle shares state with the running world, so call
    /// [`finish`](Checker::finish) / [`assert_clean`](Checker::assert_clean)
    /// once the workload settles.
    pub fn attach_checker(&mut self) -> Checker {
        self.checked = true;
        self.checker.attach_all(&mut self.net, 1..=self.n);
        self.checker.clone()
    }

    /// Crash a member: it stops ticking and receives nothing until revived,
    /// and the checker no longer expects it to converge.
    pub fn crash(&mut self, id: u32) {
        self.net.crash(id);
        self.checker.retire(id);
    }

    /// A fresh engine under `id` that expects to be added (§7.1), hosted
    /// and waiting for a [`sponsor`](Self::sponsor). An id the simulator
    /// already knows (crashed, or departed) is revived.
    pub fn joiner(&mut self, id: u32, proto: ProtocolConfig) {
        let mut engine = self.engine(id, proto);
        engine.expect_join(self.group, self.addr);
        self.host(id, engine);
    }

    /// Have `sponsor` add `joiner` to the group (§7.1). The add still needs
    /// simulated time to complete — run the world afterwards.
    pub fn sponsor(&mut self, sponsor: u32, joiner: u32) {
        self.command(sponsor, Command::AddMember(ProcessorId(joiner)));
        self.members.insert(joiner);
    }

    /// Have `sponsor` remove `leaver` from the group: a voluntary leave.
    pub fn leave(&mut self, leaver: u32, sponsor: u32) {
        self.command(sponsor, Command::RemoveMember(ProcessorId(leaver)));
        self.members.remove(&leaver);
        self.checker.retire(leaver);
    }

    /// Restart a crashed member from its durable log directory
    /// (crash→restart→rejoin, DESIGN.md §12): recover the log — torn tail
    /// truncated, corruption quarantined — build a [`joiner`](Self::joiner)
    /// under the same processor id with a durable log reattached on the
    /// same directory (new segment), and have `sponsor` re-add it. Returns
    /// what the recovery found, so the caller can check the crash was clean
    /// and drive delta state transfer from the horizon it re-derives. The
    /// §7.1 add still needs simulated time to complete — run the world
    /// afterwards.
    pub fn restart_from_log(
        &mut self,
        id: u32,
        dir: &Path,
        sponsor: u32,
        proto: ProtocolConfig,
    ) -> ftmp_store::Recovered {
        let recovered = ftmp_store::recover(dir).expect("recover the log");
        let log = ftmp_store::DurableLog::open(dir, ftmp_store::LogConfig::default())
            .expect("reopen the log");
        let mut engine = self.engine(id, proto);
        engine.expect_join(self.group, self.addr);
        engine.set_delivery_log(Box::new(log));
        self.host(id, engine);
        self.sponsor(sponsor, id);
        recovered
    }

    /// The members still alive: founders and sponsored joiners that have
    /// neither left nor crashed, in id order.
    pub fn live(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|&id| !self.net.is_crashed(id))
            .collect()
    }

    /// Aggregate the per-layer counters (RMP/ROMP/PGMP) across all
    /// members; counts sum, high-water marks max.
    pub fn layer_totals(&self) -> ftmp_core::processor::LayerCounters {
        let mut total = ftmp_core::processor::LayerCounters::default();
        for (_, node) in self.net.nodes() {
            total.merge(&node.engine().layer_totals());
        }
        total
    }

    /// Aggregate protocol stats across members: (nacks, retransmissions,
    /// duplicates).
    pub fn recovery_stats(&self) -> (u64, u64, u64) {
        let mut nacks = 0;
        let mut retrans = 0;
        let mut dups = 0;
        for (_, node) in self.net.nodes() {
            let s = node.engine().stats();
            nacks += s.nacks_sent;
            retrans += s.retransmissions_sent;
            dups += s.duplicates;
        }
        (nacks, retrans, dups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftmp_world_round_trip() {
        let mut w = FtmpWorld::new(
            3,
            SimConfig::with_seed(1),
            ProtocolConfig::with_seed(1),
            ClockMode::Lamport,
        );
        w.send(1, 64);
        w.send(2, 64);
        w.run_ms(100);
        let res = w.collect();
        assert!(res.all_agree());
        assert_eq!(res.delivered(), 2);
        assert!(!res.latencies_us.is_empty());
        assert!(res.latencies_us.iter().all(|&l| l < 100_000));
    }

    /// Each founder stamps with the clock given for its id: at time zero a
    /// synchronized clock's first stamp is its skew.
    #[test]
    fn each_member_stamps_with_its_own_clock() {
        let skew = |id: u32| ClockMode::Synchronized {
            skew_us: i64::from(id) * 1_000_000,
        };
        let mut w = FtmpWorld::new(
            3,
            SimConfig::with_seed(2),
            ProtocolConfig::with_seed(2),
            skew,
        );
        for id in 1..=3 {
            w.send(id, 8);
        }
        w.run_ms(100);
        let res = w.collect();
        assert!(res.all_agree());
        let stamps: Vec<(u64, u32)> = res.sequences[0].iter().map(|&(ts, s, _)| (ts, s)).collect();
        assert_eq!(stamps, [(1_000_000, 1), (2_000_000, 2), (3_000_000, 3)]);
    }

    /// The lifecycle end to end under the oracles: a joiner sponsored in, a
    /// voluntary leave, a crash, and a restart from the durable log the
    /// victim kept, rebinding every connection the world binds.
    #[test]
    fn join_leave_crash_and_restart_from_a_log_run_clean() {
        let conns = vec![
            world_conn(),
            ConnectionId::new(ObjectGroupId::new(3, 1), ObjectGroupId::new(4, 1)),
        ];
        let mut w = FtmpWorld::builder(
            SimConfig::with_seed(3),
            ProtocolConfig::with_seed(3),
            ClockMode::Lamport,
        )
        .conns(conns.clone())
        .build(4);
        w.attach_checker();
        let dir = ftmp_store::scratch_dir("world-restart");
        let log = ftmp_store::DurableLog::open(&dir, ftmp_store::LogConfig::default())
            .expect("open the log");
        w.net.with_node(4, move |n, _, _| {
            n.engine_mut().set_delivery_log(Box::new(log));
        });
        let traffic = |w: &mut FtmpWorld| {
            for k in 0..8u32 {
                let from = w.live()[k as usize % w.live().len()];
                w.publish(from, conns[k as usize % 2], Bytes::from(vec![0xAB; 32]));
                w.run_ms(3);
            }
        };
        traffic(&mut w);
        w.joiner(5, ProtocolConfig::with_seed(5));
        w.sponsor(1, 5);
        w.run_ms(500);
        traffic(&mut w);
        // The leave comes first: P2 retires still holding summaries of
        // P4's first incarnation, which must not keep its old stream in the
        // reliability oracle's union once P4 is readmitted.
        w.leave(2, 1);
        w.run_ms(500);
        traffic(&mut w);
        w.crash(4);
        w.run_ms(800);
        traffic(&mut w);
        let recovered = w.restart_from_log(4, &dir, 1, ProtocolConfig::with_seed(4));
        assert_eq!(recovered.stats.records_quarantined, 0, "a clean crash");
        assert!(
            !recovered.records.is_empty(),
            "the victim logged deliveries"
        );
        w.run_ms(500);
        traffic(&mut w);
        w.run_ms(1_000);
        assert_eq!(w.live(), vec![1, 3, 4, 5]);
        let view = |id: u32| w.net.node(id)?.engine().membership(w.group());
        for id in w.live() {
            assert_eq!(view(id), view(1), "P{id} holds P1's view");
        }
        for conn in &conns {
            let group = w
                .net
                .node(4)
                .and_then(|n| n.engine().connection_group(*conn));
            assert_eq!(group, Some(w.group()), "the restart rebinds {conn:?}");
        }
        w.checker().finish(w.live());
        w.checker().assert_clean("world lifecycle");
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
