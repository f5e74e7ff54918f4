//! Pre-wired simulation worlds the experiments sweep over.

use bytes::Bytes;
use ftmp_baselines::TotalOrderNode;
use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::{
    ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, RequestNum, SendOutcome,
};
use ftmp_net::{McastAddr, NodeId, SimConfig, SimDuration, SimNet, SimNode, SimTime};
use ftmp_orb::{OrbEndpoint, OrbNode};
use std::collections::HashMap;

/// The connection id the plain-multicast worlds bind statically.
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

/// An n-member FTMP processor group with a statically bound connection.
pub struct FtmpWorld {
    /// The simulator.
    pub net: SimNet<Node>,
    /// Member count.
    pub n: u32,
    group: GroupId,
    addr: McastAddr,
    send_times: HashMap<(u32, u64), u64>,
    next_req: u64,
}

impl FtmpWorld {
    /// Build the world: group `G1` at address 100 with members `1..=n`.
    pub fn new(n: u32, sim_cfg: SimConfig, proto: ProtocolConfig, clock: ClockMode) -> Self {
        let group = GroupId(1);
        let addr = McastAddr(100);
        let members: Vec<ProcessorId> = (1..=n).map(ProcessorId).collect();
        let mut net = SimNet::new(sim_cfg);
        net.set_classifier(ftmp_core::wire::classify);
        net.set_message_counter(ftmp_core::wire::message_count);
        for id in 1..=n {
            let mut engine = Processor::new(ProcessorId(id), proto.clone(), clock);
            engine.create_group(SimTime::ZERO, group, addr, members.clone());
            engine.bind_connection(world_conn(), group);
            net.add_node(id, Node::sim(engine, group));
            net.with_node(id, |node, now, out| node.pump(now, out));
        }
        FtmpWorld {
            net,
            n,
            group,
            addr,
            send_times: HashMap::new(),
            next_req: 0,
        }
    }

    /// Wrap an externally assembled simulator (custom per-node clock modes
    /// or configs); the nodes must already share `group` with the world
    /// connection bound, on the standard world multicast address (100).
    pub fn from_parts(net: SimNet<Node>, n: u32, group: GroupId) -> Self {
        FtmpWorld {
            net,
            n,
            group,
            addr: McastAddr(100),
            send_times: HashMap::new(),
            next_req: 0,
        }
    }

    /// The group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Multicast one Regular message of `payload_len` bytes from `from`.
    pub fn send(&mut self, from: u32, payload_len: usize) {
        self.send_on(world_conn(), from, payload_len);
    }

    /// Multicast one Regular message on a specific bound connection.
    /// Request numbers stay monotone over all connections of the world,
    /// matching §4's allocation rule.
    pub fn send_on(&mut self, conn: ConnectionId, from: u32, payload_len: usize) {
        self.next_req += 1;
        let publish = Command::Publish {
            conn,
            request: RequestNum(self.next_req),
            giop: Bytes::from(vec![0xAB; payload_len]),
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
    /// member.
    pub fn enable_telemetry(&mut self) {
        for id in 1..=self.n {
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

    /// Drain deliveries from every live node into [`RunResults`].
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

    /// Attach a conformance [`Checker`](ftmp_check::Checker) with the
    /// standard oracle suite to every member; the returned handle shares
    /// state with the running world, so call
    /// [`finish`](ftmp_check::Checker::finish) /
    /// [`assert_clean`](ftmp_check::Checker::assert_clean) once the
    /// workload settles.
    pub fn attach_checker(&mut self) -> ftmp_check::Checker {
        let founders: Vec<ProcessorId> = (1..=self.n).map(ProcessorId).collect();
        let checker = ftmp_check::Checker::new(self.group, &founders);
        checker.attach_all(&mut self.net, 1..=self.n);
        checker
    }

    /// Crash a member: it stops ticking and receives nothing until revived.
    pub fn crash(&mut self, id: u32) {
        self.net.crash(id);
    }

    /// Restart a crashed member from its durable log directory
    /// (crash→restart→rejoin, DESIGN.md §12). Recovers the log — torn tail
    /// truncated, corruption quarantined — re-derives the delivered
    /// horizon, builds a fresh engine under the same processor id that
    /// expects to be re-added (§7.1 join), reattaches a durable log on the
    /// same directory (new segment), revives the node and has `sponsor`
    /// re-add it. Returns the recovered state so the caller can drive
    /// delta state transfer from the horizon. The §7.1 add still needs
    /// simulated time to complete — run the world afterwards.
    pub fn restart_from_log(
        &mut self,
        id: u32,
        dir: &std::path::Path,
        sponsor: u32,
        proto: ProtocolConfig,
        clock: ClockMode,
    ) -> ftmp_store::RecoveredState {
        let (state, _) = ftmp_store::RecoveredState::from_log(dir).expect("log recovery");
        let mut engine = Processor::new(ProcessorId(id), proto, clock);
        engine.expect_join(self.group, self.addr);
        engine.bind_connection(world_conn(), self.group);
        let log = ftmp_store::DurableLog::open(dir, ftmp_store::LogConfig::default())
            .expect("reopen durable log");
        engine.set_delivery_log(Box::new(log));
        self.net.revive(id, Node::sim(engine, self.group));
        self.net.with_node(id, |node, now, out| node.pump(now, out));
        let add = Command::AddMember(ProcessorId(id));
        self.net
            .with_node(sponsor, move |node, now, out| node.command(now, add, out));
        state
    }

    /// The member ids still alive (not crashed) in this world.
    pub fn live(&self) -> Vec<NodeId> {
        (1..=self.n)
            .filter(|&id| !self.net.is_crashed(id))
            .collect()
    }

    /// Aggregate the per-layer counters (RMP/ROMP/PGMP) across all live
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

/// A baseline total-order world, generic over the engine.
pub struct BaselineWorld<N: SimNode + TotalOrderNode> {
    /// The simulator.
    pub net: SimNet<N>,
    /// Member count.
    pub n: u32,
    send_times: HashMap<(u32, u64), u64>,
}

impl<N: SimNode + TotalOrderNode> BaselineWorld<N> {
    /// Build with a per-node constructor `(id, members) -> engine`; every
    /// node subscribes to `addr`.
    pub fn new_with(
        n: u32,
        sim_cfg: SimConfig,
        addr: McastAddr,
        make: impl Fn(NodeId, Vec<NodeId>) -> N,
    ) -> Self {
        let members: Vec<NodeId> = (1..=n).collect();
        let mut net = SimNet::new(sim_cfg);
        for id in 1..=n {
            net.add_node(id, make(id, members.clone()));
            net.subscribe(id, addr);
        }
        BaselineWorld {
            net,
            n,
            send_times: HashMap::new(),
        }
    }

    /// Submit a payload at `from`.
    pub fn submit(&mut self, from: u32, payload_len: usize) {
        let now_us = self.net.now().as_micros();
        let payload = Bytes::from(vec![0xCD; payload_len]);
        let local = self
            .net
            .with_node(from, move |node, _, _| node.submit(payload))
            .expect("node exists");
        self.send_times.insert((from, local), now_us);
    }

    /// Advance virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        self.net.run_for(SimDuration::from_millis(ms));
    }

    /// Drain results. Baseline engines do not timestamp deliveries, so the
    /// latency sample uses the drain sweep's granularity: call this often
    /// (the experiments drain every millisecond).
    pub fn collect(&mut self) -> RunResults {
        let now_us = self.net.now().as_micros();
        let mut res = RunResults::default();
        for id in 1..=self.n {
            let Some(node) = self.net.node_mut(id) else {
                continue;
            };
            let mut seq = Vec::new();
            for d in node.take_delivered() {
                seq.push((d.global_seq, d.source, d.local_seq));
                if let Some(sent) = self.send_times.get(&(d.source, d.local_seq)) {
                    res.latencies_us.push(now_us.saturating_sub(*sent));
                }
            }
            res.sequences.push(seq);
        }
        res
    }

    /// Run for `total_ms`, draining every `drain_every_ms` to keep latency
    /// sampling granularity tight; merges all drains.
    pub fn run_collect(&mut self, total_ms: u64, drain_every_ms: u64) -> RunResults {
        let mut merged = RunResults {
            sequences: vec![Vec::new(); self.n as usize],
            latencies_us: Vec::new(),
        };
        let steps = total_ms / drain_every_ms.max(1);
        for _ in 0..steps {
            self.run_ms(drain_every_ms.max(1));
            let part = self.collect();
            for (i, s) in part.sequences.into_iter().enumerate() {
                merged.sequences[i].extend(s);
            }
            merged.latencies_us.extend(part.latencies_us);
        }
        merged
    }
}

/// A replicated-CORBA world: k client processors, m server replicas hosting
/// a servant, connected through the full ConnectRequest/Connect handshake.
pub struct OrbWorld {
    /// The simulator.
    pub net: SimNet<OrbNode>,
    /// Client processor ids.
    pub clients: Vec<u32>,
    /// Server processor ids.
    pub servers: Vec<u32>,
    conn: ConnectionId,
    invoke_times: HashMap<u64, u64>,
}

/// Domain multicast address used by [`OrbWorld`].
pub const ORB_DOMAIN_ADDR: McastAddr = McastAddr(500);
/// Connection processor-group address used by [`OrbWorld`].
pub const ORB_GROUP_ADDR: McastAddr = McastAddr(600);

impl OrbWorld {
    /// Connection id used by the world.
    pub fn conn(&self) -> ConnectionId {
        self.conn
    }

    /// Build `k` clients (ids `1..=k`) and `m` servers (ids `k+1..=k+m`),
    /// each server hosting a servant built by `make_servant`, and establish
    /// the connection. Panics if the handshake does not complete within a
    /// simulated second.
    pub fn new(
        k: u32,
        m: u32,
        sim_cfg: SimConfig,
        proto: ProtocolConfig,
        make_servant: impl Fn() -> Box<dyn ftmp_orb::Servant>,
    ) -> Self {
        let og_client = ObjectGroupId::new(1, 1);
        let og_server = ObjectGroupId::new(2, 7);
        let conn = ConnectionId::new(og_client, og_server);
        let clients: Vec<u32> = (1..=k).collect();
        let servers: Vec<u32> = (k + 1..=k + m).collect();
        let server_pids: Vec<ProcessorId> = servers.iter().map(|&i| ProcessorId(i)).collect();
        let client_pids: Vec<ProcessorId> = clients.iter().map(|&i| ProcessorId(i)).collect();
        let mut net = SimNet::new(sim_cfg);
        net.set_classifier(ftmp_core::wire::classify);
        for id in 1..=(k + m) {
            let mut proc = Processor::new(ProcessorId(id), proto.clone(), ClockMode::Lamport);
            let mut orb = OrbEndpoint::new();
            if clients.contains(&id) {
                orb.register_client(conn);
            } else {
                orb.host_replica(og_server, b"obj".to_vec(), make_servant());
                proc.register_server(
                    og_server,
                    ServerRegistration {
                        processors: server_pids.clone(),
                        pool: vec![(GroupId(10), ORB_GROUP_ADDR)],
                    },
                    ORB_DOMAIN_ADDR,
                );
            }
            net.add_node(id, OrbNode::new(proc, orb));
            net.with_node(id, |n, now, out| n.pump(now, out));
        }
        for &id in &clients {
            let cp = client_pids.clone();
            net.with_node(id, move |n, now, out| {
                n.proc_mut().open_connection(now, conn, cp, ORB_DOMAIN_ADDR);
                n.pump(now, out);
            });
        }
        let mut world = OrbWorld {
            net,
            clients,
            servers,
            conn,
            invoke_times: HashMap::new(),
        };
        for _ in 0..400 {
            world.net.run_for(SimDuration::from_millis(5));
            if world.connected() {
                return world;
            }
        }
        panic!("OrbWorld: connection establishment did not complete");
    }

    fn connected(&self) -> bool {
        self.clients.iter().chain(self.servers.iter()).all(|&id| {
            self.net
                .node(id)
                .is_some_and(|n| n.proc().connection_group(self.conn).is_some())
        })
    }

    /// Every client replica issues the same invocation (active replication).
    /// Returns the request number.
    pub fn invoke_all(&mut self, operation: &str, arg: i64) -> u64 {
        let now_us = self.net.now().as_micros();
        let conn = self.conn;
        let mut num = 0;
        for &id in &self.clients.clone() {
            let op = operation.to_string();
            let n = self
                .net
                .with_node(id, move |node, now, out| {
                    node.invoke(
                        now,
                        conn,
                        b"obj",
                        &op,
                        &ftmp_orb::servant::encode_i64_arg(arg),
                        out,
                    )
                })
                .expect("client exists");
            num = n.0;
        }
        self.invoke_times.insert(num, now_us);
        num
    }

    /// Advance virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        self.net.run_for(SimDuration::from_millis(ms));
    }

    /// Drain completions at the first client; returns (completed request
    /// numbers, RTT latency samples µs sampled at drain granularity).
    pub fn drain_completions(&mut self) -> (Vec<u64>, Vec<u64>) {
        let now_us = self.net.now().as_micros();
        let id = self.clients[0];
        let mut nums = Vec::new();
        let mut lats = Vec::new();
        if let Some(node) = self.net.node_mut(id) {
            for c in node.take_completions() {
                nums.push(c.request_num.0);
                if let Some(t) = self.invoke_times.get(&c.request_num.0) {
                    lats.push(now_us.saturating_sub(*t));
                }
            }
        }
        (nums, lats)
    }

    /// Total duplicate requests suppressed across the server replicas.
    pub fn server_suppressed(&self) -> u64 {
        self.servers
            .iter()
            .map(|&id| {
                self.net
                    .node(id)
                    .map_or(0, |n| n.orb().suppression_counts().0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_baselines::sequencer::{SequencerConfig, SequencerNode};

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

    #[test]
    fn baseline_world_round_trip() {
        let addr = McastAddr(1);
        let mut w = BaselineWorld::new_with(3, SimConfig::with_seed(2), addr, |id, members| {
            SequencerNode::new(id, SequencerConfig::new(addr, members))
        });
        w.submit(1, 64);
        w.submit(3, 64);
        let res = w.run_collect(100, 1);
        assert_eq!(res.sequences[0].len(), 2);
        assert!(res.all_agree());
    }

    #[test]
    fn orb_world_invocation() {
        let mut w = OrbWorld::new(
            2,
            3,
            SimConfig::with_seed(3),
            ProtocolConfig::with_seed(3),
            || Box::new(ftmp_orb::Counter::default()),
        );
        w.invoke_all("add", 5);
        w.run_ms(200);
        let (nums, lats) = w.drain_completions();
        assert_eq!(nums, vec![1]);
        assert_eq!(lats.len(), 1);
        assert!(w.server_suppressed() >= 3, "one duplicate per server");
    }
}
