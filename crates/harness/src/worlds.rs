//! Pre-wired simulation worlds the experiments sweep over, beside
//! `ftmp-check`'s [`FtmpWorld`](ftmp_check::FtmpWorld): the baselines' and
//! the replicated ORB's.

use bytes::Bytes;
use ftmp_baselines::TotalOrderNode;
use ftmp_check::RunResults;
use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::{
    ClockMode, ConnectionId, GroupId, ObjectGroupId, Processor, ProcessorId, ProtocolConfig,
};
use ftmp_net::{McastAddr, NodeId, SimConfig, SimDuration, SimNet, SimNode};
use ftmp_orb::{OrbEndpoint, OrbNode};
use std::collections::HashMap;

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
