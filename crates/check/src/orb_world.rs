//! The one builder of a simulated replicated-object group, beside
//! [`FtmpWorld`](crate::FtmpWorld): every experiment, test, bench and
//! example that runs the ORB on the simulator assembles it here.
//!
//! An [`OrbWorld`] is `k` client replicas and `m` server replicas of one
//! object group, connected through the full ConnectRequest/Connect
//! handshake (§7). What callers vary is the shape (`k`, `m`), the network,
//! the protocol configuration, the servant and the replication style;
//! everything else — the clock, the addresses, the pool group, the object
//! key — is one constant here. After the handshake, replicas crash and are
//! [`activate`](OrbWorld::activate)d back in (§7.2).

use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::{
    ClockMode, Command, ConnectionId, GroupId, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig,
};
use ftmp_net::{McastAddr, SimConfig, SimDuration, SimNet};
use ftmp_orb::servant::encode_i64_arg;
use ftmp_orb::{OrbEndpoint, OrbNode, ReplicationStyle, Servant, Transfer};
use std::collections::HashMap;
use std::path::Path;

/// The fault tolerance domain's multicast address: servers listen on it for
/// the clients' ConnectRequest.
pub const ORB_DOMAIN_ADDR: McastAddr = McastAddr(500);
/// The address of the processor group the server pool hands out.
pub const ORB_GROUP_ADDR: McastAddr = McastAddr(600);
/// The processor group the server pool hands out; membership commands act
/// on it.
pub const ORB_POOL_GROUP: GroupId = GroupId(10);
/// The key every server replica hosts its servant under.
pub const OBJECT_KEY: &[u8] = b"obj";
/// Every member's clock.
const CLOCK: ClockMode = ClockMode::Lamport;

/// The world's one connection: client object group `1.1` to server object
/// group `2.7`.
pub fn orb_conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(2, 7))
}

/// A replicated-CORBA world: client replicas `1..=k`, server replicas
/// `k+1..=k+m` hosting the world's servant, and the connection between
/// them established.
pub struct OrbWorld {
    /// The simulator.
    pub net: SimNet<OrbNode>,
    /// Client processor ids.
    pub clients: Vec<u32>,
    /// Server processor ids: the founders, then each replica activated
    /// under a fresh id.
    pub servers: Vec<u32>,
    proto: ProtocolConfig,
    make_servant: Box<dyn Fn() -> Box<dyn Servant>>,
    invoke_times: HashMap<u64, u64>,
}

impl OrbWorld {
    /// An actively replicated world: every server replica executes every
    /// request (the paper's model).
    pub fn new(
        k: u32,
        m: u32,
        sim_cfg: SimConfig,
        proto: ProtocolConfig,
        make_servant: impl Fn() -> Box<dyn Servant> + 'static,
    ) -> Self {
        Self::with_style(k, m, sim_cfg, proto, ReplicationStyle::Active, make_servant)
    }

    /// Build `k` clients and `m` servers replicating in `style`, and
    /// establish the connection. Panics if the handshake does not complete
    /// within two simulated seconds.
    pub fn with_style(
        k: u32,
        m: u32,
        sim_cfg: SimConfig,
        proto: ProtocolConfig,
        style: ReplicationStyle,
        make_servant: impl Fn() -> Box<dyn Servant> + 'static,
    ) -> Self {
        let conn = orb_conn();
        let mut net = SimNet::new(sim_cfg);
        net.set_classifier(ftmp_core::wire::classify);
        let mut world = OrbWorld {
            net,
            clients: (1..=k).collect(),
            servers: (k + 1..=k + m).collect(),
            proto,
            make_servant: Box::new(make_servant),
            invoke_times: HashMap::new(),
        };
        let pids = |ids: &[u32]| ids.iter().map(|&i| ProcessorId(i)).collect::<Vec<_>>();
        let (client_pids, server_pids) = (pids(&world.clients), pids(&world.servers));
        for id in 1..=k + m {
            let mut proc = world.engine(id);
            let mut orb = OrbEndpoint::new();
            if id <= k {
                orb.register_client(conn);
            } else {
                orb.host_replica(conn.server, OBJECT_KEY, (world.make_servant)());
                if style == ReplicationStyle::WarmPassive {
                    orb.set_warm_passive(conn.server, ProcessorId(id), server_pids.clone());
                }
                proc.register_server(
                    conn.server,
                    ServerRegistration {
                        processors: server_pids.clone(),
                        pool: vec![(ORB_POOL_GROUP, ORB_GROUP_ADDR)],
                    },
                    ORB_DOMAIN_ADDR,
                );
            }
            world.host(id, proc, orb);
        }
        for id in 1..=k {
            let cp = client_pids.clone();
            world.net.with_node(id, move |n, now, out| {
                n.proc_mut().open_connection(now, conn, cp, ORB_DOMAIN_ADDR);
                n.pump(now, out);
            });
        }
        for _ in 0..400 {
            world.run_ms(5);
            if world.connected() {
                return world;
            }
        }
        panic!("OrbWorld: connection establishment did not complete");
    }

    /// A fresh engine for member `id`.
    fn engine(&self, id: u32) -> Processor {
        Processor::new(ProcessorId(id), self.proto.clone(), CLOCK)
    }

    /// Host `proc` and `orb` as member `id` — reviving an earlier
    /// incarnation of the id if the simulator has one — and let it take its
    /// first turn.
    fn host(&mut self, id: u32, proc: Processor, orb: OrbEndpoint) {
        let node = OrbNode::new(proc, ORB_POOL_GROUP, orb);
        if self.net.node(id).is_some() {
            self.net.revive(id, node);
        } else {
            self.net.add_node(id, node);
        }
        self.net.with_node(id, |n, now, out| n.pump(now, out));
    }

    fn connected(&self) -> bool {
        self.clients.iter().chain(&self.servers).all(|&id| {
            self.net
                .node(id)
                .is_some_and(|n| n.proc().connection_group(orb_conn()).is_some())
        })
    }

    /// Every client replica issues the same invocation (active
    /// replication). Returns the request number.
    pub fn invoke_all(&mut self, operation: &str, arg: i64) -> u64 {
        let now_us = self.net.now().as_micros();
        let args = encode_i64_arg(arg);
        let mut num = 0;
        for &id in &self.clients {
            let invoked = self.net.with_node(id, |node, now, out| {
                node.invoke(now, orb_conn(), OBJECT_KEY, operation, &args, out)
            });
            num = invoked.expect("client exists").0;
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

    /// Server `id`'s servant state, read into an `S` through its snapshot.
    pub fn state<S: Servant + Default>(&self, id: u32) -> S {
        let node = self.net.node(id);
        let servant = node.and_then(|n| n.orb().servant(orb_conn().server));
        let mut state = S::default();
        state.restore(&servant.expect("a server replica").snapshot());
        state
    }

    /// Crash a member: it stops ticking and receives nothing until it is
    /// [`activate`](Self::activate)d again.
    pub fn crash(&mut self, id: u32) {
        self.net.crash(id);
    }

    /// Activate a server replica under `id` (§7.2) and have `sponsor` add
    /// it to the connection's processor group. A fresh id joins the world's
    /// servers; an id the simulator knows is a new incarnation of it. The
    /// replica is an active one (a warm-passive hosting set only shrinks,
    /// so no survivor would count a rejoined backup), hosts a fresh
    /// servant and applies `transfers` in order
    /// ([`OrbEndpoint::activate_replica`]): a donor's checkpoint and log
    /// suffix, or its own recovered history and a donor's delta. With
    /// `log`, its engine persists deliveries to a durable log reopened on
    /// that directory (new segment; DESIGN.md §12). The sponsor's add is
    /// retried until the group lists the replica, so it may be issued while
    /// an earlier incarnation is still listed; it needs simulated time to
    /// complete — run the world afterwards.
    pub fn activate(
        &mut self,
        id: u32,
        transfers: impl IntoIterator<Item = Transfer>,
        log: Option<&Path>,
        sponsor: u32,
    ) {
        let conn = orb_conn();
        let mut proc = self.engine(id);
        proc.expect_join(ORB_POOL_GROUP, ORB_GROUP_ADDR);
        proc.bind_connection(conn, ORB_POOL_GROUP);
        if let Some(dir) = log {
            let log = ftmp_store::DurableLog::open(dir, ftmp_store::LogConfig::default())
                .expect("reopen the log");
            proc.set_delivery_log(Box::new(log));
        }
        let mut orb = OrbEndpoint::new();
        orb.activate_replica(
            conn.server,
            OBJECT_KEY,
            (self.make_servant)(),
            conn,
            transfers,
        );
        if self.net.node(id).is_none() {
            self.servers.push(id);
        }
        self.host(id, proc, orb);
        let add = Command::AddMember(ProcessorId(id));
        self.net
            .with_node(sponsor, move |n, now, out| n.command(now, add, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_orb::Counter;

    fn counter() -> Box<dyn Servant> {
        Box::new(Counter::default())
    }

    #[test]
    fn orb_world_invocation() {
        let mut w = OrbWorld::new(
            2,
            3,
            SimConfig::with_seed(3),
            ProtocolConfig::with_seed(3),
            counter,
        );
        w.invoke_all("add", 5);
        w.run_ms(200);
        let (nums, lats) = w.drain_completions();
        assert_eq!(nums, vec![1]);
        assert_eq!(lats.len(), 1);
        assert!(w.server_suppressed() >= 3, "one duplicate per server");
        for id in w.servers.clone() {
            assert_eq!(w.state::<Counter>(id).value(), 5, "P{id}");
        }
    }
}
