//! The socket runtime's [`Node`] — the code `ftmp_runtime::spawn` ships,
//! minus its thread — hosted on the deterministic simulator through a
//! simulator-backed [`Transport`], so it meets what the socket tests cannot
//! give it on demand: packet loss, a crash part-way, and the seven oracles.
//!
//! Three founders (`ClockMode::Synchronized`, as the runtime builds them)
//! on a `SimNet` with 2 % i.i.d. loss, a publish load from every member,
//! and founder 3 crashing a third of the way in. Each node's own trace
//! recorder writes its observations; `ftmp_check`'s trace replay feeds them
//! to the `OracleSuite`. `CONFORMANCE_SEEDS` seeds (default 2), and the
//! first of them twice: once its clock is a parameter, a turn is
//! deterministic.

use bytes::Bytes;
use ftmp::check::{read_trace_file, replay_traces, seed_budget};
use ftmp::core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, ProtocolConfig, RequestNum};
use ftmp::net::{
    LossModel, McastAddr, Outbox, Packet, SimConfig, SimDuration, SimNet, SimNode, SimTime,
};
use ftmp::runtime::node::{Command, Deliveries, Node, NodeConfig};
use ftmp::runtime::{Inbox, RxDatagram, TraceWriter, Transport, TransportKind};
use ftmp::store::scratch_dir;
use std::path::Path;

const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(0x4654_4D31);
const MEMBERS: u32 = 3;
const CRASHED: u32 = 3;
const ROUNDS: u64 = 150;

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

/// The simulator as a [`Transport`]: one turn's view of the node's outbox.
struct SimTransport<'a> {
    src: u32,
    out: &'a mut Outbox,
}

impl Transport for SimTransport<'_> {
    fn kind(&self) -> TransportKind {
        TransportKind::UdpMulticast
    }
    fn send(&mut self, dst: McastAddr, payload: &[u8]) {
        self.out
            .send(Packet::new(self.src, dst, Bytes::copy_from_slice(payload)));
    }
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) -> u64 {
        for (dst, payload) in frames {
            self.out.send(Packet::new(self.src, *dst, payload.clone()));
        }
        frames.len() as u64
    }
    fn join(&mut self, addr: McastAddr) {
        self.out.join(addr);
    }
    fn leave(&mut self, addr: McastAddr) {
        self.out.leave(addr);
    }
    fn sent(&self) -> u64 {
        0
    }
    fn shutdown(&mut self) {}
}

/// A runtime node as a simulator node: every packet and every tick is one
/// [`Node::turn`], at the simulator's time.
struct Hosted {
    node: Node,
    intake: Vec<Inbox>,
    deliveries: Deliveries,
}

impl Hosted {
    fn turn(&mut self, now: SimTime, tick_due: bool, out: &mut Outbox) {
        let src = self.node.engine().id().0;
        let mut transport = SimTransport { src, out };
        self.node
            .turn(now, tick_due, &mut self.intake, &mut transport);
    }
}

impl SimNode for Hosted {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        self.intake.push(Inbox::Datagrams(vec![RxDatagram {
            addr: pkt.dst,
            payload: pkt.payload.clone(),
        }]));
        self.turn(now, false, out);
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.turn(now, true, out);
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One run; returns the hash of what the survivors delivered, in order.
fn run(seed: u64, dir: &Path) -> u64 {
    let ids: Vec<ProcessorId> = (1..=MEMBERS).map(ProcessorId).collect();
    let mut net: SimNet<Hosted> =
        SimNet::new(SimConfig::with_seed(seed).loss(LossModel::Iid { p: 0.02 }));
    for id in 1..=MEMBERS {
        let mut cfg = NodeConfig::founder(ProcessorId(id), GROUP, GROUP_ADDR, ids.clone());
        cfg.protocol = ProtocolConfig::with_seed(seed);
        cfg.connection = Some((conn(), GROUP));
        let trace = TraceWriter::create(dir.join(format!("node-{id}.trc")), id, 0).unwrap();
        let (node, deliveries, _events) = Node::new(net.now(), &cfg, None, Some(trace));
        net.add_node(
            id,
            Hosted {
                node,
                intake: Vec::new(),
                deliveries,
            },
        );
        // The founding subscription, as the runtime's thread applies it.
        net.with_node(id, |n, now, out| n.turn(now, false, out));
    }

    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            net.crash(CRASHED);
        }
        for id in net.alive() {
            net.with_node(id, |n, now, out| {
                n.intake.push(Inbox::Command(Command::Publish {
                    conn: conn(),
                    request: RequestNum(u64::from(id) * 10_000 + round),
                    giop: Bytes::from(vec![id as u8; 64]),
                }));
                n.turn(now, false, out);
            });
        }
        net.run_for(SimDuration::from_millis(2));
    }
    // Conviction of the crashed founder, the view change, and the sends
    // that queued behind it.
    net.run_for(SimDuration::from_millis(1_500));

    let survivors: Vec<ProcessorId> = ids.iter().copied().filter(|p| p.0 != CRASHED).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let end = net.now();
    for p in &survivors {
        let hosted = net.node_mut(p.0).unwrap();
        assert_eq!(
            hosted.node.engine().membership(GROUP).unwrap(),
            survivors,
            "seed {seed}: P{} installed the two-member view",
            p.0
        );
        let mut n = 0u64;
        while let Ok((_, d)) = hosted.deliveries.try_recv() {
            for v in [
                u64::from(p.0),
                d.request_num.0,
                u64::from(d.source.0),
                d.ts.0,
            ] {
                fnv(&mut hash, v);
            }
            n += 1;
        }
        assert!(
            n >= 2 * ROUNDS,
            "seed {seed}: P{} delivered {n}, fewer than the survivors published",
            p.0
        );
        hosted.node.finish_trace(end).expect("trace closed");
    }

    // The crashed founder's trace has no end marker, like a killed process's.
    let files: Vec<_> = (1..=MEMBERS)
        .map(|id| read_trace_file(&dir.join(format!("node-{id}.trc"))).unwrap())
        .collect();
    let report = replay_traces(GROUP, &ids, &files, &survivors);
    assert!(
        report.clean(),
        "seed {seed}: {} oracle violations {:?}\n{}",
        report.violations,
        report.by_oracle,
        report.first_counterexample.as_deref().unwrap_or("")
    );
    assert!(report.delivered > 0 && report.observed > report.delivered);
    hash
}

#[test]
fn runtime_nodes_survive_loss_and_a_crash_under_the_oracles() {
    let dir = scratch_dir("runtime-on-sim");
    let base = 0xD21u64;
    let first = run(base, &dir);
    assert_eq!(
        run(base, &dir),
        first,
        "two runs at one seed delivered differently"
    );
    for k in 1..seed_budget(2) {
        run(base + k, &dir);
    }
    let _ = std::fs::remove_dir_all(dir);
}
