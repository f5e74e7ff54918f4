//! The socket runtime's node — `NodeConfig::build`, what `ftmp_runtime::spawn`
//! runs minus its thread — on the deterministic simulator, so it meets what
//! the socket tests cannot give it on demand: packet loss, a crash part-way,
//! and the seven oracles. The node is the engine's one host, so the
//! simulator runs it as it runs every other.
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
use ftmp::net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet};
use ftmp::runtime::node::{Command, Deliveries, Node, NodeConfig};
use ftmp::runtime::TraceWriter;
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

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One run; returns the hash of what the survivors delivered, in order.
fn run(seed: u64, dir: &Path) -> u64 {
    let ids: Vec<ProcessorId> = (1..=MEMBERS).map(ProcessorId).collect();
    let mut net: SimNet<Node> =
        SimNet::new(SimConfig::with_seed(seed).loss(LossModel::Iid { p: 0.02 }));
    let mut deliveries: Vec<Deliveries> = Vec::new();
    for id in 1..=MEMBERS {
        let mut cfg = NodeConfig::founder(ProcessorId(id), GROUP, GROUP_ADDR, ids.clone());
        cfg.protocol = ProtocolConfig::with_seed(seed);
        cfg.connection = Some((conn(), GROUP));
        let trace = TraceWriter::create(dir.join(format!("node-{id}.trc")), id, 0).unwrap();
        let (node, delivered, _events) = cfg.build(net.now(), None, Some(trace));
        net.add_node(id, node);
        deliveries.push(delivered);
        // The founding subscription, as the runtime's thread applies it.
        net.with_node(id, |n, now, out| n.pump(now, out));
    }

    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            net.crash(CRASHED);
        }
        for id in net.alive() {
            let publish = Command::Publish {
                conn: conn(),
                request: RequestNum(u64::from(id) * 10_000 + round),
                giop: Bytes::from(vec![id as u8; 64]),
            };
            net.with_node(id, |n, now, out| n.command(now, publish, out));
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
        let node = net.node_mut(p.0).unwrap();
        assert_eq!(
            node.engine().membership(GROUP).unwrap(),
            survivors,
            "seed {seed}: P{} installed the two-member view",
            p.0
        );
        let mut n = 0u64;
        while let Ok((_, d)) = deliveries[p.0 as usize - 1].try_recv() {
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
        node.host.finish_trace(end).expect("trace closed");
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
