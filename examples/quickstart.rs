//! Quickstart: a five-member FTMP group delivering messages in one agreed
//! total order, over a lossy simulated network.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use ftmp::core::{
    ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, RequestNum,
};
use ftmp::net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime};

fn main() {
    const N: u32 = 5;
    let group = GroupId(1);
    let addr = McastAddr(0xE000_0001);
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));

    // A deterministic network with 5% packet loss.
    let sim_cfg = SimConfig::with_seed(42).loss(LossModel::Iid { p: 0.05 });
    let mut net = SimNet::new(sim_cfg);
    net.set_classifier(ftmp::core::wire::classify);

    // Five processors, all members of one processor group, with a logical
    // connection bound for application traffic. Each is hosted by a `Node`,
    // the same host the socket runtime runs.
    let members: Vec<ProcessorId> = (1..=N).map(ProcessorId).collect();
    for id in 1..=N {
        let mut engine = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(42),
            ClockMode::Lamport,
        );
        engine.create_group(SimTime::ZERO, group, addr, members.clone());
        engine.bind_connection(conn, group);
        net.add_node(id, Node::sim(engine, group));
        // Founding the group subscribed to it; the first turn says so.
        net.with_node(id, |n, now, out| n.pump(now, out));
    }

    // Everyone multicasts concurrently; FTMP orders the lot.
    for round in 0..4u64 {
        for id in 1..=N {
            let publish = Command::Publish {
                conn,
                request: RequestNum(round * N as u64 + id as u64),
                giop: Bytes::from(format!("msg {round} from P{id}")),
            };
            net.with_node(id, move |n, now, out| n.command(now, publish, out));
        }
        net.run_for(SimDuration::from_millis(10));
    }
    net.run_for(SimDuration::from_millis(200));

    // Collect each member's delivery sequence.
    let mut sequences = Vec::new();
    for id in 1..=N {
        let deliveries = net.node_mut(id).unwrap().take_deliveries();
        let seq: Vec<String> = deliveries
            .iter()
            .map(|(_, d)| String::from_utf8_lossy(&d.giop).into_owned())
            .collect();
        sequences.push(seq);
    }

    println!("delivery order agreed by all {N} members:");
    for (i, line) in sequences[0].iter().enumerate() {
        println!("  {:>2}. {line}", i + 1);
    }
    let agree = sequences.windows(2).all(|w| w[0] == w[1]);
    println!();
    println!(
        "members agree on the order: {agree}   (messages: {}, network loss events: {})",
        sequences[0].len(),
        net.stats().lost
    );
    assert!(agree, "total order violated");
    assert_eq!(sequences[0].len(), 20, "every message delivered");
}
