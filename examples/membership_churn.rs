//! Membership churn: processors join and leave a live group while traffic
//! flows; a late joiner sees only post-join traffic; a crash triggers the
//! fault path; every surviving member agrees on every membership.
//!
//! ```text
//! cargo run --example membership_churn
//! ```

use bytes::Bytes;
use ftmp::core::{
    ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
    ProtocolConfig, ProtocolEvent, RequestNum,
};
use ftmp::net::{McastAddr, SimConfig, SimDuration, SimNet, SimTime};

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

/// Have `id` take `cmd` in: publishes, adds and removes all go this way.
fn command(net: &mut SimNet<Node>, id: u32, cmd: Command) {
    net.with_node(id, move |n, now, out| n.command(now, cmd, out));
}

fn send(net: &mut SimNet<Node>, id: u32, text: &str, req: u64) {
    let publish = Command::Publish {
        conn: conn(),
        request: RequestNum(req),
        giop: Bytes::from(text.to_string()),
    };
    command(net, id, publish);
}

/// A fresh processor `id`, subscribed and waiting to be added.
fn joiner(net: &mut SimNet<Node>, id: u32) {
    let mut e = Processor::new(
        ProcessorId(id),
        ProtocolConfig::with_seed(99),
        ClockMode::Lamport,
    );
    e.expect_join(GROUP, ADDR);
    e.bind_connection(conn(), GROUP);
    net.add_node(id, Node::sim(e, GROUP));
    net.with_node(id, |n, now, out| n.pump(now, out));
}

fn show_membership(net: &SimNet<Node>, ids: &[u32]) {
    for &id in ids {
        let m = net
            .node(id)
            .and_then(|n| n.engine().membership(GROUP))
            .map(|m| {
                m.iter()
                    .map(|p| format!("P{}", p.0))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_else(|| "-".into());
        println!("  P{id}: {{{m}}}");
    }
}

fn main() {
    let mut net = SimNet::new(SimConfig::with_seed(99));
    net.set_classifier(ftmp::core::wire::classify);

    // Founders P1, P2.
    let founders = [ProcessorId(1), ProcessorId(2)];
    for id in 1..=2u32 {
        let mut e = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(99),
            ClockMode::Lamport,
        );
        e.create_group(SimTime::ZERO, GROUP, ADDR, founders);
        e.bind_connection(conn(), GROUP);
        net.add_node(id, Node::sim(e, GROUP));
        net.with_node(id, |n, now, out| n.pump(now, out));
    }
    println!("founded group {{P1, P2}}; sending pre-join traffic …");
    send(&mut net, 1, "pre-join message", 1);
    net.run_for(SimDuration::from_millis(50));

    // P3 joins, sponsored by P1.
    joiner(&mut net, 3);
    command(&mut net, 1, Command::AddMember(ProcessorId(3)));
    net.run_for(SimDuration::from_millis(50));
    println!("\nP3 joined (sponsored by P1):");
    show_membership(&net, &[1, 2, 3]);

    send(&mut net, 2, "post-join message", 2);
    net.run_for(SimDuration::from_millis(50));

    // P2 leaves voluntarily.
    command(&mut net, 1, Command::RemoveMember(ProcessorId(2)));
    net.run_for(SimDuration::from_millis(50));
    println!("\nP2 removed voluntarily:");
    show_membership(&net, &[1, 2, 3]);

    // P4 joins, then P1 crashes: the survivors convict it.
    joiner(&mut net, 4);
    command(&mut net, 3, Command::AddMember(ProcessorId(4)));
    net.run_for(SimDuration::from_millis(50));
    println!("\nP4 joined (sponsored by P3):");
    show_membership(&net, &[1, 3, 4]);

    println!("\ncrashing P1 …");
    net.crash(1);
    net.run_for(SimDuration::from_millis(800));
    println!("survivors after fault detection and membership change:");
    show_membership(&net, &[3, 4]);

    // What did each processor see?
    println!("\ndelivery views:");
    for id in [2u32, 3, 4] {
        let texts: Vec<String> = net
            .node_mut(id)
            .unwrap()
            .take_deliveries()
            .iter()
            .map(|(_, d)| String::from_utf8_lossy(&d.giop).into_owned())
            .collect();
        println!("  P{id}: {texts:?}");
    }
    println!("\nprotocol events at P3:");
    for (at, e) in net.node_mut(3).unwrap().take_events() {
        match e {
            ProtocolEvent::MembershipChange { members, .. } => println!(
                "  [{at}] membership -> {:?}",
                members.iter().map(|p| p.0).collect::<Vec<_>>()
            ),
            ProtocolEvent::FaultReport { processor, .. } => {
                println!("  [{at}] FAULT REPORT for P{}", processor.0)
            }
            ProtocolEvent::JoinedGroup { .. } => println!("  [{at}] joined the group"),
            other => println!("  [{at}] {other:?}"),
        }
    }
}
