//! Hostile inbound streams at a node's listener. The engine thread owns
//! every stream its listener accepts, so a client that sends an over-long
//! frame header, or garbage, or connects and closes in a loop must cost
//! only its own stream: no file descriptor stays open for it, and the
//! honest members' deliveries keep flowing. (The splitter's own properties
//! are `transport::tests`; this is the loop around it.)
//!
//! A file of its own, so that this process opens descriptors for nothing
//! but this test while it counts them.

use bytes::Bytes;
use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_net::McastAddr;
use ftmp_runtime::{node, sys, transport};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpStream};
use std::time::{Duration, Instant};

const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(0x4654_4D31);
const MEMBERS: u64 = 3;

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

/// `MEMBERS` founders over the TCP mesh, and their listeners' addresses.
fn spawn_mesh() -> (Vec<node::RuntimeHandle>, Vec<SocketAddr>) {
    let members: Vec<ProcessorId> = (1..=MEMBERS as u32).map(ProcessorId).collect();
    let mut listeners: Vec<_> = members
        .iter()
        .map(|_| {
            sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("listener")
        })
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let handles = members
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| *a)
                .collect();
            let (rxq, rx) = transport::rx_channel();
            let spec = transport::TransportSpec {
                mode: transport::TransportMode::TcpMesh,
                udp: transport::UdpConfig::default(),
                tcp: Some(transport::TcpConfig::new(listeners.remove(0), peers)),
            };
            let selected = transport::open_transport(spec, rxq).expect("open transport");
            let mut cfg = node::NodeConfig::founder(id, GROUP, GROUP_ADDR, members.clone());
            cfg.connection = Some((conn(), GROUP));
            node::spawn(
                cfg,
                node::NodeParts {
                    transport: selected,
                    rx,
                    dlog: None,
                    trace: None,
                },
            )
        })
        .collect();
    (handles, addrs)
}

/// Every member publishes `per_member` requests numbered from `first`.
fn publish(handles: &[node::RuntimeHandle], first: u64, per_member: u64) {
    for (i, h) in handles.iter().enumerate() {
        for k in 0..per_member {
            let request = first + i as u64 * per_member + k;
            h.publish(conn(), RequestNum(request), Bytes::from(vec![i as u8; 64]));
        }
    }
}

/// Wait for `want` deliveries at every member; their request numbers, per
/// member, in delivery order.
fn collect(handles: &[node::RuntimeHandle], want: usize) -> Vec<Vec<u64>> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut orders = vec![Vec::new(); handles.len()];
    while orders.iter().any(|o| o.len() < want) && Instant::now() < deadline {
        for (order, h) in orders.iter_mut().zip(handles) {
            while let Ok((_, d)) = h.deliveries.recv_timeout(Duration::from_millis(5)) {
                order.push(d.request_num.0);
            }
        }
    }
    orders
}

/// Wait up to five seconds for the server to close `client`'s stream.
fn closed_by_server(client: &mut TcpStream) -> bool {
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = [0; 256];
    loop {
        match client.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) => return e.kind() == std::io::ErrorKind::ConnectionReset,
        }
    }
}

#[test]
fn hostile_streams_cost_only_themselves() {
    if !std::path::Path::new("/proc/self/fd").is_dir() {
        eprintln!("skipping: no /proc/self/fd to count descriptors with");
        return;
    }
    const PER_ROUND: u64 = 20;
    let (handles, addrs) = spawn_mesh();
    let target = addrs[0];
    // The mesh is whole once every member has every member's requests.
    std::thread::sleep(Duration::from_millis(400));
    publish(&handles, 1, PER_ROUND);
    let warm = collect(&handles, (MEMBERS * PER_ROUND) as usize);
    assert!(warm
        .iter()
        .all(|o| o.len() == (MEMBERS * PER_ROUND) as usize));
    let before = open_fds();

    let mut round = 1;
    let mut honest = |handles: &[node::RuntimeHandle]| {
        publish(handles, 1 + round * MEMBERS * PER_ROUND, PER_ROUND);
        round += 1;
    };
    // A header that declares more than any frame may carry: the stream is
    // abandoned before any buffer grows for it.
    for dst in [GROUP_ADDR.0, 7] {
        let mut client = TcpStream::connect(target).expect("connect");
        let mut header = dst.to_le_bytes().to_vec();
        header.extend(u32::MAX.to_le_bytes());
        header.extend([0xAB; 64]);
        client.write_all(&header).expect("write the header");
        honest(&handles);
        assert!(
            closed_by_server(&mut client),
            "an over-long frame header left its stream open"
        );
    }
    // Garbage, then a close.
    let mut noise = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..8 {
        let mut client = TcpStream::connect(target).expect("connect");
        let bytes: Vec<u8> = (0..4096)
            .map(|_| {
                noise ^= noise << 13;
                noise ^= noise >> 7;
                noise ^= noise << 17;
                noise as u8
            })
            .collect();
        let _ = client.write_all(&bytes);
        honest(&handles);
    }
    // Connect and close, over and over.
    for i in 0..200 {
        drop(TcpStream::connect(target).expect("connect"));
        if i % 20 == 0 {
            honest(&handles);
        }
    }

    // The honest members' traffic all arrived, in one order everywhere.
    let want = (round * MEMBERS * PER_ROUND) as usize;
    let mut orders = collect(&handles, want - (MEMBERS * PER_ROUND) as usize);
    for (order, warm) in orders.iter_mut().zip(warm) {
        order.splice(0..0, warm);
    }
    for (i, order) in orders.iter().enumerate() {
        assert_eq!(
            order.len(),
            want,
            "member {} delivered {}",
            i + 1,
            order.len()
        );
    }
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "total order diverged"
    );

    // Every hostile stream is gone: the count returns to where it stood.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(open_fds(), before, "descriptors left open");

    for h in &handles {
        h.command(node::Command::Stop);
    }
    for h in handles {
        let report = h.join();
        assert_eq!(
            report.final_members.len() as u64,
            MEMBERS,
            "a member was convicted"
        );
    }
}
