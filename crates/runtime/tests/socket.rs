//! Real-socket integration tests.
//!
//! The TCP-mesh tests are always on: they need nothing but loopback TCP,
//! which every CI container has — the agreement run, the wake-up
//! regressions (a publish must not wait for the tick, from one thread or
//! many), a peer that never reads, and `send_batch`'s integrity. The UDP
//! multicast test is gated behind
//! `FTMP_SOCKET_TESTS=1` *and* a live multicast probe, because loopback
//! multicast is typically unavailable in containers — that combination is
//! exactly why the runtime has a fallback path, and the fallback-selection
//! test pins that the `Auto` mode actually takes it.

use bytes::Bytes;
use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
use ftmp_net::{McastAddr, SimDuration};
use ftmp_runtime::transport::Transport;
use ftmp_runtime::{node, sys, transport};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20))
}

const GROUP: GroupId = GroupId(1);
const GROUP_ADDR: McastAddr = McastAddr(0x4654_4D31);

/// Stand up `n` founders over the TCP mesh (ephemeral ports), or over UDP
/// multicast when `udp_port` is given.
fn spawn_group(n: u32, udp_port: Option<u16>) -> Vec<node::RuntimeHandle> {
    spawn_group_with(n, udp_port, |_| {})
}

/// [`spawn_group`], with every node's configuration passed through `adjust`.
fn spawn_group_with(
    n: u32,
    udp_port: Option<u16>,
    adjust: impl Fn(&mut node::NodeConfig),
) -> Vec<node::RuntimeHandle> {
    let members: Vec<ProcessorId> = (1..=n).map(ProcessorId).collect();
    let mut listeners = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    if udp_port.is_none() {
        for _ in 0..n {
            let l = sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
                .expect("bind listener");
            addrs.push(l.local_addr().expect("listener addr"));
            listeners.push(l);
        }
    }
    let mut handles = Vec::new();
    for (i, &id) in members.iter().enumerate() {
        let (rxq, rx) = transport::rx_channel();
        let spec = match udp_port {
            Some(port) => transport::TransportSpec {
                mode: transport::TransportMode::UdpMulticast,
                udp: transport::UdpConfig {
                    port,
                    ..transport::UdpConfig::default()
                },
                tcp: None,
            },
            None => {
                let peers = addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| *a)
                    .collect();
                transport::TransportSpec {
                    mode: transport::TransportMode::TcpMesh,
                    udp: transport::UdpConfig::default(),
                    tcp: Some(transport::TcpConfig::new(listeners.remove(0), peers)),
                }
            }
        };
        let selected = transport::open_transport(spec, rxq).expect("open transport");
        let mut cfg = node::NodeConfig::founder(id, GROUP, GROUP_ADDR, members.clone());
        cfg.connection = Some((conn(), GROUP));
        adjust(&mut cfg);
        handles.push(node::spawn(
            cfg,
            node::NodeParts {
                transport: selected,
                rx,
                dlog: None,
                trace: None,
            },
        ));
    }
    handles
}

/// Drive the standard agreement workload: every member publishes `per_node`
/// requests, every member must deliver all of them in the same total order.
fn run_agreement(handles: Vec<node::RuntimeHandle>, per_node: u64) -> Vec<node::RuntimeReport> {
    let n = handles.len() as u64;
    // Let the transport links (TCP mesh reconnect sweep) come up first.
    std::thread::sleep(Duration::from_millis(400));
    for (i, h) in handles.iter().enumerate() {
        let id = i as u64 + 1;
        for k in 0..per_node {
            h.publish(
                conn(),
                RequestNum(id * 100 + k),
                Bytes::from(vec![id as u8; 64]),
            );
        }
    }
    let want = n * per_node;
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut orders: Vec<Vec<u64>> = vec![Vec::new(); handles.len()];
    while orders.iter().any(|o| (o.len() as u64) < want) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            while let Ok((_, d)) = h.deliveries.recv_timeout(Duration::from_millis(10)) {
                orders[i].push(d.request_num.0);
            }
        }
    }
    for (i, o) in orders.iter().enumerate() {
        assert_eq!(
            o.len() as u64,
            want,
            "node {} delivered {} of {want}",
            i + 1,
            o.len()
        );
    }
    for o in &orders[1..] {
        assert_eq!(o, &orders[0], "total order diverged between members");
    }
    // Stop everyone concurrently: a sequential stop would leave the last
    // members running long enough to convict the already-stopped ones.
    for h in &handles {
        h.command(node::Command::Stop);
    }
    handles.into_iter().map(node::RuntimeHandle::join).collect()
}

#[test]
fn tcp_mesh_three_nodes_agree_on_total_order() {
    let reports = run_agreement(spawn_group(3, None), 5);
    for r in &reports {
        assert_eq!(r.transport, transport::TransportKind::TcpMesh);
        assert!(!r.fell_back, "TcpMesh was forced, not a fallback");
        assert!(r.delivered >= 15);
        assert!(r.sent_datagrams > 0);
        assert!(r.recv_datagrams > 0);
        assert_eq!(
            r.final_members,
            vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)]
        );
        assert_eq!(
            r.metrics.counter("runtime_deliveries"),
            Some(r.delivered),
            "telemetry snapshot covers the runtime layer"
        );
        assert_eq!(
            r.metrics.counter("runtime_tcp_fallback_activations"),
            Some(0)
        );
        assert!(r.metrics.histogram("runtime_timer_lag_us").is_some());
        // What each write and each wake-up carried is on the record.
        let writes = r.metrics.counter("runtime_socket_writes").unwrap();
        assert!(0 < writes && writes <= r.sent_datagrams);
        let turns = r.metrics.histogram("runtime_turn_datagrams").unwrap();
        assert_eq!(r.metrics.counter("runtime_engine_turns"), Some(turns.count));
        assert!(0 < turns.sum && turns.sum <= r.recv_datagrams);
        let deepest = r.metrics.gauge("runtime_recv_queue_depth").unwrap();
        assert!(deepest as u64 >= turns.max, "a turn's own intake counts");
        // And what the engine saw, under the engine's own names: every
        // ordered message (the application's deliveries among them), and
        // how many NACKs repair took — none is a fine answer on loopback.
        assert!(r.metrics.counter("deliveries").unwrap() >= r.delivered);
        assert!(r.metrics.counter("nacks_sent").is_some());
    }
}

/// A publish wakes a parked engine. With the tick far beyond the assertion
/// window nothing but the publish itself can: an engine that looks for
/// commands only when a datagram or the tick wakes it (as it did before the
/// inbox carried both) delivers this one when the tick fires.
#[test]
fn publish_on_a_silent_group_does_not_wait_for_the_tick() {
    const TICK: Duration = Duration::from_secs(20);
    const WINDOW: Duration = Duration::from_secs(2);
    // The silent members answer the publish with a heartbeat at once only
    // while their silence is between half the heartbeat interval and the
    // whole of it (past that the heartbeat is the timer's to send, at the
    // tick): publish in the middle of that span, with room on both sides.
    const HEARTBEAT: SimDuration = SimDuration::from_millis(4_000);
    let handles = spawn_group_with(3, None, |cfg| {
        cfg.tick = TICK;
        cfg.protocol = cfg
            .protocol
            .clone()
            .heartbeat(HEARTBEAT)
            .fail_timeout_of(SimDuration::from_millis(120_000))
            .ack_stall_of(SimDuration::from_millis(240_000));
    });
    std::thread::sleep(Duration::from_millis(2_700));
    let issued = Instant::now();
    handles[0].publish(conn(), RequestNum(1), Bytes::from_static(b"wake up"));
    let back = handles[0].deliveries.recv_timeout(WINDOW);
    let took = issued.elapsed();
    for h in &handles {
        h.command(node::Command::Stop);
    }
    let stopping = Instant::now();
    for h in handles {
        h.join();
    }
    let (_, delivery) = back.unwrap_or_else(|_| panic!("no delivery within {took:?}"));
    assert_eq!(delivery.request_num, RequestNum(1));
    assert!(
        stopping.elapsed() < WINDOW,
        "`Stop` waited for the tick too"
    );
}

/// Commands posted from many threads at once while the engine parks and
/// wakes between rounds of them: none may wait for the tick. A lone member
/// delivers a publish in the turn after the one that takes it in, so with
/// the tick far beyond the window only the engine's own look at the queue
/// once it has announced that it parks, or the bell a later post rings,
/// can bring a publish in. A post that lands while a turn runs is the case
/// the look exists for: without it the engine parks on that post until the
/// tick.
#[test]
fn commands_from_many_threads_never_wait_for_the_tick() {
    const TICK: Duration = Duration::from_secs(20);
    const WINDOW: Duration = Duration::from_secs(2);
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 200;
    let h = spawn_group_with(1, None, |cfg| cfg.tick = TICK).remove(0);
    let start = Barrier::new(THREADS as usize + 1);
    let mut stalled = None;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (h, start) = (&h, &start);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    start.wait();
                    h.publish(
                        conn(),
                        RequestNum(round * THREADS + t + 1),
                        Bytes::from_static(b"burst"),
                    );
                }
            });
        }
        // No panic in here: the publishers would wait at the barrier for
        // good. After a stall the rounds still run, unchecked.
        for round in 0..ROUNDS {
            start.wait();
            for _ in 0..THREADS {
                if stalled.is_none() && h.deliveries.recv_timeout(WINDOW).is_err() {
                    stalled = Some(round);
                }
            }
        }
    });
    assert_eq!(stalled, None, "a publish of this round waited for the tick");
    let stopping = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| h.command(node::Command::Stop));
    });
    let report = h.join();
    assert!(
        stopping.elapsed() < WINDOW,
        "`Stop` from another thread waited for the tick"
    );
    assert_eq!(report.delivered, THREADS * ROUNDS);
}

/// Give the streams `listener` accepts a fixed 64 KiB receive buffer, which
/// the kernel does not grow: a peer that never reads then holds only that
/// much, on any host's TCP settings.
#[cfg(target_os = "linux")]
fn fixed_receive_buffer(listener: &TcpListener) {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    let size: c_int = 64 * 1024;
    let rc = unsafe {
        setsockopt(
            listener.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    assert_eq!(rc, 0, "SO_RCVBUF: {}", std::io::Error::last_os_error());
}

/// A connected peer that accepts and never reads cannot stop the engine:
/// what the kernel does not take waits in a bounded backlog, so every
/// publish is delivered and the tick keeps its cadence while the peer stays
/// connected; a backlog past its bound drops the stream, and the dialler
/// dials the peer again. (With blocking writes the engine sat in `write` once the
/// socket buffers filled: no delivery, no tick, no heartbeat. The peer
/// closes its streams after a deadline, which unblocks such an engine, so
/// the test fails rather than hangs.)
#[test]
#[cfg(target_os = "linux")]
fn a_peer_that_never_reads_cannot_wedge_the_engine() {
    const PUBLISHES: u64 = 600;
    const BODY: usize = 60 * 1024;
    const WINDOW: Duration = Duration::from_secs(10);
    let deaf = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("deaf listener");
    let deaf_addr = deaf.local_addr().expect("deaf address");
    deaf.set_nonblocking(true).expect("nonblocking accept");
    fixed_receive_buffer(&deaf);
    let held: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
    let done = Arc::new(AtomicBool::new(false));
    // Accept every stream the node dials (it redials one it dropped), keep
    // them all open and read nothing, until the test is done or the
    // deadline passes.
    let deaf_peer = {
        let (held, done) = (Arc::clone(&held), Arc::clone(&done));
        let deadline = Instant::now() + WINDOW + Duration::from_secs(5);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) && Instant::now() < deadline {
                match deaf.accept() {
                    Ok((stream, _)) => held.lock().unwrap().push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            held.lock().unwrap().clear();
        })
    };

    let listener =
        sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("listener");
    let (rxq, rx) = transport::rx_channel();
    let selected = transport::open_transport(
        transport::TransportSpec {
            mode: transport::TransportMode::TcpMesh,
            udp: transport::UdpConfig::default(),
            tcp: Some(transport::TcpConfig::new(listener, vec![deaf_addr])),
        },
        rxq,
    )
    .expect("open transport");
    let mut cfg =
        node::NodeConfig::founder(ProcessorId(1), GROUP, GROUP_ADDR, vec![ProcessorId(1)]);
    cfg.connection = Some((conn(), GROUP));
    let spawned = Instant::now();
    let h = node::spawn(
        cfg,
        node::NodeParts {
            transport: selected,
            rx,
            dlog: None,
            trace: None,
        },
    );
    let up = Instant::now() + Duration::from_secs(5);
    while held.lock().unwrap().is_empty() {
        assert!(Instant::now() < up, "the node never dialled its peer");
        std::thread::sleep(Duration::from_millis(10));
    }

    let deadline = Instant::now() + WINDOW;
    for k in 1..=PUBLISHES {
        h.publish(conn(), RequestNum(k), Bytes::from(vec![k as u8; BODY]));
    }
    let mut delivered = 0;
    while delivered < PUBLISHES {
        let left = deadline.saturating_duration_since(Instant::now());
        if h.deliveries.recv_timeout(left).is_err() {
            break;
        }
        delivered += 1;
    }
    // The stream whose backlog passed its bound was dropped, and the
    // dialler dials the peer again while it still holds the old one.
    while held.lock().unwrap().len() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let dialled = held.lock().unwrap().len();
    let report = h.stop();
    let lived = spawned.elapsed();
    done.store(true, Ordering::Relaxed);
    deaf_peer.join().expect("deaf peer thread");

    assert_eq!(
        delivered, PUBLISHES,
        "{delivered} of {PUBLISHES} delivered in {WINDOW:?} ({} rejected)",
        report.publish_rejected
    );
    // The tick is 1 ms; a quarter of the cadence is far above a wedged
    // engine's few hundred ticks in ten seconds.
    let cadence = lived.as_millis() as u64;
    assert!(
        report.ticks >= cadence / 4,
        "{} ticks in {lived:?}",
        report.ticks
    );
    assert!(dialled >= 2, "the overfull stream was not redialled");
}

fn loopback_mesh_endpoint(
    peers: Vec<SocketAddr>,
) -> (
    transport::TcpMeshTransport,
    SocketAddr,
    transport::RxReceiver,
) {
    let listener =
        sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("listener");
    let addr = listener.local_addr().expect("listener addr");
    let (rxq, rx) = transport::rx_channel();
    let mesh = transport::TcpMeshTransport::open(transport::TcpConfig::new(listener, peers), rxq)
        .expect("open mesh endpoint");
    (mesh, addr, rx)
}

/// One `send_batch` — two groups (one of them not subscribed at the
/// receiver), an empty payload, a payload longer than the reader's buffer
/// and enough frames to need several writes — arrives complete, in order
/// and filtered; frames are counted per live peer, and not at all once the
/// peer is gone.
#[test]
fn send_batch_arrives_whole_in_order_and_filtered() {
    const OTHER_ADDR: McastAddr = McastAddr(0x4654_4D32);
    let (mut b, addr_b, rx_b) = loopback_mesh_endpoint(Vec::new());
    let (mut a, _, rx_a) = loopback_mesh_endpoint(vec![addr_b]);
    a.join(GROUP_ADDR);
    b.join(GROUP_ADDR);
    // Until the first frame arrives the link may still be coming up.
    let up = Instant::now() + Duration::from_secs(10);
    while rx_b.recv_timeout(Duration::from_millis(50)).is_err() {
        assert!(Instant::now() < up, "the mesh link never came up");
        a.send(GROUP_ADDR, b"probe");
    }
    while rx_b.recv_timeout(Duration::from_millis(200)).is_ok() {}
    while rx_a.try_recv().is_some() {}

    let mut batch = vec![
        (GROUP_ADDR, Bytes::new()),
        (OTHER_ADDR, Bytes::from(vec![0xEE; 300])),
        (GROUP_ADDR, Bytes::from(vec![0x20; 20 * 1024])),
    ];
    for i in 0..60u8 {
        let addr = if i % 4 == 3 { OTHER_ADDR } else { GROUP_ADDR };
        batch.push((addr, Bytes::from(vec![i; 1500 + usize::from(i)])));
    }
    let wanted: Vec<&Bytes> = batch
        .iter()
        .filter(|(addr, _)| *addr == GROUP_ADDR)
        .map(|(_, payload)| payload)
        .collect();

    let sent_before = a.sent();
    let writes = a.send_batch(&batch);
    assert_eq!(
        a.sent() - sent_before,
        batch.len() as u64,
        "frames × 1 peer"
    );
    assert!(
        (2..batch.len() as u64).contains(&writes),
        "over 64 KiB in {writes} writes"
    );
    for (i, want) in wanted.iter().enumerate() {
        for (who, rx) in [("receiver", &rx_b), ("sender's self-copy", &rx_a)] {
            let got = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{who}: frame {i} of {} missing", wanted.len()));
            assert_eq!(got.addr, GROUP_ADDR);
            assert_eq!(&got.payload, *want, "{who}: frame {i}");
        }
    }
    assert!(rx_b.recv_timeout(Duration::from_millis(100)).is_err());
    assert!(
        rx_a.try_recv().is_none(),
        "one self-copy per subscribed frame"
    );

    // The peer goes away: within a few writes the stream reports it, the
    // slot is vacated, and nothing is counted from then on.
    b.shutdown();
    drop((b, rx_b));
    let gone = Instant::now() + Duration::from_secs(10);
    loop {
        let before = a.sent();
        let writes = a.send_batch(&batch[..2]);
        if writes == 0 {
            assert_eq!(a.sent(), before);
            break;
        }
        assert!(
            a.sent() == before || a.sent() == before + 2,
            "a failed write counts none of its frames"
        );
        assert!(
            Instant::now() < gone,
            "writes to a closed peer keep succeeding"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    a.shutdown();
}

/// `Auto` selection must pick the TCP mesh when the multicast path cannot
/// prove itself. A zero probe budget makes the self-probe fail on every
/// host — including ones where multicast actually works — so this test pins
/// the fallback path deterministically, exactly as a multicast-less CI
/// container would exercise it.
#[test]
fn auto_mode_falls_back_to_tcp_when_multicast_probe_fails() {
    let listener =
        sys::tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("listener");
    let (rxq, _rx) = transport::rx_channel();
    let selected = transport::open_transport(
        transport::TransportSpec {
            mode: transport::TransportMode::Auto,
            udp: transport::UdpConfig {
                probe_timeout: Duration::ZERO,
                ..transport::UdpConfig::default()
            },
            tcp: Some(transport::TcpConfig::new(listener, Vec::new())),
        },
        rxq,
    )
    .expect("fallback must open");
    assert_eq!(selected.kind, transport::TransportKind::TcpMesh);
    assert!(selected.fell_back, "Auto must report the fallback");
}

/// Without a TCP fallback configured, a failed probe is a hard error.
#[test]
fn auto_mode_errors_without_fallback_when_probe_fails() {
    let (rxq, _rx) = transport::rx_channel();
    let err = transport::open_transport(
        transport::TransportSpec {
            mode: transport::TransportMode::Auto,
            udp: transport::UdpConfig {
                probe_timeout: Duration::ZERO,
                ..transport::UdpConfig::default()
            },
            tcp: None,
        },
        rxq,
    );
    assert!(err.is_err());
}

/// Real UDP multicast on loopback. Gated: set `FTMP_SOCKET_TESTS=1` on a
/// host with multicast-capable loopback (most bare-metal Linux; most
/// containers are not).
#[test]
fn udp_multicast_three_nodes_agree_on_total_order() {
    if std::env::var("FTMP_SOCKET_TESTS").as_deref() != Ok("1") {
        eprintln!("skipping: FTMP_SOCKET_TESTS=1 not set");
        return;
    }
    let udp = transport::UdpConfig {
        port: 47_611,
        ..transport::UdpConfig::default()
    };
    if !transport::multicast_available(&udp) {
        eprintln!("skipping: loopback multicast unavailable on this host");
        return;
    }
    let reports = run_agreement(spawn_group(3, Some(udp.port)), 5);
    for r in &reports {
        assert_eq!(r.transport, transport::TransportKind::UdpMulticast);
        assert!(r.delivered >= 15);
    }
}
