//! The two real transports under the runtime node, and the **inbox**: the
//! one place where a node's engine thread waits, reads its sockets and
//! takes its commands.
//!
//! The sans-io `Processor` addresses everything by [`McastAddr`] — an
//! opaque 32-bit multicast group. A [`Transport`] maps that address space
//! onto real sockets:
//!
//! - [`UdpMulticastTransport`] maps each `McastAddr` to a 239.77.x.y IPv4
//!   multicast group on the loopback interface. All members share one UDP
//!   port (`SO_REUSEPORT`), so the kernel fans each datagram out to every
//!   subscribed socket — true multicast semantics, one send per datagram.
//! - [`TcpMeshTransport`] is the fallback for environments without working
//!   loopback multicast (most containers): a full mesh of TCP streams, one
//!   listener per member. The engine hands it one turn's frames at a time
//!   ([`Transport::send_batch`]); they are laid into one buffer — every
//!   peer gets the same bytes — and written with one nonblocking `write`
//!   per peer per `WRITE_CAP` bytes. What the kernel does not take waits in
//!   that peer's backlog until its stream has room; a backlog past
//!   `BACKLOG_CAP` drops the stream, and the dialling thread — the
//!   transport's one thread — dials a fresh one. The sender's self-copies
//!   go to the inbox as one entry of the next read.
//!
//! Both transports frame each datagram with the destination `McastAddr`,
//! and the **receiver** filters against its local subscription set. That
//! reproduces the simulator's exact semantics: `Processor::handle_packet`
//! ignores packet envelopes, so subscription filtering is the transport's
//! job (the kernel alone can't do it — the shared multicast port delivers
//! every joined group's traffic to every socket, and a TCP stream carries
//! all groups).
//!
//! The inbox ([`rx_channel`]) owns the receiving. A transport hands it its
//! read half when it opens — a clone of the UDP socket, or the TCP
//! listener — and from then on the thread that reads the inbox is the only
//! one that touches those sockets: one `ppoll` waits on them, on every
//! stream the listener accepted, on every outbound stream with a backlog,
//! and on a self-pipe; each ready socket gets one read, whose subscribed
//! frames become one entry. The node's commands wait in the inbox's queue,
//! and their sender writes to the pipe only when the reader has announced
//! that it is parking ([`RxReceiver`] states the rule). The engine's turn
//! and the one-at-a-time accessors for callers that drive a transport bare
//! run the same read routine.
//!
//! Selection is probe-based: [`open_transport`] in `Auto` mode stands up
//! the UDP path and sends itself a probe datagram; only if the probe comes
//! back is multicast trusted. Any failure — no multicast route, join
//! refused, probe lost — falls back to TCP.

use crossbeam::channel::RecvTimeoutError;
use ftmp_core::node::Command;
use ftmp_net::McastAddr;

use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sys::{self, PollFd, POLLIN, POLLOUT};
pub use ftmp_core::node::{Inbox, RxDatagram};

/// Reserved `McastAddr` used by the multicast availability probe. Never
/// handed to the `Processor`.
pub const PROBE_ADDR: McastAddr = McastAddr(u32::MAX);

/// Frame magic for UDP datagrams ("FTMR").
const UDP_MAGIC: [u8; 4] = *b"FTMR";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the inbox's producers and its reader share.
struct Shared {
    /// The read half a transport handed over, until the first read takes it.
    half: Mutex<Option<ReadHalf>>,
    /// What reaches the reader without a socket.
    posted: Mutex<Posted>,
    /// The reader is parking: the next post rings the bell.
    parked: AtomicBool,
    /// The self-pipe's two ends: a post writes one byte to `bell` to wake
    /// a parked reader, whose `ppoll` watches `bell_rx`.
    bell: PipeWriter,
    bell_rx: PipeReader,
}

/// What reaches the reader without a socket.
#[derive(Default)]
struct Posted {
    /// The node owner's commands, in order.
    commands: VecDeque<Command>,
    /// The TCP mesh's self-copies of what it sent.
    own: Vec<RxDatagram>,
}

impl Shared {
    /// Post to the reader, and wake it if it is parked or about to be.
    ///
    /// The wake rule: the reader raises `parked` and then looks at
    /// `posted` once more before it parks. A post is made under `posted`'s
    /// lock and reads the flag after releasing it, so either the reader's
    /// look comes later and finds the post, or it came earlier — after the
    /// flag went up — and the post finds the flag and rings. Only the post
    /// that lowers the flag writes, so a park costs at most one byte, and a
    /// post to a running reader costs no syscall.
    fn post(&self, add: impl FnOnce(&mut Posted)) {
        add(&mut lock(&self.posted));
        if self.parked.swap(false, Ordering::SeqCst) {
            let _ = (&self.bell).write(&[1]);
        }
    }

    /// Move what was posted into `into`: the self-copies as one entry, then
    /// up to [`TURN_BOUND`] commands. Returns the datagrams moved and
    /// whether anything was.
    fn take_posted(&self, into: &mut Vec<Inbox>) -> (u64, bool) {
        let mut posted = lock(&self.posted);
        let own = std::mem::take(&mut posted.own);
        let datagrams = own.len();
        if datagrams > 0 {
            into.push(Inbox::Datagrams(own));
        }
        let commands = posted.commands.len().min(TURN_BOUND);
        into.extend(posted.commands.drain(..commands).map(Inbox::Command));
        (datagrams as u64, datagrams + commands > 0)
    }
}

/// A transport's side of the inbox: where it hands over its read half when
/// it opens, and posts the self-copies of what it sends.
#[derive(Clone)]
pub struct RxQueue {
    shared: Arc<Shared>,
}

impl RxQueue {
    fn hand_over(&self, half: ReadHalf) {
        *lock(&self.shared.half) = Some(half);
    }
}

/// The reading side of the inbox, held by the engine thread.
///
/// Each read parks in one `ppoll` on the transport's sockets and the
/// self-pipe — not at all when something is already posted — then reads
/// every ready socket once. Before it parks it raises the `parked` flag
/// and looks at the posted commands once more; a command posted after that
/// look finds the flag and writes one byte to the pipe, so no command
/// waits for the poll's timeout.
pub struct RxReceiver {
    shared: Arc<Shared>,
    reader: Mutex<Reader>,
}

/// The reading side's own state.
#[derive(Default)]
struct Reader {
    half: Option<ReadHalf>,
    fds: Vec<PollFd>,
    /// The rest of a read the one-at-a-time accessors have begun.
    open: VecDeque<RxDatagram>,
    /// A read's entries, for the one-at-a-time accessors.
    entries: Vec<Inbox>,
    received: u64,
}

impl Reader {
    /// The one read routine: park up to `wait` — not at all when something
    /// was posted — then read each ready socket once, and take what was
    /// posted, into `into`. Returns the datagrams taken.
    fn read(&mut self, shared: &Shared, wait: Duration, into: &mut Vec<Inbox>) -> u64 {
        if self.half.is_none() {
            self.half = lock(&shared.half).take();
        }
        // Announce the park, then look once more (the wake rule, `Shared::post`).
        shared.parked.store(true, Ordering::SeqCst);
        let (mut datagrams, posted) = shared.take_posted(into);
        let wait = if posted {
            shared.parked.store(false, Ordering::SeqCst);
            Duration::ZERO
        } else {
            wait
        };
        self.fds.clear();
        self.fds
            .push(PollFd::new(shared.bell_rx.as_raw_fd(), POLLIN));
        if let Some(half) = &mut self.half {
            half.register(&mut self.fds);
        }
        let ready = sys::poll(&mut self.fds, wait);
        shared.parked.store(false, Ordering::SeqCst);
        match ready {
            Ok(0) => return datagrams,
            Ok(_) => {}
            Err(_) => {
                // A wait that fails (out of memory, say) must not spin.
                std::thread::sleep(wait);
                return datagrams;
            }
        }
        if self.fds[0].revents != 0 {
            let _ = (&shared.bell_rx).read(&mut [0; 64]);
            datagrams += shared.take_posted(into).0;
        }
        if let Some(half) = &mut self.half {
            datagrams += half.read_ready(&self.fds[1..], into);
        }
        datagrams
    }
}

impl RxReceiver {
    /// Block up to `timeout` for the next datagram.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<RxDatagram, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut reader = lock(&self.reader);
        let reader = &mut *reader;
        loop {
            if let Some(d) = reader.open.pop_front() {
                return Ok(d);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let mut entries = std::mem::take(&mut reader.entries);
            reader.received += reader.read(&self.shared, left, &mut entries);
            for entry in entries.drain(..) {
                // Only a node posts commands, and it took this receiver.
                if let Inbox::Datagrams(batch) = entry {
                    reader.open.extend(batch);
                }
            }
            reader.entries = entries;
            if reader.open.is_empty() && Instant::now() >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<RxDatagram> {
        self.recv_timeout(Duration::ZERO).ok()
    }

    /// Datagrams the one-at-a-time accessors have read but not yet handed
    /// out.
    pub fn depth(&self) -> u64 {
        lock(&self.reader).open.len() as u64
    }

    /// Total datagrams ever read (after the subscription filter), the
    /// self-copies included.
    pub fn received(&self) -> u64 {
        lock(&self.reader).received
    }

    /// The handle a node's owner posts [`Command`]s through.
    pub(crate) fn command_sender(&self) -> Commands {
        Commands(Arc::clone(&self.shared))
    }

    /// One engine turn's intake: park up to `wait` unless something is
    /// posted, then read each ready socket once and take the self-copies
    /// and up to [`TURN_BOUND`] commands. Returns the datagrams taken.
    pub(crate) fn take_turn(&self, wait: Duration, into: &mut Vec<Inbox>) -> u64 {
        let mut reader = lock(&self.reader);
        let n = reader.read(&self.shared, wait, into);
        reader.received += n;
        n
    }
}

/// Where a node's owner posts [`Command`]s.
#[derive(Clone)]
pub(crate) struct Commands(Arc<Shared>);

impl Commands {
    /// Post `cmd`; rings the bell only if the engine is parked.
    pub(crate) fn send(&self, cmd: Command) {
        self.0.post(|posted| posted.commands.push_back(cmd));
    }
}

/// Commands after which a turn stops taking more, so that a flood of them
/// cannot keep the engine from its tick. (A turn reads each socket once, so
/// datagrams are bounded by the read buffers.)
const TURN_BOUND: usize = 64;

/// Create the inbox shared between a transport and an event loop.
pub fn rx_channel() -> (RxQueue, RxReceiver) {
    let (bell_rx, bell) = io::pipe().expect("create the inbox's self-pipe");
    let shared = Arc::new(Shared {
        half: Mutex::default(),
        posted: Mutex::default(),
        parked: AtomicBool::new(false),
        bell,
        bell_rx,
    });
    (
        RxQueue {
            shared: Arc::clone(&shared),
        },
        RxReceiver {
            shared,
            reader: Mutex::default(),
        },
    )
}

/// The sockets a transport hands the inbox, and the reader's state for
/// them.
enum ReadHalf {
    Udp {
        sock: UdpSocket,
        subs: Subs,
        buf: Vec<u8>,
    },
    Tcp {
        listener: TcpListener,
        subs: Subs,
        /// The accepted streams, in `ppoll` order.
        inbound: Vec<Inbound>,
        /// The transport's outbound streams, polled while they have a
        /// backlog; `flushing` lists the polled ones' slots.
        peers: Peers,
        flushing: Vec<usize>,
    },
}

impl ReadHalf {
    /// Add what to wait for to `fds`.
    fn register(&mut self, fds: &mut Vec<PollFd>) {
        match self {
            ReadHalf::Udp { sock, .. } => fds.push(PollFd::new(sock.as_raw_fd(), POLLIN)),
            ReadHalf::Tcp {
                listener,
                inbound,
                peers,
                flushing,
                ..
            } => {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                fds.extend(
                    inbound
                        .iter()
                        .map(|s| PollFd::new(s.stream.as_raw_fd(), POLLIN)),
                );
                flushing.clear();
                for (i, slot) in peers.iter().enumerate() {
                    if let Some(stream) = lock(slot).waiting() {
                        fds.push(PollFd::new(stream.as_raw_fd(), POLLOUT));
                        flushing.push(i);
                    }
                }
            }
        }
    }

    /// Serve what `ppoll` found ready (`fds`, in [`register`](Self::register)'s
    /// order): one read per ready socket, its subscribed frames one entry of
    /// `into`; new connections accepted; backlogs flushed. Returns the
    /// datagrams read.
    fn read_ready(&mut self, fds: &[PollFd], into: &mut Vec<Inbox>) -> u64 {
        match self {
            ReadHalf::Udp { sock, subs, buf } => {
                if fds[0].revents == 0 {
                    return 0;
                }
                read_datagrams(sock, subs, buf, into)
            }
            ReadHalf::Tcp {
                listener,
                subs,
                inbound,
                peers,
                flushing,
            } => {
                let (reads, flushes) = fds[1..].split_at(inbound.len());
                let mut datagrams = 0;
                let mut ready = reads.iter();
                inbound.retain_mut(|s| {
                    let polled = ready.next().is_some_and(|fd| fd.revents != 0);
                    !polled || s.read(subs, into).map(|n| datagrams += n).is_some()
                });
                for (fd, &i) in flushes.iter().zip(flushing.iter()) {
                    let mut peer = lock(&peers[i]);
                    let same = peer.stream.as_ref().map(AsRawFd::as_raw_fd) == Some(fd.fd);
                    if fd.revents != 0 && same && peer.flush().is_err() {
                        peer.vacate();
                    }
                }
                if fds[0].revents != 0 {
                    accept_all(listener, inbound);
                }
                datagrams
            }
        }
    }
}

/// The datagrams waiting on `sock`, up to [`TURN_BOUND`], that are for a
/// subscribed group, as one entry of `into`.
fn read_datagrams(sock: &UdpSocket, subs: &Subs, buf: &mut [u8], into: &mut Vec<Inbox>) -> u64 {
    let subs = lock(subs);
    let mut batch = Vec::new();
    for _ in 0..TURN_BOUND {
        // `WouldBlock`: drained. Another error: the next `ppoll` says more.
        let Ok(n) = sock.recv(buf) else { break };
        if let Some((dst, payload)) = parse_udp_frame(&buf[..n]) {
            if dst != PROBE_ADDR && subs.contains(&dst.0) {
                batch.push(RxDatagram {
                    addr: dst,
                    payload: Bytes::copy_from_slice(payload),
                });
            }
        }
    }
    let n = batch.len() as u64;
    if n > 0 {
        into.push(Inbox::Datagrams(batch));
    }
    n
}

/// Accept every pending connection, nonblocking.
fn accept_all(listener: &TcpListener, inbound: &mut Vec<Inbound>) {
    // `WouldBlock`: none left. Another error: the next `ppoll` says more.
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_ok() {
            inbound.push(Inbound {
                stream,
                frames: FrameBuf::new(),
            });
        }
    }
}

/// Which real transport is carrying the group traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// UDP multicast on loopback (the primary path).
    UdpMulticast,
    /// Full-mesh TCP fallback.
    TcpMesh,
}

impl TransportKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::UdpMulticast => "udp-multicast",
            TransportKind::TcpMesh => "tcp-mesh",
        }
    }
}

/// A real transport carrying `Processor` datagrams.
pub trait Transport: Send {
    /// Which path this is.
    fn kind(&self) -> TransportKind;
    /// Transmit one logical multicast datagram, at once.
    fn send(&mut self, dst: McastAddr, payload: &[u8]);
    /// Transmit one engine turn's datagrams, in order, at once. Returns the
    /// socket writes issued.
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) -> u64 {
        for (dst, payload) in frames {
            self.send(*dst, payload);
        }
        frames.len() as u64
    }
    /// Subscribe to a group (from `Action::Join`).
    fn join(&mut self, addr: McastAddr);
    /// Unsubscribe from a group (from `Action::Leave`).
    fn leave(&mut self, addr: McastAddr);
    /// Wire-level datagrams/frames written so far.
    fn sent(&self) -> u64;
    /// Stop the transport's thread (the TCP mesh's dialler); the sockets
    /// close when the transport and its inbox are dropped. Idempotent.
    fn shutdown(&mut self);
}

/// The subscription set: the transport's `join`/`leave` write it, the
/// inbox's reads filter on it.
type Subs = Arc<Mutex<HashSet<u32>>>;

/// Map a protocol `McastAddr` onto a loopback-scoped 239.77.x.y group.
/// Collisions between distinct `McastAddr`s are harmless: the frame header
/// carries the exact 32-bit address and receivers filter on it.
pub fn multicast_group_ip(addr: McastAddr) -> Ipv4Addr {
    let folded = (addr.0 ^ (addr.0 >> 16)) as u16;
    Ipv4Addr::new(239, 77, (folded >> 8) as u8, (folded & 0xff) as u8)
}

fn udp_frame(dst: McastAddr, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&UDP_MAGIC);
    f.extend_from_slice(&dst.0.to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn parse_udp_frame(buf: &[u8]) -> Option<(McastAddr, &[u8])> {
    if buf.len() < 8 || buf[..4] != UDP_MAGIC {
        return None;
    }
    let dst = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    Some((McastAddr(dst), &buf[8..]))
}

/// Configuration for the UDP multicast path.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Shared port every member binds (with `SO_REUSEPORT`).
    pub port: u16,
    /// How long the self-probe waits for its own loopback copy before the
    /// path is declared unavailable. `Duration::ZERO` forces unavailability
    /// (used by tests to exercise the fallback selection).
    pub probe_timeout: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            port: 47_600,
            probe_timeout: Duration::from_millis(400),
        }
    }
}

/// UDP multicast on loopback. See module docs.
pub struct UdpMulticastTransport {
    sock: UdpSocket,
    port: u16,
    subs: Subs,
    /// Kernel-level group memberships, refcounted by mapped IP (distinct
    /// `McastAddr`s may fold to the same 239.77.x.y group).
    joined: HashMap<Ipv4Addr, u32>,
    sent: u64,
}

/// Join `PROBE_ADDR`'s group and wait for our own probe datagram to come
/// back over loopback. Proves bind, join, send route and receive all work.
fn probe_multicast(sock: &UdpSocket, port: u16, timeout: Duration) -> io::Result<()> {
    let probe_ip = multicast_group_ip(PROBE_ADDR);
    sock.join_multicast_v4(&probe_ip, &Ipv4Addr::LOCALHOST)?;
    let nonce = std::process::id().to_le_bytes();
    let frame = udp_frame(PROBE_ADDR, &nonce);
    let deadline = Instant::now() + timeout;
    sock.set_read_timeout(Some(
        Duration::from_millis(50).min(timeout.max(Duration::from_millis(1))),
    ))?;
    let mut buf = [0u8; 256];
    while Instant::now() < deadline {
        sock.send_to(&frame, (probe_ip, port))?;
        match sock.recv_from(&mut buf) {
            Ok((n, _)) => {
                if let Some((dst, payload)) = parse_udp_frame(&buf[..n]) {
                    if dst == PROBE_ADDR && payload == nonce {
                        return Ok(());
                    }
                    // Another member's probe — keep waiting for ours.
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        "multicast self-probe timed out (no loopback multicast)",
    ))
}

/// Check whether loopback UDP multicast works here, without keeping any
/// state. Used to pick one transport uniformly across a whole cluster.
pub fn multicast_available(cfg: &UdpConfig) -> bool {
    let sock = match sys::udp_socket_shared(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, cfg.port)) {
        Ok(s) => s,
        Err(_) => return false,
    };
    if sock.set_multicast_loop_v4(true).is_err() {
        return false;
    }
    if sys::set_multicast_if_loopback(&sock).is_err() {
        return false;
    }
    probe_multicast(&sock, cfg.port, cfg.probe_timeout).is_ok()
}

impl UdpMulticastTransport {
    /// Bind the shared port, prove multicast works with a self-probe, and
    /// hand a nonblocking clone of the socket to the inbox. Any failure
    /// means "use the TCP fallback".
    pub fn open(cfg: &UdpConfig, rxq: RxQueue) -> io::Result<Self> {
        let sock = sys::udp_socket_shared(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, cfg.port))?;
        sock.set_multicast_loop_v4(true)?;
        sys::set_multicast_if_loopback(&sock)?;
        probe_multicast(&sock, cfg.port, cfg.probe_timeout)?;

        let subs: Subs = Arc::default();
        // The clone shares the socket's file description, so the sends
        // are nonblocking too: a datagram the kernel has no room for is
        // lost, as any may be.
        let read = sock.try_clone()?;
        read.set_nonblocking(true)?;
        rxq.hand_over(ReadHalf::Udp {
            sock: read,
            subs: Arc::clone(&subs),
            buf: vec![0; 65_536],
        });
        Ok(UdpMulticastTransport {
            sock,
            port: cfg.port,
            subs,
            joined: HashMap::new(),
            sent: 0,
        })
    }
}

impl Transport for UdpMulticastTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::UdpMulticast
    }

    fn send(&mut self, dst: McastAddr, payload: &[u8]) {
        let frame = udp_frame(dst, payload);
        if self
            .sock
            .send_to(&frame, (multicast_group_ip(dst), self.port))
            .is_ok()
        {
            self.sent += 1;
        }
    }

    fn join(&mut self, addr: McastAddr) {
        lock(&self.subs).insert(addr.0);
        let ip = multicast_group_ip(addr);
        let refs = self.joined.entry(ip).or_insert(0);
        if *refs == 0 {
            // Best effort: a folded-IP collision with an existing kernel
            // membership is fine, the frame filter is exact.
            let _ = self.sock.join_multicast_v4(&ip, &Ipv4Addr::LOCALHOST);
        }
        *refs += 1;
    }

    fn leave(&mut self, addr: McastAddr) {
        lock(&self.subs).remove(&addr.0);
        let ip = multicast_group_ip(addr);
        if let Some(refs) = self.joined.get_mut(&ip) {
            *refs = refs.saturating_sub(1);
            if *refs == 0 {
                let _ = self.sock.leave_multicast_v4(&ip, &Ipv4Addr::LOCALHOST);
                self.joined.remove(&ip);
            }
        }
    }

    fn sent(&self) -> u64 {
        self.sent
    }

    fn shutdown(&mut self) {}
}

/// Configuration for the TCP mesh fallback.
pub struct TcpConfig {
    /// This member's pre-bound listener (bind with
    /// [`sys::tcp_listener_reuse`] or `TcpListener::bind`).
    pub listener: TcpListener,
    /// The other members' listener addresses. Unreachable peers are retried
    /// forever, which is how a restarted member re-enters the mesh.
    pub peers: Vec<SocketAddr>,
    /// Delay between reconnect sweeps.
    pub reconnect: Duration,
}

impl TcpConfig {
    /// A mesh config with the default reconnect cadence.
    pub fn new(listener: TcpListener, peers: Vec<SocketAddr>) -> Self {
        TcpConfig {
            listener,
            peers,
            reconnect: Duration::from_millis(100),
        }
    }
}

/// Full-mesh TCP fallback. See module docs.
pub struct TcpMeshTransport {
    subs: Subs,
    rxq: RxQueue,
    peers: Peers,
    /// The frames of the write in the making; every peer gets these bytes.
    wbuf: Vec<u8>,
    sent: u64,
    stop: Arc<AtomicBool>,
    dialler: Option<JoinHandle<()>>,
}

/// One slot per configured peer, shared by the writer, the inbox (which
/// polls a stream with a backlog) and the dialling thread (which fills an
/// empty slot).
type Peers = Arc<[Mutex<Peer>]>;

/// One outbound stream and what the kernel has not yet taken of it.
#[derive(Default)]
struct Peer {
    stream: Option<TcpStream>,
    /// Bytes waiting for room in the stream, from `at` on: whole frames but
    /// for the first, which may have begun.
    backlog: Vec<u8>,
    at: usize,
}

impl Peer {
    /// The stream, when bytes wait for room in it.
    fn waiting(&self) -> Option<&TcpStream> {
        self.stream
            .as_ref()
            .filter(|_| self.at < self.backlog.len())
    }

    /// Write `bytes` behind what waits, and keep what the kernel does not
    /// take. `Err` when the stream failed or the backlog would pass
    /// [`BACKLOG_CAP`]: the caller vacates the slot.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        if self.at == self.backlog.len() {
            let n = write_some(stream, bytes)?;
            self.backlog.extend_from_slice(&bytes[n..]);
            return Ok(());
        }
        if self.backlog.len() - self.at + bytes.len() > BACKLOG_CAP {
            return Err(io::Error::other("the peer's backlog passed its bound"));
        }
        self.backlog.extend_from_slice(bytes);
        self.flush()
    }

    /// Hand the kernel what it takes of the backlog.
    fn flush(&mut self) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        self.at += write_some(stream, &self.backlog[self.at..])?;
        if self.at == self.backlog.len() {
            self.backlog.clear();
            self.at = 0;
            if self.backlog.capacity() > 2 * WRITE_CAP {
                self.backlog = Vec::new();
            }
        } else if 2 * self.at >= self.backlog.len() {
            self.backlog.drain(..self.at);
            self.at = 0;
        }
        Ok(())
    }

    /// Drop the stream and what waits for it, so that the dialler's next
    /// stream starts at a frame boundary.
    fn vacate(&mut self) {
        *self = Peer::default();
    }
}

/// One `write`; a full socket buffer takes nothing.
fn write_some(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<usize> {
    loop {
        match stream.write(bytes) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
            done => return done,
        }
    }
}

/// A TCP frame is a u32-LE dst addr, a u32-LE payload length and the
/// payload; this is the two words' size.
const TCP_HEADER: usize = 8;

/// A frame that declares a longer payload marks a corrupt stream.
const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Most bytes a batch lays into one write; a batch beyond it goes out in
/// several.
const WRITE_CAP: usize = 64 * 1024;

/// What the inbox asks of one `read` of a stream, and its buffer's first
/// size.
const READ_BUF: usize = 16 * 1024;

/// Most bytes a peer's stream may keep waiting beyond what its kernel
/// buffers hold, before the stream is dropped and redialled.
const BACKLOG_CAP: usize = 4 << 20;

/// A frame header declared more than [`MAX_FRAME_PAYLOAD`] bytes.
#[derive(Debug, PartialEq, Eq)]
struct FrameTooLong;

/// Hand every complete frame at the front of `buf` to `emit` — its
/// destination and where its payload lies in `buf` — in order, and return
/// how many bytes they took; what follows is the head of a frame still
/// arriving. Allocates nothing: a declared length is only compared.
fn split_frames(
    buf: &[u8],
    mut emit: impl FnMut(McastAddr, Range<usize>),
) -> Result<usize, FrameTooLong> {
    let mut off = 0;
    while let Some(header) = buf[off..].first_chunk::<TCP_HEADER>() {
        let dst = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameTooLong);
        }
        let start = off + TCP_HEADER;
        if buf.len() - start < len {
            break;
        }
        emit(McastAddr(dst), start..start + len);
        off = start + len;
    }
    Ok(off)
}

/// A stream's read buffer: what was read and is not yet a whole frame.
struct FrameBuf {
    buf: Vec<u8>,
    filled: usize,
    /// The kept frames of the read being split; a field, so that a read
    /// allocates no list of its own.
    kept: Vec<(McastAddr, Range<usize>)>,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            buf: vec![0; READ_BUF],
            filled: 0,
            kept: Vec::new(),
        }
    }

    /// Where the next `read` lands; never empty.
    fn space(&mut self) -> &mut [u8] {
        &mut self.buf[self.filled..]
    }

    /// `n` bytes were read into [`space`](Self::space): copy the frames they
    /// complete into one buffer, return each frame `keep` accepts as a slice
    /// of it, and keep the partial tail at the front. The buffer holds the
    /// completed frames only — a retained payload pins no more than one
    /// read's worth of them — and is not made when no frame is kept.
    fn advance(
        &mut self,
        n: usize,
        keep: impl Fn(McastAddr) -> bool,
    ) -> Result<Vec<RxDatagram>, FrameTooLong> {
        self.filled += n;
        self.kept.clear();
        let used = split_frames(&self.buf[..self.filled], |addr, payload| {
            if keep(addr) {
                self.kept.push((addr, payload));
            }
        })?;
        let batch = if self.kept.is_empty() {
            Vec::new()
        } else {
            let frames = Bytes::copy_from_slice(&self.buf[..used]);
            self.kept
                .drain(..)
                .map(|(addr, payload)| RxDatagram {
                    addr,
                    payload: frames.slice(payload),
                })
                .collect()
        };
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        if self.filled == self.buf.len() {
            // One frame longer than the buffer: make room for it.
            self.buf.resize(2 * self.filled, 0);
        }
        Ok(batch)
    }
}

/// An accepted stream, and what it has read of a frame still arriving.
struct Inbound {
    stream: TcpStream,
    frames: FrameBuf,
}

impl Inbound {
    /// One read; the subscribed frames it completes enter `into` as one
    /// entry, under one look at the subscription set, their payloads slices
    /// of one copy of what the read completed. Returns how many; `None`
    /// when the stream is done — closed, failed or corrupt.
    fn read(&mut self, subs: &Subs, into: &mut Vec<Inbox>) -> Option<u64> {
        let n = match self.stream.read(self.frames.space()) {
            Ok(0) => return None,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                return Some(0)
            }
            Err(_) => return None,
        };
        let subs = lock(subs);
        let batch = self.frames.advance(n, |addr| subs.contains(&addr.0)).ok()?;
        let kept = batch.len() as u64;
        if kept > 0 {
            into.push(Inbox::Datagrams(batch));
        }
        Some(kept)
    }
}

/// The dialling thread: every `reconnect`, fill each empty slot with a
/// fresh nonblocking stream to its peer. Unreachable peers are retried
/// until `stop`.
fn dial(addrs: &[SocketAddr], peers: &[Mutex<Peer>], stop: &AtomicBool, reconnect: Duration) {
    while !stop.load(Ordering::Relaxed) {
        for (addr, slot) in addrs.iter().zip(peers) {
            if lock(slot).stream.is_some() {
                continue;
            }
            let Ok(stream) = TcpStream::connect_timeout(addr, Duration::from_millis(150)) else {
                continue;
            };
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                lock(slot).stream = Some(stream);
            }
        }
        std::thread::sleep(reconnect);
    }
}

impl TcpMeshTransport {
    /// Hand the listener to the inbox and start the dialling thread.
    pub fn open(cfg: TcpConfig, rxq: RxQueue) -> io::Result<Self> {
        let TcpConfig {
            listener,
            peers: addrs,
            reconnect,
        } = cfg;
        listener.set_nonblocking(true)?;
        let subs: Subs = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let peers: Peers = addrs.iter().map(|_| Mutex::default()).collect();
        let dialler = {
            let (peers, stop) = (Arc::clone(&peers), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("ftmp-tcp-connect".into())
                .spawn(move || dial(&addrs, &peers, &stop, reconnect))?
        };
        rxq.hand_over(ReadHalf::Tcp {
            listener,
            subs: Arc::clone(&subs),
            inbound: Vec::new(),
            peers: Arc::clone(&peers),
            flushing: Vec::new(),
        });
        Ok(TcpMeshTransport {
            subs,
            rxq,
            peers,
            wbuf: Vec::with_capacity(WRITE_CAP),
            sent: 0,
            stop,
            dialler: Some(dialler),
        })
    }

    /// Write the `frames` frames laid into `wbuf` to every connected peer,
    /// one nonblocking `write` each, and empty it. Returns the writes
    /// issued.
    fn write_to_peers(&mut self, frames: u64) -> u64 {
        let mut writes = 0;
        for slot in self.peers.iter() {
            let mut peer = lock(slot);
            if peer.stream.is_none() || self.wbuf.is_empty() {
                continue;
            }
            writes += 1;
            if peer.send(&self.wbuf).is_ok() {
                self.sent += frames;
            } else {
                peer.vacate(); // the dialler redials
            }
        }
        self.wbuf.clear();
        writes
    }
}

impl Transport for TcpMeshTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::TcpMesh
    }

    fn send(&mut self, dst: McastAddr, payload: &[u8]) {
        self.send_batch(&[(dst, Bytes::copy_from_slice(payload))]);
    }

    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) -> u64 {
        let (mut writes, mut laid) = (0, 0);
        for (dst, payload) in frames {
            if laid > 0 && self.wbuf.len() + TCP_HEADER + payload.len() > WRITE_CAP {
                writes += self.write_to_peers(laid);
                laid = 0;
            }
            self.wbuf.extend_from_slice(&dst.0.to_le_bytes());
            self.wbuf
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.wbuf.extend_from_slice(payload);
            laid += 1;
        }
        writes += self.write_to_peers(laid);
        // The kernel loops multicast back to the sender; the mesh must do
        // the same so self-addressed traffic (and loop-delivery dedupe
        // paths) behave identically on both transports.
        let subs = lock(&self.subs);
        let mut own = frames.iter().filter(|(dst, _)| subs.contains(&dst.0));
        if let Some(first) = own.next() {
            self.rxq.shared.post(|posted| {
                posted
                    .own
                    .extend(
                        std::iter::once(first)
                            .chain(own)
                            .map(|(dst, payload)| RxDatagram {
                                addr: *dst,
                                payload: payload.clone(),
                            }),
                    );
            });
        }
        writes
    }

    fn join(&mut self, addr: McastAddr) {
        lock(&self.subs).insert(addr.0);
    }

    fn leave(&mut self, addr: McastAddr) {
        lock(&self.subs).remove(&addr.0);
    }

    fn sent(&self) -> u64 {
        self.sent
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(dialler) = self.dialler.take() {
            let _ = dialler.join();
        }
    }
}

impl Drop for TcpMeshTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How [`open_transport`] picks a path.
pub enum TransportMode {
    /// Probe multicast; fall back to TCP if the probe fails.
    Auto,
    /// Require UDP multicast (error if the probe fails).
    UdpMulticast,
    /// Use the TCP mesh unconditionally.
    TcpMesh,
}

/// Everything needed to open either path.
pub struct TransportSpec {
    /// Selection policy.
    pub mode: TransportMode,
    /// UDP path parameters.
    pub udp: UdpConfig,
    /// TCP fallback parameters (required unless mode is `UdpMulticast`).
    pub tcp: Option<TcpConfig>,
}

/// An opened transport plus how it was chosen.
pub struct Selected {
    /// The transport.
    pub transport: Box<dyn Transport>,
    /// Which path it is.
    pub kind: TransportKind,
    /// True when `Auto` wanted multicast but had to fall back to TCP.
    pub fell_back: bool,
}

/// Open a transport per `spec`. In `Auto` mode the UDP path is stood up and
/// self-probed; any failure selects the TCP mesh and reports `fell_back`.
pub fn open_transport(spec: TransportSpec, rxq: RxQueue) -> io::Result<Selected> {
    let open_tcp = |tcp: Option<TcpConfig>, rxq: RxQueue, fell_back: bool| {
        let cfg = tcp.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "TCP fallback not configured")
        })?;
        Ok(Selected {
            transport: Box::new(TcpMeshTransport::open(cfg, rxq)?) as Box<dyn Transport>,
            kind: TransportKind::TcpMesh,
            fell_back,
        })
    };
    match spec.mode {
        TransportMode::TcpMesh => open_tcp(spec.tcp, rxq, false),
        TransportMode::UdpMulticast => Ok(Selected {
            transport: Box::new(UdpMulticastTransport::open(&spec.udp, rxq)?),
            kind: TransportKind::UdpMulticast,
            fell_back: false,
        }),
        TransportMode::Auto => match UdpMulticastTransport::open(&spec.udp, rxq.clone()) {
            Ok(t) => Ok(Selected {
                transport: Box::new(t),
                kind: TransportKind::UdpMulticast,
                fell_back: false,
            }),
            Err(_) => open_tcp(spec.tcp, rxq, true),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn udp_frame_round_trip_and_rejects() {
        let frame = udp_frame(McastAddr(0xDEAD_BEEF), b"hi");
        let (dst, payload) = parse_udp_frame(&frame).unwrap();
        assert_eq!(dst, McastAddr(0xDEAD_BEEF));
        assert_eq!(payload, b"hi");
        assert!(parse_udp_frame(b"FTM").is_none());
        assert!(parse_udp_frame(b"XXXX\x01\x00\x00\x00").is_none());
    }

    #[test]
    fn mcast_addr_maps_into_239_77() {
        for a in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678] {
            let ip = multicast_group_ip(McastAddr(a));
            assert!(ip.is_multicast(), "{ip} not multicast");
            assert_eq!(ip.octets()[0], 239);
            assert_eq!(ip.octets()[1], 77);
        }
    }

    type Frame = (u32, Vec<u8>);

    fn header(dst: u32, len: u32) -> Vec<u8> {
        [dst.to_le_bytes(), len.to_le_bytes()].concat()
    }

    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|(dst, payload)| {
                [header(*dst, payload.len() as u32), payload.clone()].concat()
            })
            .collect()
    }

    /// Feed `stream` through a reader's buffer as reads of the sizes in
    /// `cuts` (taken in turn, round and round) would deliver it, keeping
    /// every frame. Checks each read's batch against the stretch of the
    /// stream the read completed: its payloads lie back to back in memory,
    /// one frame header apart, so they are slices of one buffer, and their
    /// frames add up to that stretch, so the batch is every frame the read
    /// completed. A read that meets [`FrameTooLong`] ends the feed with the
    /// stretch of the stream it took.
    fn read_in_cuts(
        stream: &[u8],
        cuts: &[usize],
    ) -> (Vec<Frame>, Result<(), Range<usize>>, FrameBuf) {
        let mut frames = FrameBuf::new();
        let mut got = Vec::new();
        let (mut at, mut cut, mut consumed) = (0, 0, 0);
        while at < stream.len() {
            let space = frames.space();
            assert!(
                !space.is_empty(),
                "a read into no space reads as end of stream"
            );
            let n = cuts[cut % cuts.len()]
                .min(space.len())
                .min(stream.len() - at);
            cut += 1;
            space[..n].copy_from_slice(&stream[at..at + n]);
            at += n;
            let batch = match frames.advance(n, |_| true) {
                Ok(batch) => batch,
                Err(FrameTooLong) => return (got, Err(at - n..at), frames),
            };
            let completed = at - frames.filled - consumed;
            consumed += completed;
            let framed: usize = batch.iter().map(|d| TCP_HEADER + d.payload.len()).sum();
            assert_eq!(
                framed, completed,
                "the batch is every frame the read completed"
            );
            for pair in batch.windows(2) {
                assert_eq!(
                    (pair[1].payload.as_ptr() as usize).wrapping_sub(TCP_HEADER),
                    pair[0].payload.as_ptr_range().end as usize,
                    "a payload outside its read's buffer"
                );
            }
            got.extend(batch.iter().map(|d| (d.addr.0, d.payload.to_vec())));
        }
        (got, Ok(()), frames)
    }

    /// Payload lengths around everything the splitter distinguishes: none,
    /// a few bytes, and more than one read buffer holds.
    fn frame_strategy() -> impl Strategy<Value = Frame> {
        let len = prop_oneof![
            Just(0usize),
            1usize..300,
            READ_BUF - 16..READ_BUF + 16,
            READ_BUF..3 * READ_BUF,
        ];
        (any::<u32>(), len, any::<u8>()).prop_map(|(dst, len, fill)| {
            let payload = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            (dst, payload)
        })
    }

    /// Read sizes from inside a header up to several frames at once.
    fn cuts_strategy() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(prop_oneof![1usize..12, 1usize..700, 1usize..40_000], 1..24)
    }

    proptest! {
        #[test]
        fn prop_cut_anywhere_the_stream_yields_the_same_frames(
            frames in proptest::collection::vec(frame_strategy(), 0..12),
            cuts in cuts_strategy(),
        ) {
            let stream = stream_of(&frames);
            let mut uncut = Vec::new();
            let used = split_frames(&stream, |addr, payload| uncut.push((addr.0, stream[payload].to_vec())));
            prop_assert_eq!(used, Ok(stream.len()));
            prop_assert_eq!(&uncut, &frames);
            let (got, end, left) = read_in_cuts(&stream, &cuts);
            prop_assert_eq!(end, Ok(()));
            prop_assert_eq!(&got, &frames);
            prop_assert_eq!(left.filled, 0);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic_or_invent_data(
            bytes in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in cuts_strategy(),
        ) {
            let (got, _, _) = read_in_cuts(&bytes, &cuts);
            let emitted: usize = got.iter().map(|(_, p)| TCP_HEADER + p.len()).sum();
            prop_assert!(emitted <= bytes.len());
        }

        #[test]
        fn prop_an_overlong_length_abandons_the_stream_unallocated(
            frames in proptest::collection::vec(frame_strategy(), 0..4),
            dst: u32,
            over in MAX_FRAME_PAYLOAD as u32 + 1..=u32::MAX,
            cuts in cuts_strategy(),
        ) {
            let mut stream = stream_of(&frames);
            stream.extend(header(dst, over));
            let overlong = stream.len() - 1;
            stream.extend([0xAB; 64]);
            let room_for = |frames: &[Frame]| {
                let longest = frames.iter().map(|(_, p)| TCP_HEADER + p.len()).max();
                longest.unwrap_or(0).max(READ_BUF) * 2
            };
            let (got, end, left) = read_in_cuts(&stream, &cuts);
            let Err(read) = end else {
                panic!("the stream was not abandoned");
            };
            // The read that completes the overlong header is the one that
            // fails, and it yields nothing; every frame an earlier read
            // completed arrived.
            prop_assert!(read.contains(&overlong), "{read:?} failed, not the read of byte {overlong}");
            let mut ends = frames.iter().scan(0, |end, (_, p)| {
                *end += TCP_HEADER + p.len();
                Some(*end)
            });
            let before = ends.position(|end| end > read.start).unwrap_or(frames.len());
            prop_assert_eq!(&got, &frames[..before]);
            // Only the frames before it ever made the buffer grow.
            prop_assert!(left.buf.len() <= room_for(&frames));
        }
    }

    #[test]
    fn only_kept_frames_reach_the_batch() {
        let stream = stream_of(&[(1, vec![0xA; 5]), (2, vec![0xB; 7]), (3, vec![0xC; 3])]);
        let read = |keep: fn(McastAddr) -> bool| {
            let mut frames = FrameBuf::new();
            frames.space()[..stream.len()].copy_from_slice(&stream);
            frames.advance(stream.len(), keep).unwrap()
        };
        let batch = read(|addr| addr.0 == 2);
        assert_eq!(batch.len(), 1);
        assert_eq!(
            (batch[0].addr, &batch[0].payload[..]),
            (McastAddr(2), &[0xB; 7][..])
        );
        assert!(read(|_| false).is_empty());
    }

    #[test]
    fn the_length_limit_itself_is_a_frame_still_arriving() {
        let head = header(7, MAX_FRAME_PAYLOAD as u32);
        assert_eq!(split_frames(&head, |_, _| panic!("no frame yet")), Ok(0));
    }
}
