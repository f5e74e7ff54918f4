//! The two real transports behind the runtime event loop, and the one
//! queue — the **inbox** — through which everything reaches the engine
//! thread.
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
//!   peer gets the same bytes — and written with one `write` per peer per
//!   `WRITE_CAP` bytes, and the local self-copies go to the inbox as one
//!   entry. Each stream's reader thread splits what one `read` returned
//!   into frames (`split_frames`) and pushes them as one inbox entry.
//!
//! Both transports frame each datagram with the destination `McastAddr`,
//! and the **receiver** filters against its local subscription set. That
//! reproduces the simulator's exact semantics: `Processor::handle_packet`
//! ignores packet envelopes, so subscription filtering is the transport's
//! job (the kernel alone can't do it — the shared multicast port delivers
//! every joined group's traffic to every socket, and a TCP stream carries
//! all groups).
//!
//! The inbox ([`rx_channel`]) carries received datagrams, in the batches
//! the readers found them in, and — once a node runs on it — the node's
//! control commands, so that a publish wakes a parked engine exactly as a
//! datagram does. [`RxReceiver`]'s public accessors hand out datagrams one
//! at a time for callers that drive a transport bare.
//!
//! Selection is probe-based: [`open_transport`] in `Auto` mode stands up
//! the UDP path and sends itself a probe datagram; only if the probe comes
//! back is multicast trusted. Any failure — no multicast route, join
//! refused, probe lost — falls back to TCP.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ftmp_net::McastAddr;

use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::node::Command;
use crate::sys;

/// Reserved `McastAddr` used by the multicast availability probe. Never
/// handed to the `Processor`.
pub const PROBE_ADDR: McastAddr = McastAddr(u32::MAX);

/// Frame magic for UDP datagrams ("FTMR").
const UDP_MAGIC: [u8; 4] = *b"FTMR";

/// One received datagram, already filtered to a subscribed group.
#[derive(Debug, Clone)]
pub struct RxDatagram {
    /// Destination group (from the frame header).
    pub addr: McastAddr,
    /// FTMP payload.
    pub payload: Bytes,
}

/// One entry of the inbox: what a [`Node`](crate::node::Node)'s turn takes in.
pub enum Inbox {
    /// The subscribed frames of one socket read, or one send's self-copies.
    Datagrams(Vec<RxDatagram>),
    /// A control command from the node's handle.
    Command(Command),
}

/// Producer half of the inbox (held by transport reader threads).
#[derive(Clone)]
pub struct RxQueue {
    tx: Sender<Inbox>,
    depth: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
}

impl RxQueue {
    /// Enqueue `batch` as one entry: one lock, one wake-up of the engine.
    fn push(&self, batch: Vec<RxDatagram>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        self.depth.fetch_add(n, Ordering::Relaxed);
        self.received.fetch_add(n, Ordering::Relaxed);
        let _ = self.tx.send(Inbox::Datagrams(batch));
    }
}

/// Consumer half of the inbox (held by the event loop).
pub struct RxReceiver {
    rx: Receiver<Inbox>,
    /// Producer handle for the node's commands.
    tx: Sender<Inbox>,
    /// The rest of a batch the one-at-a-time accessors have begun.
    open: Mutex<VecDeque<RxDatagram>>,
    depth: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
}

impl RxReceiver {
    /// Block up to `timeout` for the next datagram.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<RxDatagram, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(d) = open.pop_front() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Ok(d);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left)? {
                Inbox::Datagrams(batch) => open.extend(batch),
                // Only a node sends commands, and it took this receiver.
                Inbox::Command(_) => {}
            }
        }
    }

    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<RxDatagram> {
        self.recv_timeout(Duration::ZERO).ok()
    }

    /// Current queue depth (datagrams received but not yet consumed).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Total datagrams ever enqueued by the transport.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// The handle a node's owner sends [`Command`]s through.
    pub(crate) fn command_sender(&self) -> Sender<Inbox> {
        self.tx.clone()
    }

    /// One engine turn's intake: park up to `wait` for the first entry,
    /// then take what is already queued behind it until [`TURN_BOUND`]
    /// datagrams and commands are in hand. Returns the datagrams taken;
    /// `Err` when no producer is left.
    pub(crate) fn take_turn(
        &self,
        wait: Duration,
        into: &mut Vec<Inbox>,
    ) -> Result<u64, RecvTimeoutError> {
        let begun = std::mem::take(&mut *self.open.lock().unwrap_or_else(PoisonError::into_inner));
        let mut next = if !begun.is_empty() {
            Some(Inbox::Datagrams(begun.into()))
        } else {
            match self.rx.recv_timeout(wait) {
                Ok(entry) => Some(entry),
                Err(RecvTimeoutError::Timeout) => None,
                Err(e) => return Err(e),
            }
        };
        let (mut datagrams, mut taken) = (0, 0);
        while let Some(entry) = next {
            let n = match &entry {
                Inbox::Datagrams(batch) => batch.len(),
                Inbox::Command(_) => 0,
            };
            datagrams += n;
            taken += n.max(1);
            into.push(entry);
            next = if taken < TURN_BOUND {
                self.rx.try_recv().ok()
            } else {
                None
            };
        }
        self.depth.fetch_sub(datagrams as u64, Ordering::Relaxed);
        Ok(datagrams as u64)
    }
}

/// Datagrams and commands after which a turn stops taking more, so that a
/// flood cannot keep the engine from its tick.
const TURN_BOUND: usize = 64;

/// Create the inbox shared between a transport and an event loop.
pub fn rx_channel() -> (RxQueue, RxReceiver) {
    let (tx, rx) = unbounded();
    let depth = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));
    (
        RxQueue {
            tx: tx.clone(),
            depth: Arc::clone(&depth),
            received: Arc::clone(&received),
        },
        RxReceiver {
            rx,
            tx,
            open: Mutex::default(),
            depth,
            received,
        },
    )
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
    /// Stop reader/connector threads. Idempotent.
    fn shutdown(&mut self);
}

/// Shared subscription set, consulted by reader threads on every read.
type Subs = Arc<Mutex<HashSet<u32>>>;

fn locked(subs: &Subs) -> MutexGuard<'_, HashSet<u32>> {
    subs.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
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
    /// start the reader thread. Any failure means "use the TCP fallback".
    pub fn open(cfg: &UdpConfig, rxq: RxQueue) -> io::Result<Self> {
        let sock = sys::udp_socket_shared(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, cfg.port))?;
        sock.set_multicast_loop_v4(true)?;
        sys::set_multicast_if_loopback(&sock)?;
        probe_multicast(&sock, cfg.port, cfg.probe_timeout)?;

        let subs: Subs = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let reader_sock = sock.try_clone()?;
        reader_sock.set_read_timeout(Some(Duration::from_millis(100)))?;
        let reader_subs = Arc::clone(&subs);
        let reader_stop = Arc::clone(&stop);
        let reader = std::thread::Builder::new()
            .name("ftmp-udp-rx".into())
            .spawn(move || {
                let mut buf = vec![0u8; 65_536];
                while !reader_stop.load(Ordering::Relaxed) {
                    match reader_sock.recv_from(&mut buf) {
                        Ok((n, _)) => {
                            if let Some((dst, payload)) = parse_udp_frame(&buf[..n]) {
                                if dst == PROBE_ADDR {
                                    continue;
                                }
                                if locked(&reader_subs).contains(&dst.0) {
                                    rxq.push(vec![RxDatagram {
                                        addr: dst,
                                        payload: Bytes::copy_from_slice(payload),
                                    }]);
                                }
                            }
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn udp reader");

        Ok(UdpMulticastTransport {
            sock,
            port: cfg.port,
            subs,
            joined: HashMap::new(),
            sent: 0,
            stop,
            reader: Some(reader),
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
        locked(&self.subs).insert(addr.0);
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
        locked(&self.subs).remove(&addr.0);
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

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdpMulticastTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
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
    slots: Arc<Vec<Mutex<Option<TcpStream>>>>,
    /// The frames of the write in the making; every peer gets these bytes.
    wbuf: Vec<u8>,
    sent: u64,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// A TCP frame is a u32-LE dst addr, a u32-LE payload length and the
/// payload; this is the two words' size.
const TCP_HEADER: usize = 8;

/// A frame that declares a longer payload marks a corrupt stream.
const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Most bytes handed to one `write`; a batch beyond it goes out in several.
const WRITE_CAP: usize = 64 * 1024;

/// What a stream reader asks of one `read`, and its buffer's first size.
const READ_BUF: usize = 16 * 1024;

/// A frame header declared more than [`MAX_FRAME_PAYLOAD`] bytes.
#[derive(Debug, PartialEq, Eq)]
struct FrameTooLong;

/// Hand every complete frame at the front of `buf` to `emit`, in order, and
/// return how many bytes they took; what follows is the head of a frame
/// still arriving. Allocates nothing: a declared length is only compared.
fn split_frames(buf: &[u8], mut emit: impl FnMut(McastAddr, &[u8])) -> Result<usize, FrameTooLong> {
    let mut off = 0;
    while let Some(header) = buf[off..].first_chunk::<TCP_HEADER>() {
        let dst = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameTooLong);
        }
        let Some(payload) = buf[off + TCP_HEADER..].get(..len) else {
            break;
        };
        emit(McastAddr(dst), payload);
        off += TCP_HEADER + len;
    }
    Ok(off)
}

/// A stream reader's buffer: what was read and is not yet a whole frame.
struct FrameBuf {
    buf: Vec<u8>,
    filled: usize,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            buf: vec![0; READ_BUF],
            filled: 0,
        }
    }

    /// Where the next `read` lands; never empty.
    fn space(&mut self) -> &mut [u8] {
        &mut self.buf[self.filled..]
    }

    /// `n` bytes were read into [`space`](Self::space): hand the frames they
    /// complete to `emit` and keep the rest at the front.
    fn advance(
        &mut self,
        n: usize,
        emit: impl FnMut(McastAddr, &[u8]),
    ) -> Result<(), FrameTooLong> {
        self.filled += n;
        let used = split_frames(&self.buf[..self.filled], emit)?;
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        if self.filled == self.buf.len() {
            // One frame longer than the buffer: make room for it.
            self.buf.resize(2 * self.filled, 0);
        }
        Ok(())
    }
}

/// Per-stream reader: the subscribed frames each `read` completes go to the
/// inbox as one entry, under one look at the subscription set.
fn tcp_reader(mut stream: TcpStream, subs: Subs, rxq: RxQueue, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frames = FrameBuf::new();
    while !stop.load(Ordering::Relaxed) {
        match stream.read(frames.space()) {
            Ok(0) => break,
            Ok(n) => {
                let mut batch = Vec::new();
                let subs = locked(&subs);
                let split = frames.advance(n, |addr, payload| {
                    if subs.contains(&addr.0) {
                        batch.push(RxDatagram {
                            addr,
                            payload: Bytes::copy_from_slice(payload),
                        });
                    }
                });
                drop(subs);
                if split.is_err() {
                    return; // corrupt stream; abandon it
                }
                rxq.push(batch);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
}

impl TcpMeshTransport {
    /// Start the accept loop and the reconnect sweeper.
    pub fn open(cfg: TcpConfig, rxq: RxQueue) -> io::Result<Self> {
        let subs: Subs = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let slots: Arc<Vec<Mutex<Option<TcpStream>>>> =
            Arc::new(cfg.peers.iter().map(|_| Mutex::new(None)).collect());
        let mut threads = Vec::new();

        cfg.listener.set_nonblocking(true)?;
        {
            let (listener, subs, rxq, stop) = (
                cfg.listener,
                Arc::clone(&subs),
                rxq.clone(),
                Arc::clone(&stop),
            );
            threads.push(
                std::thread::Builder::new()
                    .name("ftmp-tcp-accept".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    let _ = stream.set_nonblocking(false);
                                    let (subs, rxq, stop) =
                                        (Arc::clone(&subs), rxq.clone(), Arc::clone(&stop));
                                    // Reader threads exit on stream close or
                                    // stop; they are not joined individually.
                                    let _ = std::thread::Builder::new()
                                        .name("ftmp-tcp-rx".into())
                                        .spawn(move || tcp_reader(stream, subs, rxq, stop));
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn tcp accept"),
            );
        }
        {
            let (peers, slots, stop, reconnect) = (
                cfg.peers.clone(),
                Arc::clone(&slots),
                Arc::clone(&stop),
                cfg.reconnect,
            );
            threads.push(
                std::thread::Builder::new()
                    .name("ftmp-tcp-connect".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            for (i, peer) in peers.iter().enumerate() {
                                let vacant = slots[i].lock().map(|s| s.is_none()).unwrap_or(false);
                                if !vacant {
                                    continue;
                                }
                                if let Ok(stream) =
                                    TcpStream::connect_timeout(peer, Duration::from_millis(150))
                                {
                                    let _ = stream.set_nodelay(true);
                                    if let Ok(mut slot) = slots[i].lock() {
                                        *slot = Some(stream);
                                    }
                                }
                            }
                            std::thread::sleep(reconnect);
                        }
                    })
                    .expect("spawn tcp connect"),
            );
        }

        Ok(TcpMeshTransport {
            subs,
            rxq,
            slots,
            wbuf: Vec::with_capacity(WRITE_CAP),
            sent: 0,
            stop,
            threads,
        })
    }

    /// Write the `frames` frames laid into `wbuf` to every connected peer,
    /// [`WRITE_CAP`] bytes a write, and empty it. Returns the writes issued.
    fn write_to_peers(&mut self, frames: u64) -> u64 {
        let mut writes = 0;
        for slot in self.slots.iter() {
            let Ok(mut guard) = slot.lock() else { continue };
            let Some(stream) = guard.as_mut() else {
                continue;
            };
            let mut chunks = self.wbuf.chunks(WRITE_CAP);
            writes += chunks.len() as u64;
            if chunks.all(|chunk| stream.write_all(chunk).is_ok()) {
                self.sent += frames;
            } else {
                *guard = None; // dead peer; the sweeper will reconnect
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
        let own = {
            let subs = locked(&self.subs);
            frames
                .iter()
                .filter(|(dst, _)| subs.contains(&dst.0))
                .map(|(dst, payload)| RxDatagram {
                    addr: *dst,
                    payload: payload.clone(),
                })
                .collect()
        };
        self.rxq.push(own);
        writes
    }

    fn join(&mut self, addr: McastAddr) {
        locked(&self.subs).insert(addr.0);
    }

    fn leave(&mut self, addr: McastAddr) {
        locked(&self.subs).remove(&addr.0);
    }

    fn sent(&self) -> u64 {
        self.sent
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.threads.drain(..) {
            let _ = h.join();
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
    /// `cuts` (taken in turn, round and round) would deliver it.
    fn read_in_cuts(
        stream: &[u8],
        cuts: &[usize],
    ) -> (Vec<Frame>, Result<(), FrameTooLong>, FrameBuf) {
        let mut frames = FrameBuf::new();
        let mut got = Vec::new();
        let (mut at, mut cut) = (0, 0);
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
            let split = frames.advance(n, |addr, payload| got.push((addr.0, payload.to_vec())));
            if split.is_err() {
                return (got, split, frames);
            }
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
            let used = split_frames(&stream, |addr, payload| uncut.push((addr.0, payload.to_vec())));
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
            stream.extend([0xAB; 64]);
            let room_for = |frames: &[Frame]| {
                let longest = frames.iter().map(|(_, p)| TCP_HEADER + p.len()).max();
                longest.unwrap_or(0).max(READ_BUF) * 2
            };
            let (got, end, left) = read_in_cuts(&stream, &cuts);
            prop_assert_eq!(end, Err(FrameTooLong));
            prop_assert_eq!(&got, &frames);
            // Only the frames before it ever made the buffer grow.
            prop_assert!(left.buf.len() <= room_for(&frames));
        }
    }

    #[test]
    fn the_length_limit_itself_is_a_frame_still_arriving() {
        let head = header(7, MAX_FRAME_PAYLOAD as u32);
        assert_eq!(split_frames(&head, |_, _| panic!("no frame yet")), Ok(0));
    }
}
