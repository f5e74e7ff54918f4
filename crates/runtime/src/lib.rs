//! # ftmp-runtime — real sockets under the sans-io FTMP engine
//!
//! Everything upstream of this crate is deterministic and in-process: the
//! `Processor` is sans-io, the simulator feeds it virtual time, and the
//! oracles check the observation stream. This crate is the other half of
//! the sans-io bargain: the **same** engine, byte-for-byte the same wire
//! messages, driven by real OS sockets and real time (std, `ppoll` and one
//! thread per node — no async runtime is vendored, and none is needed at
//! these rates).
//!
//! The pieces:
//!
//! - [`transport`] — [`UdpMulticastTransport`] (239.77.x.y groups on
//!   loopback, one `SO_REUSEPORT`-shared port) and [`TcpMeshTransport`]
//!   (full-mesh fallback for multicast-less containers), behind one
//!   [`Transport`] trait with probe-based [`open_transport`] selection.
//! - [`node`] — [`spawn`], the thread around the engine's one host,
//!   `ftmp_core::Node` (DESIGN.md §11): the one thread that reads and
//!   writes the node's sockets, parked in one `ppoll` that datagrams and
//!   commands both wake, fixed-cadence ticks, the transport as each turn's
//!   link (one `send_batch` per turn); and [`Io`], the node's host here:
//!   the application's channels, the trace recorder and the hybrid-logical
//!   floor on their timestamps, plus the runtime's telemetry counters.
//! - [`TraceWriter`] — the on-disk observation recorder, `ftmp-store`'s
//!   trace log (one `write` per engine turn), whose logs `ftmp-check`'s
//!   trace replay feeds through the same seven oracles that check
//!   simulator runs.
//! - [`sys`] — the three raw socket options `std::net` is missing, and
//!   `ppoll`.
//!
//! ## A three-node group over real sockets
//!
//! ```no_run
//! use ftmp_runtime::{node, transport};
//! use ftmp_core::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum};
//! use ftmp_net::McastAddr;
//!
//! let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
//! let conn = ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(1, 20));
//! let mut handles = Vec::new();
//! for &id in &members {
//!     let (rxq, rx) = transport::rx_channel();
//!     let selected = transport::open_transport(
//!         transport::TransportSpec {
//!             mode: transport::TransportMode::Auto,
//!             udp: transport::UdpConfig::default(),
//!             tcp: None, // supply a TcpConfig to survive multicast-less hosts
//!         },
//!         rxq,
//!     )
//!     .expect("open transport");
//!     let mut cfg = node::NodeConfig::founder(id, GroupId(1), McastAddr(0x3939), members.clone());
//!     cfg.connection = Some((conn, GroupId(1)));
//!     handles.push(node::spawn(
//!         cfg,
//!         node::NodeParts { transport: selected, rx, dlog: None, trace: None },
//!     ));
//! }
//! handles[0].publish(conn, RequestNum(1), bytes::Bytes::from_static(b"hello"));
//! for h in handles {
//!     let report = h.stop();
//!     assert!(report.delivered > 0);
//! }
//! ```

#![warn(missing_docs)]

pub mod node;
pub mod sys;
pub mod transport;

pub use ftmp_store::trace::TraceWriter;
pub use node::{
    spawn, Command, Io, Node, NodeConfig, NodeParts, Role, RuntimeClock, RuntimeHandle,
    RuntimeReport,
};
pub use transport::{
    multicast_available, open_transport, rx_channel, Inbox, RxDatagram, RxQueue, RxReceiver,
    Selected, TcpConfig, TcpMeshTransport, Transport, TransportKind, TransportMode, TransportSpec,
    UdpConfig, UdpMulticastTransport,
};
