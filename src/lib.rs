//! FTMP — a reproduction of *"A Group Communication Protocol for CORBA"*
//! (Moser, Melliar-Smith, Koch, Berket; ICPP 1999).
//!
//! This facade crate re-exports the workspace members so examples, tests and
//! downstream users need a single dependency:
//!
//! * [`cdr`] — CORBA CDR marshalling,
//! * [`giop`] — GIOP 1.0 message set,
//! * [`net`] — deterministic multicast network simulator,
//! * [`core`] — the FTMP stack (RMP / ROMP / PGMP),
//! * [`orb`] — miniature fault-tolerant ORB over FTMP,
//! * [`baselines`] — sequencer / token-ring / unicast baselines,
//! * [`harness`] — experiment workloads, sweeps and metrics,
//! * [`check`] — online conformance oracles + schedule-sweep driver,
//! * [`store`] — durable delivered-message log with crash-restart recovery,
//! * [`runtime`] — real-socket runtime (UDP multicast / TCP mesh) driving
//!   the same sans-io engine over OS sockets and wall-clock time,
//! * [`telemetry`] — the metrics registry `Processor::register_metrics` and
//!   `OrbEndpoint::register_metrics` read out into.
//!
//! # Example
//!
//! Three processors, one lossy simulated network, one agreed total order:
//!
//! ```
//! use bytes::Bytes;
//! use ftmp::core::{
//!     ClockMode, Command, ConnectionId, GroupId, Node, ObjectGroupId, Processor, ProcessorId,
//!     ProtocolConfig, RequestNum,
//! };
//! use ftmp::net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime};
//!
//! let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
//! let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
//! let mut net = SimNet::new(SimConfig::with_seed(42).loss(LossModel::Iid { p: 0.05 }));
//! for id in 1..=3u32 {
//!     let mut p = Processor::new(ProcessorId(id), ProtocolConfig::default(), ClockMode::Lamport);
//!     p.create_group(SimTime::ZERO, GroupId(1), McastAddr(1), members.clone());
//!     p.bind_connection(conn, GroupId(1));
//!     // The engine's host, the one the socket runtime runs too.
//!     net.add_node(id, Node::sim(p, GroupId(1)));
//!     net.with_node(id, |n, now, out| n.pump(now, out));
//! }
//! let hello = Command::Publish {
//!     conn,
//!     request: RequestNum(1),
//!     giop: Bytes::from_static(b"hello"),
//! };
//! net.with_node(1, |n, now, out| n.command(now, hello, out));
//! net.run_for(SimDuration::from_millis(100));
//! let delivered = net.node_mut(2).unwrap().take_deliveries();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].1.giop.as_ref(), b"hello");
//! ```

pub use ftmp_baselines as baselines;
pub use ftmp_cdr as cdr;
pub use ftmp_check as check;
pub use ftmp_core as core;
pub use ftmp_giop as giop;
pub use ftmp_harness as harness;
pub use ftmp_net as net;
pub use ftmp_orb as orb;
pub use ftmp_runtime as runtime;
pub use ftmp_store as store;
pub use ftmp_telemetry as telemetry;
