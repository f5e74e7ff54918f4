#![warn(missing_docs)]
//! The FTMP protocol stack: RMP, ROMP and PGMP.
//!
//! This crate implements the Fault-Tolerant Multicast Protocol of the paper
//! as a **sans-io state machine**: a [`Processor`] consumes network packets
//! and timer ticks and emits [`Action`]s (datagrams to send, messages to
//! deliver, membership events to report). The same state machine runs under
//! the deterministic simulator ([`ftmp_net::sim`]) for tests and experiments,
//! and under the threaded live transport for the examples.
//!
//! Layering follows Fig. 1 of the paper:
//!
//! ```text
//!   application / ORB           (ftmp-orb)
//!        ▲ ordered deliveries
//!   PGMP  — membership, connections     (pgmp.rs)
//!   ROMP  — causal+total order, acks    (romp.rs)
//!   RMP   — reliable source order       (rmp.rs)
//!   IP Multicast                        (ftmp-net)
//! ```
//!
//! Module map: [`wire`] holds the FTMP header and the nine message bodies
//! (§3, §5–§7 of the paper); [`clock`] the Lamport / synchronized message
//! timestamps (§6); [`rmp`] the RMP layer state machine — sequence numbers,
//! NACKs, any-holder retention (§5); [`romp`] the ROMP layer state machine —
//! ordering queue, delivery rule, ack timestamps, buffer reclamation (§6);
//! [`pgmp`] the PGMP layer state machine — connections, add/remove and the
//! suspicion → conviction → membership-change pipeline (§7); [`actions`] the
//! emitted-effect types and the reusable [`ActionSink`](actions::ActionSink)
//! buffer; [`adaptive`] the RTT/interarrival estimators and the derived
//! adaptive-timer policy; [`pack`] the datagram packer coalescing outgoing
//! messages into MTU-sized containers with piggybacked ack vectors;
//! the shell reports what it does as one event stream through a private
//! tap (`tap.rs`, DESIGN.md §9) with three readers, all off by default and
//! one branch per site when off: [`observe`] the typed observation stream
//! the `ftmp-check` conformance oracles consume; [`telemetry`] the
//! per-processor metrics and flight recorder (DESIGN.md §10); [`durable`]
//! the delivery-log trait the `ftmp-store` on-disk log implements
//! (DESIGN.md §12); [`stats`]
//! the counter types, including the per-layer
//! [`LayerCounters`](stats::LayerCounters); [`processor`] the composition
//! shell tying the three layers into one endpoint; [`driver`] the one turn
//! (feed, tick, drain, dispatch) every host runs that endpoint through;
//! [`sim_adapter`] plugs an endpoint into the simulator.
//!
//! Each layer module exposes the same sans-io shape: a `*Layer` struct with
//! a typed input enum consumed by `handle(...)` and a typed output enum
//! describing what the shell must do next, plus `*Counters` the layer
//! maintains for itself. Layers never touch the network or each other; only
//! the shell routes outputs onward (RMP releases feed ROMP, ROMP control
//! messages feed PGMP) and converts them to [`Action`]s.

pub mod actions;
pub mod adaptive;
pub mod clock;
pub mod config;
pub mod driver;
pub mod durable;
pub mod ids;
pub mod observe;
pub mod overlay;
pub mod pack;
pub mod pgmp;
pub mod processor;
pub mod rmp;
pub mod romp;
pub mod sim_adapter;
pub mod stats;
mod tap;
pub mod telemetry;
pub mod wire;

pub use adaptive::{Interarrival, RttEstimator};
pub use clock::{Clock, ClockMode};
pub use config::{
    FlowControl, OverlayPolicy, PackPolicy, Packing, ProtocolConfig, Quorum, RetransmitPolicy,
    TimerPolicy,
};
pub use driver::{Driver, Host};
pub use durable::DeliveryLog;
pub use ids::{
    ConnectionId, FtDomainId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
pub use observe::Observation;
pub use pack::Packer;
pub use processor::{Action, Delivery, Processor, ProtocolEvent, SendError, SendOutcome};
pub use sim_adapter::SimProcessor;
pub use telemetry::{FlightEntry, FlightEvent, Telemetry, FLIGHT_CAPACITY};
pub use wire::{FtmpBody, FtmpHeader, FtmpMessage, FtmpMsgType, WireError};
