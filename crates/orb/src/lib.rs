#![warn(missing_docs)]
//! A miniature fault-tolerant ORB over FTMP.
//!
//! The paper's purpose is to carry CORBA method invocations between
//! *object groups* — sets of object replicas kept strongly consistent by
//! totally-ordered multicast. This crate supplies the ORB-side machinery
//! that the paper assumes around FTMP:
//!
//! * [`Servant`] — the application object interface (operation dispatch plus
//!   state snapshot/restore for replica activation),
//! * [`giop_map`] — building and parsing GIOP Requests/Replies for
//!   operations (the concrete GIOP mapping of §3.1),
//! * [`DuplicateDetector`] — `(connection id, request number)` duplicate
//!   detection and suppression across replicas (§4),
//! * [`MessageLog`] — the per-connection message log used to match requests
//!   with replies during replay (§4),
//! * [`OrbEndpoint`] — one processor's ORB: active replication of hosted
//!   servants, request numbering shared across replicas, reply matching;
//!   everything it knows about a logical connection is one private struct
//!   in one ordered map,
//! * [`OrbNode`] — an [`ftmp_net::SimNode`] combining an FTMP
//!   [`ftmp_core::Processor`] with an [`OrbEndpoint`]: a complete replicated
//!   CORBA endpoint for the simulator (and the blueprint for the live
//!   examples).

mod conn;
pub mod dup;
pub mod endpoint;
pub mod giop_map;
pub mod log;
pub mod node;
pub mod passive;
pub mod servant;

pub use dup::DuplicateDetector;
pub use endpoint::{Completion, InvocationResult, OrbEndpoint, OutboundMsg};
pub use log::MessageLog;
pub use node::OrbNode;
pub use passive::ReplicationStyle;
pub use servant::{BankAccount, Counter, Servant};
