#![warn(missing_docs)]
//! GIOP — CORBA's General Inter-ORB Protocol, hand-rolled.
//!
//! The FTMP paper maps GIOP onto a reliable totally-ordered multicast; this
//! crate supplies the GIOP side of that mapping. It implements the eight
//! GIOP message types named in §3.1 of the paper — Request, Reply,
//! CancelRequest, LocateRequest, LocateReply, CloseConnection, MessageError
//! and Fragment — with wire layouts from the CORBA 2.2 specification
//! (GIOP 1.0 headers; the fragmentation machinery follows GIOP 1.1, which
//! introduced the Fragment type the paper lists).
//!
//! A GIOP message is one CDR stream: a fixed 12-byte header followed by a
//! message-type-specific header and body, all sharing stream offsets (the
//! body begins at offset 12). [`ftmp_cdr`]'s `base`-offset readers/writers
//! keep the alignment arithmetic honest.

pub mod fragment;
pub mod header;
pub mod ior;
pub mod message;
pub mod request;
pub mod view;

pub use fragment::{FragmentAssembler, Fragmenter};
pub use header::{GiopHeader, GiopVersion, MsgType, GIOP_HEADER_LEN, GIOP_MAGIC};
pub use ior::{FtmpProfile, IiopProfile, Ior, TaggedProfile};
pub use message::GiopMessage;
pub use request::{
    LocateReplyHeader, LocateRequestHeader, LocateStatus, ReplyHeader, ReplyStatus, RequestHeader,
    ServiceContext,
};
pub use view::{GiopView, ReplyView, RequestView, ServiceContexts};

use std::fmt;

/// Errors produced while encoding or decoding GIOP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// Underlying CDR stream error.
    Cdr(ftmp_cdr::CdrError),
    /// The first four octets were not `GIOP`.
    BadMagic([u8; 4]),
    /// Unsupported GIOP version.
    BadVersion(u8, u8),
    /// Unknown message type octet.
    BadMsgType(u8),
    /// Header `message_size` disagrees with the bytes actually present.
    SizeMismatch {
        /// Size claimed by the header.
        declared: u32,
        /// Bytes actually available after the header.
        actual: usize,
    },
    /// A fragment arrived for an unknown or completed request.
    OrphanFragment(u32),
    /// Fragment reassembly exceeded the configured limit.
    FragmentOverflow {
        /// The request id being reassembled.
        request_id: u32,
        /// The configured maximum reassembled size.
        limit: usize,
    },
}

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::Cdr(e) => write!(f, "CDR error: {e}"),
            GiopError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            GiopError::BadVersion(maj, min) => write!(f, "unsupported GIOP version {maj}.{min}"),
            GiopError::BadMsgType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::SizeMismatch { declared, actual } => {
                write!(
                    f,
                    "GIOP size mismatch: header says {declared}, have {actual}"
                )
            }
            GiopError::OrphanFragment(id) => write!(f, "fragment for unknown request {id}"),
            GiopError::FragmentOverflow { request_id, limit } => {
                write!(f, "fragments for request {request_id} exceed {limit} bytes")
            }
        }
    }
}

impl std::error::Error for GiopError {}

impl From<ftmp_cdr::CdrError> for GiopError {
    fn from(e: ftmp_cdr::CdrError) -> Self {
        GiopError::Cdr(e)
    }
}
