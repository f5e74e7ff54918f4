//! Message-type-specific GIOP headers (Request, Reply, Locate*, …), owned.
//!
//! These are the fields of a [`crate::GiopMessage`]; the wire form is read
//! and written by [`crate::GiopView`], the crate's one codec.

use ftmp_cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};

/// One entry of a GIOP service context list.
///
/// Service contexts piggyback ORB-service data (transactions, codesets, …)
/// on Requests and Replies; the FTMP mapping uses one to carry the
/// fault-tolerance `(connection id, request number)` pair when running over
/// a non-multicast transport, though the native FTMP encoding puts those in
/// the Regular message body instead (paper §5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// Numeric context id (ORB-service defined).
    pub context_id: u32,
    /// Opaque context data (usually a CDR encapsulation).
    pub context_data: Vec<u8>,
}

/// GIOP 1.0 Request header (CORBA 2.2 §13.4.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestHeader {
    /// Service context list.
    pub service_context: Vec<ServiceContext>,
    /// Request id, scoped to the connection, matching Reply to Request.
    pub request_id: u32,
    /// False for `oneway` operations: no Reply will be sent.
    pub response_expected: bool,
    /// Opaque key naming the target object within the server ORB.
    pub object_key: Vec<u8>,
    /// Operation (method) name.
    pub operation: String,
    /// Requesting principal (deprecated in later CORBA; kept for 1.0 layout).
    pub requesting_principal: Vec<u8>,
}

/// Reply outcome (CORBA 2.2 §13.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u32)]
pub enum ReplyStatus {
    /// Normal completion; body holds the return value and out params.
    #[default]
    NoException = 0,
    /// The operation raised a user exception carried in the body.
    UserException = 1,
    /// The ORB raised a system exception carried in the body.
    SystemException = 2,
    /// The client should retry at the IOR in the body.
    LocationForward = 3,
}

impl ReplyStatus {
    fn from_u32(v: u32) -> Result<Self, CdrError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            other => {
                return Err(CdrError::InvalidEnum {
                    type_name: "ReplyStatus",
                    value: other,
                })
            }
        })
    }
}

impl CdrEncode for ReplyStatus {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(*self as u32);
    }
}

impl CdrDecode for ReplyStatus {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        ReplyStatus::from_u32(r.read_u32()?)
    }
}

/// GIOP 1.0 Reply header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplyHeader {
    /// Service context list.
    pub service_context: Vec<ServiceContext>,
    /// Matches the Request's `request_id`.
    pub request_id: u32,
    /// Outcome discriminator for the body that follows.
    pub reply_status: ReplyStatus,
}

/// LocateRequest header: "where does this object live?".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocateRequestHeader {
    /// Request id for matching the LocateReply.
    pub request_id: u32,
    /// Object key being located.
    pub object_key: Vec<u8>,
}

/// LocateReply status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u32)]
pub enum LocateStatus {
    /// The object key names no object here.
    #[default]
    UnknownObject = 0,
    /// The object is served on this connection.
    ObjectHere = 1,
    /// The object moved; body holds the forwarding IOR.
    ObjectForward = 2,
}

impl LocateStatus {
    fn from_u32(v: u32) -> Result<Self, CdrError> {
        Ok(match v {
            0 => LocateStatus::UnknownObject,
            1 => LocateStatus::ObjectHere,
            2 => LocateStatus::ObjectForward,
            other => {
                return Err(CdrError::InvalidEnum {
                    type_name: "LocateStatus",
                    value: other,
                })
            }
        })
    }
}

impl CdrEncode for LocateStatus {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(*self as u32);
    }
}

impl CdrDecode for LocateStatus {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        LocateStatus::from_u32(r.read_u32()?)
    }
}

/// LocateReply header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocateReplyHeader {
    /// Matches the LocateRequest's id.
    pub request_id: u32,
    /// Location outcome.
    pub locate_status: LocateStatus,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_cdr::{from_bytes, to_bytes, ByteOrder};

    #[test]
    fn bad_reply_status_rejected() {
        let bytes = to_bytes(&7u32, ByteOrder::Big);
        assert!(matches!(
            from_bytes::<ReplyStatus>(&bytes, ByteOrder::Big),
            Err(CdrError::InvalidEnum {
                type_name: "ReplyStatus",
                value: 7
            })
        ));
    }

    #[test]
    fn bad_locate_status_rejected() {
        let bytes = to_bytes(&3u32, ByteOrder::Big);
        assert!(from_bytes::<LocateStatus>(&bytes, ByteOrder::Big).is_err());
    }
}
