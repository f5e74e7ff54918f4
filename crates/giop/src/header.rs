//! The fixed 12-byte GIOP message header.

use crate::GiopError;
use ftmp_cdr::{ByteOrder, CdrWriter};

/// The four magic octets opening every GIOP message.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";

/// Length of the fixed GIOP header; the body's CDR stream begins here.
pub const GIOP_HEADER_LEN: usize = 12;

/// GIOP protocol version.
///
/// We speak 1.0 (the version current when the paper was written; CORBA 2.2)
/// and accept 1.1 headers so the Fragment message type the paper lists has
/// its native encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GiopVersion {
    /// Major version (always 1).
    pub major: u8,
    /// Minor version (0 or 1).
    pub minor: u8,
}

impl GiopVersion {
    /// GIOP 1.0.
    pub const V1_0: GiopVersion = GiopVersion { major: 1, minor: 0 };
    /// GIOP 1.1 (adds Fragment and the flags octet).
    pub const V1_1: GiopVersion = GiopVersion { major: 1, minor: 1 };
}

/// GIOP message types (CORBA 2.2 §13.4.1); the same eight the paper's §3.1
/// enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Client → server method invocation.
    Request = 0,
    /// Server → client result.
    Reply = 1,
    /// Client cancels an outstanding request.
    CancelRequest = 2,
    /// Client asks where an object lives.
    LocateRequest = 3,
    /// Server answers a LocateRequest.
    LocateReply = 4,
    /// Orderly connection shutdown.
    CloseConnection = 5,
    /// Protocol error indication.
    MessageError = 6,
    /// Continuation of a fragmented message (GIOP 1.1).
    Fragment = 7,
}

impl MsgType {
    /// Decode a message-type octet.
    #[inline]
    pub fn from_u8(v: u8) -> Result<Self, GiopError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            7 => MsgType::Fragment,
            other => return Err(GiopError::BadMsgType(other)),
        })
    }

    /// All eight message types, in wire order.
    pub const ALL: [MsgType; 8] = [
        MsgType::Request,
        MsgType::Reply,
        MsgType::CancelRequest,
        MsgType::LocateRequest,
        MsgType::LocateReply,
        MsgType::CloseConnection,
        MsgType::MessageError,
        MsgType::Fragment,
    ];
}

/// The fixed GIOP header.
///
/// Layout: magic (4) · version (2) · flags (1) · message type (1) ·
/// message size (4, in the byte order named by the flags). In GIOP 1.0 the
/// flags octet is just the byte-order boolean; GIOP 1.1 adds bit 1 =
/// "more fragments follow".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiopHeader {
    /// Protocol version.
    pub version: GiopVersion,
    /// Byte order of everything after the flags octet.
    pub order: ByteOrder,
    /// More fragments follow this message (GIOP 1.1 flags bit 1).
    pub more_fragments: bool,
    /// Message type.
    pub msg_type: MsgType,
    /// Byte count of the message following the 12-byte header.
    pub size: u32,
}

impl GiopHeader {
    /// Construct a GIOP 1.0 header.
    pub fn new(msg_type: MsgType, order: ByteOrder, size: u32) -> Self {
        GiopHeader {
            version: GiopVersion::V1_0,
            order,
            more_fragments: false,
            msg_type,
            size,
        }
    }

    /// Encode into the front of a fresh writer (offsets 0..12).
    pub fn encode(&self, w: &mut CdrWriter) {
        debug_assert_eq!(w.position() % 8, 0, "GIOP header must start 8-aligned");
        w.write_bytes(&GIOP_MAGIC);
        w.write_u8(self.version.major);
        w.write_u8(self.version.minor);
        let mut flags = 0u8;
        if self.order.as_flag() {
            flags |= 0x01;
        }
        if self.more_fragments {
            flags |= 0x02;
        }
        w.write_u8(flags);
        w.write_u8(self.msg_type as u8);
        w.write_u32(self.size);
    }

    /// Decode a whole message's header; returns it and the body slice.
    /// `bytes` must be exactly one message: the header's `size` must equal
    /// the bytes after it, or the decode fails with
    /// [`GiopError::SizeMismatch`] — a body cut short cannot be read, and
    /// trailing octets are not carried along into a log or a reassembly.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<(GiopHeader, &[u8]), GiopError> {
        if bytes.len() < GIOP_HEADER_LEN {
            return Err(GiopError::Cdr(ftmp_cdr::CdrError::UnexpectedEof {
                at: 0,
                wanted: GIOP_HEADER_LEN,
                available: bytes.len(),
            }));
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != GIOP_MAGIC {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (bytes[4], bytes[5]);
        if major != 1 || minor > 1 {
            return Err(GiopError::BadVersion(major, minor));
        }
        let flags = bytes[6];
        let order = ByteOrder::from_flag(flags & 0x01 != 0);
        let more_fragments = flags & 0x02 != 0;
        let msg_type = MsgType::from_u8(bytes[7])?;
        let size = [bytes[8], bytes[9], bytes[10], bytes[11]];
        let size = match order {
            ByteOrder::Big => u32::from_be_bytes(size),
            ByteOrder::Little => u32::from_le_bytes(size),
        };
        let body = &bytes[GIOP_HEADER_LEN..];
        if body.len() != size as usize {
            return Err(GiopError::SizeMismatch {
                declared: size,
                actual: body.len(),
            });
        }
        Ok((
            GiopHeader {
                version: GiopVersion { major, minor },
                order,
                more_fragments,
                msg_type,
                size,
            },
            body,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_exactly_twelve_bytes() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        GiopHeader::new(MsgType::Request, ByteOrder::Big, 0).encode(&mut w);
        assert_eq!(w.len(), GIOP_HEADER_LEN);
    }

    #[test]
    fn header_round_trip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let h = GiopHeader::new(MsgType::Reply, order, 1234);
            let mut w = CdrWriter::new(order);
            h.encode(&mut w);
            let mut bytes = w.into_bytes();
            bytes.extend(std::iter::repeat_n(0u8, 1234));
            let (back, body) = GiopHeader::decode(&bytes).unwrap();
            assert_eq!(back, h);
            assert_eq!(body.len(), 1234);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [b'G', b'I', b'0', b'P', 1, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            GiopHeader::decode(&bytes).unwrap_err(),
            GiopError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let bytes = [b'G', b'I', b'O', b'P', 2, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            GiopHeader::decode(&bytes).unwrap_err(),
            GiopError::BadVersion(2, 0)
        );
    }

    #[test]
    fn truncated_body_rejected() {
        let h = GiopHeader::new(MsgType::Request, ByteOrder::Big, 10);
        let mut w = CdrWriter::new(ByteOrder::Big);
        h.encode(&mut w);
        let bytes = w.into_bytes(); // no body at all
        assert!(matches!(
            GiopHeader::decode(&bytes).unwrap_err(),
            GiopError::SizeMismatch {
                declared: 10,
                actual: 0
            }
        ));
    }

    /// A datagram longer than its header declares is refused, not cut to
    /// size: the trailing octets would otherwise ride into the log.
    #[test]
    fn trailing_bytes_rejected() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut w = CdrWriter::new(order);
            GiopHeader::new(MsgType::Request, order, 4).encode(&mut w);
            let mut bytes = w.into_bytes();
            bytes.extend([0u8; 4]);
            assert!(GiopHeader::decode(&bytes).is_ok());
            bytes.push(0xEE);
            assert_eq!(
                GiopHeader::decode(&bytes).unwrap_err(),
                GiopError::SizeMismatch {
                    declared: 4,
                    actual: 5
                }
            );
        }
    }

    #[test]
    fn all_msg_types_round_trip() {
        for t in MsgType::ALL {
            assert_eq!(MsgType::from_u8(t as u8).unwrap(), t);
        }
        assert!(MsgType::from_u8(8).is_err());
    }

    #[test]
    fn fragment_flag_round_trips() {
        let mut h = GiopHeader::new(MsgType::Fragment, ByteOrder::Little, 0);
        h.version = GiopVersion::V1_1;
        h.more_fragments = true;
        let mut w = CdrWriter::new(ByteOrder::Little);
        h.encode(&mut w);
        let (back, _) = GiopHeader::decode(w.as_bytes()).unwrap();
        assert!(back.more_fragments);
        assert_eq!(back.version, GiopVersion::V1_1);
    }
}
