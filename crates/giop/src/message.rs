//! Whole-message GIOP encode/decode.

use crate::header::MsgType;
use crate::request::{LocateReplyHeader, LocateRequestHeader, ReplyHeader, RequestHeader};
use crate::view::{GiopView, ReplyView, RequestView, ServiceContexts};
use crate::GiopError;
use ftmp_cdr::ByteOrder;

/// A complete GIOP message: typed header plus opaque CDR body octets.
///
/// Bodies (operation arguments, return values, exception payloads) are kept
/// as raw octets here — their schema belongs to the application IDL, which
/// the ORB layer interprets. The body's CDR stream offsets continue the
/// message stream, so the stored octets start at the first byte after the
/// type-specific header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopMessage {
    /// Method invocation.
    Request {
        /// The GIOP 1.0 request header.
        header: RequestHeader,
        /// Marshalled in/inout arguments.
        body: Vec<u8>,
    },
    /// Invocation result.
    Reply {
        /// The GIOP 1.0 reply header.
        header: ReplyHeader,
        /// Marshalled return value / out params / exception.
        body: Vec<u8>,
    },
    /// Cancellation of an outstanding request.
    CancelRequest {
        /// Id of the request being abandoned.
        request_id: u32,
    },
    /// Object location query.
    LocateRequest(LocateRequestHeader),
    /// Object location answer.
    LocateReply {
        /// The locate reply header.
        header: LocateReplyHeader,
        /// Forwarding IOR when status is `ObjectForward`.
        body: Vec<u8>,
    },
    /// Orderly shutdown; no body.
    CloseConnection,
    /// Protocol error indication; no body.
    MessageError,
    /// Continuation octets of a fragmented message (GIOP 1.1).
    Fragment {
        /// Raw continuation octets.
        body: Vec<u8>,
        /// Whether more fragments follow.
        more: bool,
    },
}

impl GiopMessage {
    /// The wire message type of this message.
    pub fn msg_type(&self) -> MsgType {
        self.as_view().msg_type()
    }

    /// The request id carried by this message, if its type has one.
    pub fn request_id(&self) -> Option<u32> {
        match self {
            GiopMessage::Request { header, .. } => Some(header.request_id),
            GiopMessage::Reply { header, .. } => Some(header.request_id),
            GiopMessage::CancelRequest { request_id } => Some(*request_id),
            GiopMessage::LocateRequest(h) => Some(h.request_id),
            GiopMessage::LocateReply { header, .. } => Some(header.request_id),
            _ => None,
        }
    }

    /// This message as a [`GiopView`] borrowing its fields.
    pub fn as_view(&self) -> GiopView<'_> {
        match self {
            GiopMessage::Request { header: h, body } => GiopView::Request {
                header: RequestView {
                    service_context: ServiceContexts::Owned(&h.service_context),
                    request_id: h.request_id,
                    response_expected: h.response_expected,
                    object_key: &h.object_key,
                    operation: &h.operation,
                    requesting_principal: &h.requesting_principal,
                },
                body,
            },
            GiopMessage::Reply { header: h, body } => GiopView::Reply {
                header: ReplyView {
                    service_context: ServiceContexts::Owned(&h.service_context),
                    request_id: h.request_id,
                    reply_status: h.reply_status,
                },
                body,
            },
            GiopMessage::CancelRequest { request_id } => GiopView::CancelRequest {
                request_id: *request_id,
            },
            GiopMessage::LocateRequest(h) => GiopView::LocateRequest {
                request_id: h.request_id,
                object_key: &h.object_key,
            },
            GiopMessage::LocateReply { header, body } => GiopView::LocateReply {
                header: *header,
                body,
            },
            GiopMessage::CloseConnection => GiopView::CloseConnection,
            GiopMessage::MessageError => GiopView::MessageError,
            GiopMessage::Fragment { body, more } => GiopView::Fragment { body, more: *more },
        }
    }

    /// Encode this message as a complete GIOP stream (12-byte header + body)
    /// in the given byte order: [`GiopView::encode`] on [`Self::as_view`].
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        self.as_view().encode(order)
    }

    /// Decode a complete GIOP message from `bytes`: [`GiopView::decode`],
    /// then [`GiopView::to_owned`].
    pub fn decode(bytes: &[u8]) -> Result<GiopMessage, GiopError> {
        GiopView::decode(bytes).map(|v| v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{GiopHeader, GIOP_HEADER_LEN};
    use crate::request::{ReplyStatus, ServiceContext};
    use proptest::prelude::*;

    fn rt(msg: GiopMessage, order: ByteOrder) {
        let bytes = msg.encode(order);
        let back = GiopMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn request_round_trip_with_body() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            rt(
                GiopMessage::Request {
                    header: RequestHeader {
                        service_context: vec![ServiceContext {
                            context_id: 1,
                            context_data: vec![9, 9],
                        }],
                        request_id: 1001,
                        response_expected: true,
                        object_key: b"key".to_vec(),
                        operation: "op".into(),
                        requesting_principal: vec![],
                    },
                    body: vec![1, 2, 3, 4, 5],
                },
                order,
            );
        }
    }

    #[test]
    fn reply_round_trip() {
        rt(
            GiopMessage::Reply {
                header: ReplyHeader {
                    service_context: vec![],
                    request_id: 1001,
                    reply_status: ReplyStatus::NoException,
                },
                body: vec![0xFF; 16],
            },
            ByteOrder::Big,
        );
    }

    #[test]
    fn bodyless_messages_round_trip() {
        rt(GiopMessage::CloseConnection, ByteOrder::Big);
        rt(GiopMessage::MessageError, ByteOrder::Little);
        rt(GiopMessage::CancelRequest { request_id: 3 }, ByteOrder::Big);
    }

    #[test]
    fn locate_round_trip() {
        rt(
            GiopMessage::LocateRequest(LocateRequestHeader {
                request_id: 8,
                object_key: vec![1],
            }),
            ByteOrder::Big,
        );
        rt(
            GiopMessage::LocateReply {
                header: LocateReplyHeader {
                    request_id: 8,
                    locate_status: crate::request::LocateStatus::ObjectHere,
                },
                body: vec![],
            },
            ByteOrder::Little,
        );
    }

    #[test]
    fn fragment_round_trip() {
        rt(
            GiopMessage::Fragment {
                body: vec![7; 33],
                more: true,
            },
            ByteOrder::Big,
        );
        rt(
            GiopMessage::Fragment {
                body: vec![],
                more: false,
            },
            ByteOrder::Big,
        );
    }

    #[test]
    fn declared_size_matches_encoding() {
        let msg = GiopMessage::Request {
            header: RequestHeader::default(),
            body: vec![1, 2, 3],
        };
        let bytes = msg.encode(ByteOrder::Big);
        let (hdr, body) = GiopHeader::decode(&bytes).unwrap();
        assert_eq!(hdr.size as usize, body.len());
        assert_eq!(bytes.len(), GIOP_HEADER_LEN + hdr.size as usize);
    }

    #[test]
    fn request_id_accessor() {
        assert_eq!(
            GiopMessage::CancelRequest { request_id: 42 }.request_id(),
            Some(42)
        );
        assert_eq!(GiopMessage::CloseConnection.request_id(), None);
    }

    #[test]
    fn cross_endian_decode_uses_header_flag() {
        // Encode little-endian, decode without external knowledge.
        let msg = GiopMessage::Reply {
            header: ReplyHeader {
                service_context: vec![],
                request_id: 0xABCD_EF01,
                reply_status: ReplyStatus::SystemException,
            },
            body: vec![],
        };
        let bytes = msg.encode(ByteOrder::Little);
        assert_eq!(GiopMessage::decode(&bytes).unwrap(), msg);
    }

    proptest! {
        #[test]
        fn prop_request_message_round_trip(
            request_id: u32,
            body in proptest::collection::vec(any::<u8>(), 0..128),
            key in proptest::collection::vec(any::<u8>(), 0..16),
            op in "[a-z]{1,12}",
            little: bool,
        ) {
            let order = ByteOrder::from_flag(little);
            let msg = GiopMessage::Request {
                header: RequestHeader {
                    service_context: vec![],
                    request_id,
                    response_expected: true,
                    object_key: key,
                    operation: op,
                    requesting_principal: vec![],
                },
                body,
            };
            let bytes = msg.encode(order);
            prop_assert_eq!(GiopMessage::decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn prop_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = GiopMessage::decode(&bytes);
        }

        #[test]
        fn prop_decode_bitflip_never_panics(
            body in proptest::collection::vec(any::<u8>(), 0..64),
            flip_byte in 0usize..76,
            flip_bit in 0u8..8,
        ) {
            let msg = GiopMessage::Request {
                header: RequestHeader {
                    service_context: vec![],
                    request_id: 1,
                    response_expected: false,
                    object_key: vec![1, 2],
                    operation: "m".into(),
                    requesting_principal: vec![],
                },
                body,
            };
            let mut bytes = msg.encode(ByteOrder::Big);
            if flip_byte < bytes.len() {
                bytes[flip_byte] ^= 1 << flip_bit;
            }
            let _ = GiopMessage::decode(&bytes);
        }
    }
}
