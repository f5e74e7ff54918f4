//! GIOP messages read in place: the crate's one codec.
//!
//! [`GiopView::decode`] checks a whole message — the fixed header and its
//! size, every service context, every length prefix against the bytes
//! left, each string's NUL and UTF-8, each enum's range, that a Cancel or
//! LocateRequest ends where its fields do — and keeps what it read as
//! slices of the input: it allocates nothing. [`GiopView::encode`] writes
//! one. [`GiopMessage`] is the owned form, decoded as a view plus
//! [`GiopView::to_owned`] and encoded through [`GiopMessage::as_view`].

use crate::header::{GiopHeader, GiopVersion, MsgType, GIOP_HEADER_LEN};
use crate::message::GiopMessage;
use crate::request::{
    LocateReplyHeader, LocateRequestHeader, LocateStatus, ReplyHeader, ReplyStatus, RequestHeader,
    ServiceContext,
};
use crate::GiopError;
use ftmp_cdr::{ByteOrder, CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};

/// A service context list as a view holds it: still encoded, or borrowed
/// from an owned list. Both iterate as `(context_id, context_data)`.
#[derive(Debug, Clone)]
pub enum ServiceContexts<'a> {
    /// `count` entries, checked at decode; `at` is positioned on the first.
    Wire {
        /// Number of entries.
        count: usize,
        /// A reader on the first entry's id.
        at: CdrReader<'a>,
    },
    /// An owned list, viewed.
    Owned(&'a [ServiceContext]),
}

impl<'a> ServiceContexts<'a> {
    /// The empty list.
    pub const NONE: ServiceContexts<'static> = ServiceContexts::Owned(&[]);

    /// Read a list, checking every entry; keep only where it starts.
    fn read(r: &mut CdrReader<'a>) -> Result<Self, CdrError> {
        // An entry is at least eight octets: its id and its data's length.
        let count = r.read_seq_len(8)?;
        let at = r.clone();
        for _ in 0..count {
            r.read_u32()?;
            r.read_octet_slice()?;
        }
        Ok(ServiceContexts::Wire { count, at })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            ServiceContexts::Wire { count, .. } => *count,
            ServiceContexts::Owned(list) => list.len(),
        }
    }

    /// True when the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries, in order, as `(context_id, context_data)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a [u8])> {
        let mut list = self.clone();
        std::iter::from_fn(move || match &mut list {
            ServiceContexts::Wire { count, at } => {
                *count = count.checked_sub(1)?;
                // Checked at decode, so neither read fails.
                Some((at.read_u32().ok()?, at.read_octet_slice().ok()?))
            }
            ServiceContexts::Owned(entries) => {
                let all: &'a [ServiceContext] = entries;
                let (first, rest) = all.split_first()?;
                *entries = rest;
                Some((first.context_id, &first.context_data[..]))
            }
        })
    }

    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.len() as u32);
        for (id, data) in self.iter() {
            w.write_u32(id);
            w.write_octet_seq(data);
        }
    }

    fn to_owned(&self) -> Vec<ServiceContext> {
        let mut list = Vec::with_capacity(self.len());
        list.extend(self.iter().map(|(context_id, data)| ServiceContext {
            context_id,
            context_data: data.to_vec(),
        }));
        list
    }
}

/// A Request header, borrowed.
#[derive(Debug, Clone)]
pub struct RequestView<'a> {
    /// Service context list.
    pub service_context: ServiceContexts<'a>,
    /// Request id, scoped to the connection.
    pub request_id: u32,
    /// False for `oneway` operations.
    pub response_expected: bool,
    /// Opaque key naming the target object.
    pub object_key: &'a [u8],
    /// Operation name.
    pub operation: &'a str,
    /// Requesting principal.
    pub requesting_principal: &'a [u8],
}

/// A Reply header, borrowed.
#[derive(Debug, Clone)]
pub struct ReplyView<'a> {
    /// Service context list.
    pub service_context: ServiceContexts<'a>,
    /// Matches the Request's `request_id`.
    pub request_id: u32,
    /// Outcome discriminator for the body.
    pub reply_status: ReplyStatus,
}

/// A GIOP message whose octet sequences, strings and bodies borrow from the
/// bytes it was read from (or from the owned message it views). Variants
/// and fields mirror [`GiopMessage`].
#[derive(Debug, Clone)]
pub enum GiopView<'a> {
    /// Method invocation.
    Request {
        /// The request header.
        header: RequestView<'a>,
        /// Marshalled arguments.
        body: &'a [u8],
    },
    /// Invocation result.
    Reply {
        /// The reply header.
        header: ReplyView<'a>,
        /// Marshalled result or exception.
        body: &'a [u8],
    },
    /// Cancellation of an outstanding request.
    CancelRequest {
        /// Id of the request being abandoned.
        request_id: u32,
    },
    /// Object location query.
    LocateRequest {
        /// Request id for matching the LocateReply.
        request_id: u32,
        /// Object key being located.
        object_key: &'a [u8],
    },
    /// Object location answer.
    LocateReply {
        /// The locate reply header.
        header: LocateReplyHeader,
        /// Forwarding IOR when status is `ObjectForward`.
        body: &'a [u8],
    },
    /// Orderly shutdown.
    CloseConnection,
    /// Protocol error indication.
    MessageError,
    /// Continuation octets of a fragmented message.
    Fragment {
        /// Raw continuation octets.
        body: &'a [u8],
        /// Whether more fragments follow.
        more: bool,
    },
}

impl<'a> GiopView<'a> {
    /// Read one whole GIOP message in place.
    ///
    /// `bytes` must be exactly the message ([`GiopHeader::decode`]). A
    /// first fragment decodes as its message type with the body it carries;
    /// reassembly is [`crate::FragmentAssembler`]'s.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, GiopError> {
        let (hdr, body) = GiopHeader::decode(bytes)?;
        let mut r = CdrReader::with_base(body, hdr.order, GIOP_HEADER_LEN);
        Ok(match hdr.msg_type {
            MsgType::Request => GiopView::Request {
                header: RequestView {
                    service_context: ServiceContexts::read(&mut r)?,
                    request_id: r.read_u32()?,
                    response_expected: r.read_bool()?,
                    object_key: r.read_octet_slice()?,
                    operation: r.read_str()?,
                    requesting_principal: r.read_octet_slice()?,
                },
                body: rest(&mut r)?,
            },
            MsgType::Reply => GiopView::Reply {
                header: ReplyView {
                    service_context: ServiceContexts::read(&mut r)?,
                    request_id: r.read_u32()?,
                    reply_status: ReplyStatus::decode(&mut r)?,
                },
                body: rest(&mut r)?,
            },
            MsgType::CancelRequest => {
                let request_id = r.read_u32()?;
                r.expect_exhausted()?;
                GiopView::CancelRequest { request_id }
            }
            MsgType::LocateRequest => {
                let request_id = r.read_u32()?;
                let object_key = r.read_octet_slice()?;
                r.expect_exhausted()?;
                GiopView::LocateRequest {
                    request_id,
                    object_key,
                }
            }
            MsgType::LocateReply => GiopView::LocateReply {
                header: LocateReplyHeader {
                    request_id: r.read_u32()?,
                    locate_status: LocateStatus::decode(&mut r)?,
                },
                body: rest(&mut r)?,
            },
            MsgType::CloseConnection => GiopView::CloseConnection,
            MsgType::MessageError => GiopView::MessageError,
            MsgType::Fragment => GiopView::Fragment {
                body,
                more: hdr.more_fragments,
            },
        })
    }

    /// The wire message type.
    pub fn msg_type(&self) -> MsgType {
        match self {
            GiopView::Request { .. } => MsgType::Request,
            GiopView::Reply { .. } => MsgType::Reply,
            GiopView::CancelRequest { .. } => MsgType::CancelRequest,
            GiopView::LocateRequest { .. } => MsgType::LocateRequest,
            GiopView::LocateReply { .. } => MsgType::LocateReply,
            GiopView::CloseConnection => MsgType::CloseConnection,
            GiopView::MessageError => MsgType::MessageError,
            GiopView::Fragment { .. } => MsgType::Fragment,
        }
    }

    /// Encode as a complete GIOP stream (12-byte header + body) in the
    /// given byte order.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        let mut w = CdrWriter::with_capacity(order, self.size_hint());
        let mut hdr = GiopHeader::new(self.msg_type(), order, 0);
        if let GiopView::Fragment { more, .. } = self {
            hdr.version = GiopVersion::V1_1;
            hdr.more_fragments = *more;
        }
        hdr.encode(&mut w);
        match self {
            GiopView::Request { header: h, body } => {
                h.service_context.encode(&mut w);
                w.write_u32(h.request_id);
                w.write_bool(h.response_expected);
                w.write_octet_seq(h.object_key);
                w.write_string(h.operation);
                w.write_octet_seq(h.requesting_principal);
                w.write_bytes(body);
            }
            GiopView::Reply { header: h, body } => {
                h.service_context.encode(&mut w);
                w.write_u32(h.request_id);
                h.reply_status.encode(&mut w);
                w.write_bytes(body);
            }
            GiopView::CancelRequest { request_id } => w.write_u32(*request_id),
            GiopView::LocateRequest {
                request_id,
                object_key,
            } => {
                w.write_u32(*request_id);
                w.write_octet_seq(object_key);
            }
            GiopView::LocateReply { header, body } => {
                w.write_u32(header.request_id);
                header.locate_status.encode(&mut w);
                w.write_bytes(body);
            }
            GiopView::CloseConnection | GiopView::MessageError => {}
            GiopView::Fragment { body, .. } => w.write_bytes(body),
        }
        let size = (w.len() - GIOP_HEADER_LEN) as u32;
        w.patch_u32(8, size);
        w.into_bytes()
    }

    /// An upper bound on the encoded length, so an encode allocates once:
    /// the variable-length parts plus room for the fixed fields, length
    /// prefixes and padding around them.
    fn size_hint(&self) -> usize {
        let contexts = |c: &ServiceContexts<'_>| c.iter().map(|(_, d)| 16 + d.len()).sum::<usize>();
        GIOP_HEADER_LEN
            + match self {
                GiopView::Request { header: h, body } => {
                    contexts(&h.service_context)
                        + h.object_key.len()
                        + h.operation.len()
                        + h.requesting_principal.len()
                        + body.len()
                        + 48
                }
                GiopView::Reply { header: h, body } => {
                    contexts(&h.service_context) + body.len() + 24
                }
                GiopView::LocateRequest { object_key, .. } => object_key.len() + 16,
                GiopView::LocateReply { body, .. } | GiopView::Fragment { body, .. } => {
                    body.len() + 16
                }
                GiopView::CancelRequest { .. }
                | GiopView::CloseConnection
                | GiopView::MessageError => 8,
            }
    }

    /// The owned message: every borrowed field copied out.
    pub fn to_owned(&self) -> GiopMessage {
        match self {
            GiopView::Request { header: h, body } => GiopMessage::Request {
                header: RequestHeader {
                    service_context: h.service_context.to_owned(),
                    request_id: h.request_id,
                    response_expected: h.response_expected,
                    object_key: h.object_key.to_vec(),
                    operation: h.operation.to_owned(),
                    requesting_principal: h.requesting_principal.to_vec(),
                },
                body: body.to_vec(),
            },
            GiopView::Reply { header: h, body } => GiopMessage::Reply {
                header: ReplyHeader {
                    service_context: h.service_context.to_owned(),
                    request_id: h.request_id,
                    reply_status: h.reply_status,
                },
                body: body.to_vec(),
            },
            GiopView::CancelRequest { request_id } => GiopMessage::CancelRequest {
                request_id: *request_id,
            },
            GiopView::LocateRequest {
                request_id,
                object_key,
            } => GiopMessage::LocateRequest(LocateRequestHeader {
                request_id: *request_id,
                object_key: object_key.to_vec(),
            }),
            GiopView::LocateReply { header, body } => GiopMessage::LocateReply {
                header: *header,
                body: body.to_vec(),
            },
            GiopView::CloseConnection => GiopMessage::CloseConnection,
            GiopView::MessageError => GiopMessage::MessageError,
            GiopView::Fragment { body, more } => GiopMessage::Fragment {
                body: body.to_vec(),
                more: *more,
            },
        }
    }
}

/// Everything the reader has not consumed.
fn rest<'a>(r: &mut CdrReader<'a>) -> Result<&'a [u8], CdrError> {
    r.read_bytes(r.remaining())
}

#[cfg(test)]
mod model_tests;
