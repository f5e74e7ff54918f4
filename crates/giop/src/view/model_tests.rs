//! The view against the owned decoder it replaced (DESIGN.md §11, "The ORB
//! reads a delivery in place").
//!
//! The model is that decoder as it stood, down to its own string, octet
//! sequence and header reads, with one change: a message must be exactly
//! the size its header declares. Both judge the same inputs — encoded
//! messages of every type in both byte orders, every single-bit flip and
//! every truncation of them, the same with trailing octets, garbage up to
//! 1 KiB with and without a valid header in front, and fragments. The view
//! must accept exactly what the model accepts, read the same fields, and
//! encode byte-for-byte what the model encodes.

use super::*;
use crate::fragment::{FragmentAssembler, Fragmenter};
use bytes::Bytes;
use proptest::prelude::*;

/// The owned decoder and encoder before the view, kept as the model.
mod model {
    use crate::header::{GiopHeader, GiopVersion, MsgType, GIOP_HEADER_LEN};
    use crate::message::GiopMessage;
    use crate::request::{
        LocateReplyHeader, LocateRequestHeader, LocateStatus, ReplyHeader, ReplyStatus,
        RequestHeader, ServiceContext,
    };
    use crate::GiopError;
    use ftmp_cdr::{ByteOrder, CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};

    fn header(bytes: &[u8]) -> Result<(GiopHeader, &[u8]), GiopError> {
        if bytes.len() < GIOP_HEADER_LEN {
            return Err(GiopError::Cdr(CdrError::UnexpectedEof {
                at: 0,
                wanted: GIOP_HEADER_LEN,
                available: bytes.len(),
            }));
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != *b"GIOP" {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (bytes[4], bytes[5]);
        if major != 1 || minor > 1 {
            return Err(GiopError::BadVersion(major, minor));
        }
        let flags = bytes[6];
        let order = ByteOrder::from_flag(flags & 0x01 != 0);
        let msg_type = MsgType::from_u8(bytes[7])?;
        let mut r = CdrReader::with_base(&bytes[8..12], order, 8);
        let size = r.read_u32()?;
        let body = &bytes[GIOP_HEADER_LEN..];
        if body.len() != size as usize {
            return Err(GiopError::SizeMismatch {
                declared: size,
                actual: body.len(),
            });
        }
        let hdr = GiopHeader {
            version: GiopVersion { major, minor },
            order,
            more_fragments: flags & 0x02 != 0,
            msg_type,
            size,
        };
        Ok((hdr, body))
    }

    fn string(r: &mut CdrReader<'_>) -> Result<String, CdrError> {
        let len = r.read_u32()? as usize;
        if len == 0 {
            return Ok(String::new());
        }
        if len > r.remaining() {
            return Err(CdrError::LengthOverrun {
                len: len as u64,
                available: r.remaining(),
            });
        }
        let bytes = r.read_bytes(len)?;
        let (body, nul) = bytes.split_at(len - 1);
        if nul != [0] || body.contains(&0) {
            return Err(CdrError::BadString);
        }
        String::from_utf8(body.to_vec()).map_err(|_| CdrError::InvalidUtf8)
    }

    fn octets(r: &mut CdrReader<'_>) -> Result<Vec<u8>, CdrError> {
        let len = r.read_u32()? as usize;
        if len > r.remaining() {
            return Err(CdrError::LengthOverrun {
                len: len as u64,
                available: r.remaining(),
            });
        }
        Ok(r.read_bytes(len)?.to_vec())
    }

    fn contexts(r: &mut CdrReader<'_>) -> Result<Vec<ServiceContext>, CdrError> {
        let len = r.read_seq_len(1)?;
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(ServiceContext {
                context_id: r.read_u32()?,
                context_data: octets(r)?,
            });
        }
        Ok(v)
    }

    pub(super) fn decode(bytes: &[u8]) -> Result<GiopMessage, GiopError> {
        let (hdr, body) = header(bytes)?;
        let mut r = CdrReader::with_base(body, hdr.order, GIOP_HEADER_LEN);
        let rest = |r: &CdrReader<'_>| body[r.position() - GIOP_HEADER_LEN..].to_vec();
        Ok(match hdr.msg_type {
            MsgType::Request => {
                let header = RequestHeader {
                    service_context: contexts(&mut r)?,
                    request_id: r.read_u32()?,
                    response_expected: r.read_bool()?,
                    object_key: octets(&mut r)?,
                    operation: string(&mut r)?,
                    requesting_principal: octets(&mut r)?,
                };
                GiopMessage::Request {
                    header,
                    body: rest(&r),
                }
            }
            MsgType::Reply => {
                let header = ReplyHeader {
                    service_context: contexts(&mut r)?,
                    request_id: r.read_u32()?,
                    reply_status: ReplyStatus::decode(&mut r)?,
                };
                GiopMessage::Reply {
                    header,
                    body: rest(&r),
                }
            }
            MsgType::CancelRequest => {
                let request_id = r.read_u32()?;
                r.expect_exhausted()?;
                GiopMessage::CancelRequest { request_id }
            }
            MsgType::LocateRequest => {
                let h = LocateRequestHeader {
                    request_id: r.read_u32()?,
                    object_key: octets(&mut r)?,
                };
                r.expect_exhausted()?;
                GiopMessage::LocateRequest(h)
            }
            MsgType::LocateReply => {
                let header = LocateReplyHeader {
                    request_id: r.read_u32()?,
                    locate_status: LocateStatus::decode(&mut r)?,
                };
                GiopMessage::LocateReply {
                    header,
                    body: rest(&r),
                }
            }
            MsgType::CloseConnection => GiopMessage::CloseConnection,
            MsgType::MessageError => GiopMessage::MessageError,
            MsgType::Fragment => GiopMessage::Fragment {
                body: body.to_vec(),
                more: hdr.more_fragments,
            },
        })
    }

    fn write_contexts(w: &mut CdrWriter, list: &[ServiceContext]) {
        w.write_u32(list.len() as u32);
        for c in list {
            w.write_u32(c.context_id);
            w.write_octet_seq(&c.context_data);
        }
    }

    pub(super) fn encode(msg: &GiopMessage, order: ByteOrder) -> Vec<u8> {
        let mut w = CdrWriter::new(order);
        let mut hdr = GiopHeader::new(msg.msg_type(), order, 0);
        if let GiopMessage::Fragment { more, .. } = msg {
            hdr.version = GiopVersion::V1_1;
            hdr.more_fragments = *more;
        }
        hdr.encode(&mut w);
        match msg {
            GiopMessage::Request { header: h, body } => {
                write_contexts(&mut w, &h.service_context);
                w.write_u32(h.request_id);
                w.write_bool(h.response_expected);
                w.write_octet_seq(&h.object_key);
                w.write_string(&h.operation);
                w.write_octet_seq(&h.requesting_principal);
                w.write_bytes(body);
            }
            GiopMessage::Reply { header: h, body } => {
                write_contexts(&mut w, &h.service_context);
                w.write_u32(h.request_id);
                h.reply_status.encode(&mut w);
                w.write_bytes(body);
            }
            GiopMessage::CancelRequest { request_id } => w.write_u32(*request_id),
            GiopMessage::LocateRequest(h) => {
                w.write_u32(h.request_id);
                w.write_octet_seq(&h.object_key);
            }
            GiopMessage::LocateReply { header, body } => {
                w.write_u32(header.request_id);
                header.locate_status.encode(&mut w);
                w.write_bytes(body);
            }
            GiopMessage::CloseConnection | GiopMessage::MessageError => {}
            GiopMessage::Fragment { body, .. } => w.write_bytes(body),
        }
        let size = (w.len() - GIOP_HEADER_LEN) as u32;
        w.patch_u32(8, size);
        w.into_bytes()
    }
}

const ORDERS: [ByteOrder; 2] = [ByteOrder::Big, ByteOrder::Little];

/// The view and the model judge `bytes` alike.
fn agree(bytes: &[u8]) {
    match (GiopView::decode(bytes), model::decode(bytes)) {
        (Ok(view), Ok(model)) => {
            assert_eq!(view.msg_type(), model.msg_type(), "{bytes:02x?}");
            assert_eq!(view.to_owned(), model, "{bytes:02x?}");
            for order in ORDERS {
                assert_eq!(
                    view.encode(order),
                    model::encode(&model, order),
                    "{bytes:02x?}"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (view, model) => panic!(
            "the view {} and the model {} {bytes:02x?}",
            if view.is_ok() { "accepts" } else { "refuses" },
            if model.is_ok() { "accepts" } else { "refuses" },
        ),
    }
}

/// `bytes` with the GIOP size field set to what follows the header.
fn sized(mut bytes: Vec<u8>, order: ByteOrder) -> Vec<u8> {
    let size = (bytes.len() - GIOP_HEADER_LEN) as u32;
    let size = match order {
        ByteOrder::Big => size.to_be_bytes(),
        ByteOrder::Little => size.to_le_bytes(),
    };
    bytes[8..12].copy_from_slice(&size);
    bytes
}

fn octets(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn contexts() -> impl Strategy<Value = Vec<ServiceContext>> {
    proptest::collection::vec(
        (any::<u32>(), octets(6)).prop_map(|(context_id, context_data)| ServiceContext {
            context_id,
            context_data,
        }),
        0..3,
    )
}

/// A message of any of the eight types. Operation names include NULs and
/// multi-byte characters, so some encodings are ones both must refuse.
fn message() -> impl Strategy<Value = GiopMessage> {
    let reply_status = (0u32..4).prop_map(|s| match s {
        0 => ReplyStatus::NoException,
        1 => ReplyStatus::UserException,
        2 => ReplyStatus::SystemException,
        _ => ReplyStatus::LocationForward,
    });
    let locate_status = (0u32..3).prop_map(|s| match s {
        0 => LocateStatus::UnknownObject,
        1 => LocateStatus::ObjectHere,
        _ => LocateStatus::ObjectForward,
    });
    prop_oneof![
        (
            contexts(),
            any::<u32>(),
            any::<bool>(),
            octets(12),
            "[a-z_é\u{0}]{0,10}",
            octets(4),
            octets(40),
        )
            .prop_map(|(sc, id, resp, key, op, principal, body)| {
                GiopMessage::Request {
                    header: RequestHeader {
                        service_context: sc,
                        request_id: id,
                        response_expected: resp,
                        object_key: key,
                        operation: op,
                        requesting_principal: principal,
                    },
                    body,
                }
            }),
        (contexts(), any::<u32>(), reply_status, octets(40)).prop_map(|(sc, id, st, body)| {
            GiopMessage::Reply {
                header: ReplyHeader {
                    service_context: sc,
                    request_id: id,
                    reply_status: st,
                },
                body,
            }
        }),
        any::<u32>().prop_map(|request_id| GiopMessage::CancelRequest { request_id }),
        (any::<u32>(), octets(12)).prop_map(|(request_id, object_key)| {
            GiopMessage::LocateRequest(LocateRequestHeader {
                request_id,
                object_key,
            })
        }),
        (any::<u32>(), locate_status, octets(16)).prop_map(|(request_id, st, body)| {
            GiopMessage::LocateReply {
                header: LocateReplyHeader {
                    request_id,
                    locate_status: st,
                },
                body,
            }
        }),
        Just(GiopMessage::CloseConnection),
        Just(GiopMessage::MessageError),
        (octets(40), any::<bool>()).prop_map(|(body, more)| GiopMessage::Fragment { body, more }),
    ]
}

proptest! {
    /// Encoded messages: the view's encode is the model's, and the two
    /// decoders agree on the encoding, on every single-bit flip of it, on
    /// every truncation (declared size kept, or patched to match), and on
    /// it with trailing octets (undeclared, or declared as body).
    #[test]
    fn prop_view_agrees_with_the_model_on_encoded_and_mutated_messages(
        msg in message(),
        little: bool,
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let order = ByteOrder::from_flag(little);
        let bytes = model::encode(&msg, order);
        prop_assert_eq!(&msg.encode(order), &bytes);
        prop_assert_eq!(&msg.as_view().encode(order), &bytes);
        agree(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                agree(&b);
            }
        }
        for n in 0..bytes.len() {
            agree(&bytes[..n]);
            if n >= GIOP_HEADER_LEN {
                agree(&sized(bytes[..n].to_vec(), order));
            }
        }
        let mut longer = bytes.clone();
        longer.extend_from_slice(&junk);
        agree(&longer);
        agree(&sized(longer, order));
    }

    /// Garbage up to 1 KiB, bare and behind a valid header of every type
    /// that declares it as the body.
    #[test]
    fn prop_view_agrees_with_the_model_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..1024),
        little: bool,
        more: bool,
    ) {
        agree(&garbage);
        let order = ByteOrder::from_flag(little);
        for t in MsgType::ALL {
            let mut hdr = GiopHeader::new(t, order, 0);
            hdr.more_fragments = more;
            let mut w = CdrWriter::new(order);
            hdr.encode(&mut w);
            let mut b = w.into_bytes();
            b.extend_from_slice(&garbage);
            agree(&sized(b, order));
        }
    }

    /// Fragments: each datagram a message splits into, and the message the
    /// assembler puts back together from them.
    #[test]
    fn prop_view_agrees_with_the_model_on_fragments(
        msg in message(),
        budget in 16usize..96,
        little: bool,
    ) {
        if msg.msg_type() == MsgType::Fragment {
            return; // a continuation is not a message to split
        }
        let order = ByteOrder::from_flag(little);
        let bytes = msg.encode(order);
        let mut asm = FragmentAssembler::new(1 << 16);
        let mut whole = None;
        for f in Fragmenter::new(budget).split(&bytes).unwrap() {
            agree(&f);
            whole = asm.push(0u8, Bytes::from(f)).unwrap().or(whole);
        }
        let whole = whole.unwrap();
        agree(&whole);
        prop_assert_eq!(
            GiopView::decode(&whole).ok().map(|v| v.to_owned()),
            model::decode(&bytes).ok()
        );
    }
}
