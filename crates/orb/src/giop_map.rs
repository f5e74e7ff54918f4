//! The concrete GIOP mapping: building and parsing the GIOP messages FTMP
//! carries (§3.1).
//!
//! The `(connection id, request number)` pair travels in the FTMP Regular
//! body, *not* in GIOP (§5: "the request num … is different from the
//! standard CORBA request id which applies to a physical connection"). The
//! GIOP `request_id` we emit is therefore just the low 32 bits of the
//! request number — enough for a conventional ORB on the receiving side to
//! match replies, while FTMP's pair provides the group-wide identity.

use ftmp_cdr::{ByteOrder, CdrReader, CdrWriter};
use ftmp_core::RequestNum;
use ftmp_giop::{
    GiopError, GiopView, LocateReplyHeader, LocateStatus, MsgType, ReplyStatus, ReplyView,
    RequestView, ServiceContexts,
};

/// The repository id an exception reply reads as when its body holds none.
const UNKNOWN_EXCEPTION: &str = "IDL:CORBA/UNKNOWN:1.0";

/// The GIOP request id for an FTMP request number: its low 32 bits.
fn request_id(num: RequestNum) -> u32 {
    num.0 as u32
}

/// Encode `view` in this host's byte order.
fn encode(view: GiopView<'_>) -> Vec<u8> {
    view.encode(ByteOrder::native())
}

/// Build a GIOP Request for `operation` on the object named `object_key`.
pub fn make_request(
    request_num: RequestNum,
    object_key: &[u8],
    operation: &str,
    args: &[u8],
    response_expected: bool,
) -> Vec<u8> {
    encode(GiopView::Request {
        header: RequestView {
            service_context: ServiceContexts::NONE,
            request_id: request_id(request_num),
            response_expected,
            object_key,
            operation,
            requesting_principal: &[],
        },
        body: args,
    })
}

/// A GIOP Reply with `status` and `body`.
fn reply(request_num: RequestNum, reply_status: ReplyStatus, body: &[u8]) -> Vec<u8> {
    encode(GiopView::Reply {
        header: ReplyView {
            service_context: ServiceContexts::NONE,
            request_id: request_id(request_num),
            reply_status,
        },
        body,
    })
}

/// Build a GIOP Reply carrying a successful result.
pub fn make_reply(request_num: RequestNum, result: &[u8]) -> Vec<u8> {
    reply(request_num, ReplyStatus::NoException, result)
}

/// Build a GIOP Reply carrying a user exception (repository id string as the
/// body prefix, per the CORBA exception marshalling convention).
pub fn make_exception_reply(request_num: RequestNum, repo_id: &str) -> Vec<u8> {
    let mut w = CdrWriter::new(ByteOrder::native());
    w.write_string(repo_id);
    reply(request_num, ReplyStatus::UserException, w.as_bytes())
}

/// A parsed inbound GIOP message, reduced to what the ORB endpoint needs;
/// every field borrows from the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inbound<'a> {
    /// A method invocation.
    Request {
        /// Target object key.
        object_key: &'a [u8],
        /// Operation name.
        operation: &'a str,
        /// CDR-encoded arguments.
        args: &'a [u8],
        /// Whether a Reply must be produced.
        response_expected: bool,
    },
    /// A successful result.
    Reply {
        /// CDR-encoded result.
        result: &'a [u8],
    },
    /// A user or system exception.
    ExceptionReply {
        /// Exception repository id (best-effort decode).
        repo_id: &'a str,
    },
    /// An object-location query.
    LocateRequest {
        /// The key being located.
        object_key: &'a [u8],
    },
    /// An object-location answer.
    LocateReply {
        /// Whether the object is served here.
        status: LocateStatus,
    },
    /// Cancellation of an outstanding request.
    CancelRequest,
    /// Any other GIOP message type (CloseConnection, MessageError, …).
    Other(MsgType),
}

/// Build a GIOP LocateRequest.
pub fn make_locate_request(request_num: RequestNum, object_key: &[u8]) -> Vec<u8> {
    encode(GiopView::LocateRequest {
        request_id: request_id(request_num),
        object_key,
    })
}

/// Build a GIOP LocateReply.
pub fn make_locate_reply(request_num: RequestNum, status: LocateStatus) -> Vec<u8> {
    encode(GiopView::LocateReply {
        header: LocateReplyHeader {
            request_id: request_id(request_num),
            locate_status: status,
        },
        body: &[],
    })
}

/// Build a GIOP CancelRequest.
pub fn make_cancel(request_num: RequestNum) -> Vec<u8> {
    encode(GiopView::CancelRequest {
        request_id: request_id(request_num),
    })
}

/// Build a GIOP CloseConnection.
pub fn make_close() -> Vec<u8> {
    encode(GiopView::CloseConnection)
}

/// Parse an inbound GIOP message in place: one [`GiopView::decode`], and
/// nothing copied.
pub fn parse(bytes: &[u8]) -> Result<Inbound<'_>, GiopError> {
    Ok(match GiopView::decode(bytes)? {
        GiopView::Request { header, body } => Inbound::Request {
            object_key: header.object_key,
            operation: header.operation,
            args: body,
            response_expected: header.response_expected,
        },
        GiopView::Reply { header, body } => match header.reply_status {
            ReplyStatus::NoException => Inbound::Reply { result: body },
            _ => Inbound::ExceptionReply {
                repo_id: CdrReader::new(body, ByteOrder::native())
                    .read_str()
                    .unwrap_or(UNKNOWN_EXCEPTION),
            },
        },
        GiopView::LocateRequest { object_key, .. } => Inbound::LocateRequest { object_key },
        GiopView::LocateReply { header, .. } => Inbound::LocateReply {
            status: header.locate_status,
        },
        GiopView::CancelRequest { .. } => Inbound::CancelRequest,
        other => Inbound::Other(other.msg_type()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let bytes = make_request(RequestNum(9), b"bank/1", "deposit", &[1, 2, 3], true);
        match parse(&bytes).unwrap() {
            Inbound::Request {
                object_key,
                operation,
                args,
                response_expected,
            } => {
                assert_eq!(object_key, b"bank/1");
                assert_eq!(operation, "deposit");
                assert_eq!(args, [1, 2, 3]);
                assert!(response_expected);
            }
            other => panic!("wrong parse {other:?}"),
        }
    }

    #[test]
    fn reply_round_trip() {
        let bytes = make_reply(RequestNum(9), &[7, 7]);
        assert_eq!(parse(&bytes).unwrap(), Inbound::Reply { result: &[7, 7] });
    }

    #[test]
    fn exception_reply_round_trip() {
        let bytes = make_exception_reply(RequestNum(9), "IDL:Bank/InsufficientFunds:1.0");
        match parse(&bytes).unwrap() {
            Inbound::ExceptionReply { repo_id } => {
                assert_eq!(repo_id, "IDL:Bank/InsufficientFunds:1.0");
            }
            other => panic!("wrong parse {other:?}"),
        }
    }

    #[test]
    fn other_messages_pass_through() {
        let bytes = ftmp_giop::GiopMessage::CloseConnection.encode(ByteOrder::Big);
        assert_eq!(
            parse(&bytes).unwrap(),
            Inbound::Other(ftmp_giop::MsgType::CloseConnection)
        );
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(parse(&[1, 2, 3]).is_err());
    }
}
