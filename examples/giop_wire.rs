//! The Fig. 2 encapsulation, byte by byte: a GIOP Request marshalled with
//! CDR, wrapped in an FTMP Regular message.
//!
//! ```text
//! cargo run --example giop_wire
//! ```

use bytes::Bytes;
use ftmp::cdr::ByteOrder;
use ftmp::core::wire::{FtmpBody, FtmpMessage, FTMP_HEADER_LEN};
use ftmp::core::{
    ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use ftmp::giop::{GiopMessage, RequestHeader, GIOP_HEADER_LEN};

fn hexdump(bytes: &[u8], highlight: &[(usize, usize, &str)]) {
    for (off, chunk) in bytes.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        let base = off * 16;
        let label = highlight
            .iter()
            .find(|(s, e, _)| base >= *s && base < *e)
            .map(|(_, _, l)| *l)
            .unwrap_or("");
        println!("{base:5}  {:<47}  |{ascii:<16}|  {label}", hex.join(" "));
    }
}

fn main() {
    // The GIOP Request: deposit(42) on bank/account/7.
    let mut args = ftmp::cdr::CdrWriter::new(ByteOrder::Big);
    args.write_i64(42);
    let giop = GiopMessage::Request {
        header: RequestHeader {
            service_context: vec![],
            request_id: 1,
            response_expected: true,
            object_key: b"bank/account/7".to_vec(),
            operation: "deposit".into(),
            requesting_principal: vec![],
        },
        body: args.into_bytes(),
    }
    .encode(ByteOrder::Big);

    // Wrapped in an FTMP Regular message (Fig. 2).
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
    let msg = FtmpMessage {
        retransmission: false,
        source: ProcessorId(3),
        group: GroupId(7),
        seq: SeqNum(12),
        ts: Timestamp(3_456),
        ack_ts: Timestamp(3_400),
        body: FtmpBody::Regular {
            conn,
            request_num: RequestNum(9),
            giop: Bytes::from(giop.clone()),
        },
    };
    let wire = msg.encode(ByteOrder::Big);
    let giop_at = wire
        .windows(4)
        .position(|w| w == b"GIOP")
        .expect("GIOP magic present");

    println!("Fig. 2 encapsulation — IP | FTMP header | GIOP header | data\n");
    println!(
        "FTMP header: {FTMP_HEADER_LEN} B   Regular preamble (conn id, request num, len): {} B",
        giop_at - FTMP_HEADER_LEN - 4 // the octet-seq length prefix sits before GIOP
    );
    println!(
        "GIOP message: {} B (fixed header {GIOP_HEADER_LEN} B)   total FTMP datagram: {} B\n",
        giop.len(),
        wire.len()
    );
    hexdump(
        &wire,
        &[
            (0, FTMP_HEADER_LEN, "<- FTMP header"),
            (FTMP_HEADER_LEN, giop_at, "<- Regular body preamble"),
            (giop_at, giop_at + GIOP_HEADER_LEN + 16, "<- GIOP message"),
        ],
    );

    // Round-trip sanity.
    let back = FtmpMessage::decode_shared(&wire).expect("decodes");
    match back.body {
        FtmpBody::Regular {
            giop: g,
            request_num,
            ..
        } => {
            assert_eq!(g.as_ref(), &giop[..]);
            assert_eq!(request_num, RequestNum(9));
            let parsed = GiopMessage::decode(&g).expect("GIOP decodes");
            println!(
                "\ndecoded back: {:?} request_id={:?}",
                parsed.msg_type(),
                parsed.request_id()
            );
        }
        _ => unreachable!(),
    }
}
