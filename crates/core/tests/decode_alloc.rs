//! A body decoder allocates in proportion to the message it was given,
//! never to a count the message merely claims: a Membership, AddProcessor,
//! OverlayDigest or ConnectRequest whose sequence-length prefix is wild must
//! not become a large allocation, whether the rest of the body can fill the
//! claim or not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ftmp_cdr::ByteOrder;
use ftmp_core::wire::{FtmpBody, FtmpMessage, FTMP_HEADER_LEN};
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, SeqNum, Timestamp};

/// The system allocator, counting the bytes this thread asks for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs, and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// The bound this test states: a decode allocates at most this many times
/// the length of the message it reads. A `Vec<ProcessorId>` prefix is
/// checked against one octet per element and each element takes four bytes
/// in memory, hence four.
const ALLOC_PER_INPUT_BYTE: usize = 4;

/// Every body under test with its sequences empty, and the body offsets of
/// their big-endian length prefixes.
fn bodies() -> Vec<(FtmpBody, &'static [usize])> {
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
    vec![
        (
            FtmpBody::Membership {
                membership_ts: Timestamp(5),
                membership: vec![],
                seqs: vec![],
                new_membership: vec![],
            },
            &[8, 12, 16],
        ),
        (
            FtmpBody::AddProcessor {
                membership_ts: Timestamp(5),
                membership: vec![],
                seqs: vec![],
                new_member: ProcessorId(4),
            },
            &[8, 12],
        ),
        (
            FtmpBody::OverlayDigest {
                solicit: false,
                entries: vec![],
            },
            &[4],
        ),
        (
            FtmpBody::ConnectRequest {
                conn,
                client_processors: vec![],
            },
            &[16],
        ),
    ]
}

/// `body` encoded, `tail` zero octets appended to it (the header's size
/// field following), and the length prefix at body offset `at` set to
/// `claim`.
fn claiming(body: &FtmpBody, tail: usize, at: usize, claim: u32) -> Bytes {
    let msg = FtmpMessage {
        retransmission: false,
        source: ProcessorId(2),
        group: GroupId(1),
        seq: SeqNum(1),
        ts: Timestamp(1),
        ack_ts: Timestamp(0),
        body: body.clone(),
    };
    let mut wire = msg.encode(ByteOrder::Big).to_vec();
    assert_eq!(
        wire[FTMP_HEADER_LEN + at..][..4],
        [0; 4],
        "a prefix at {at}"
    );
    wire.resize(wire.len() + tail, 0);
    let size = wire.len() as u32;
    wire[8..12].copy_from_slice(&size.to_be_bytes());
    wire[FTMP_HEADER_LEN + at..][..4].copy_from_slice(&claim.to_be_bytes());
    Bytes::from(wire)
}

#[test]
fn a_wild_sequence_length_allocates_within_the_message_length() {
    for (body, prefixes) in bodies() {
        for &at in prefixes {
            for tail in [0, 64, 1024, 8192] {
                // Wild, then what the tail could just hold at one, four,
                // twelve (a seqs entry) and 28 (a digest entry) octets each.
                for claim in [
                    u32::MAX as usize,
                    1 << 20,
                    4097,
                    tail,
                    tail / 4,
                    tail / 12,
                    tail / 28,
                ] {
                    let wire = claiming(&body, tail, at, claim as u32);
                    let (bytes, _) = allocated(|| FtmpMessage::decode_shared(&wire));
                    assert!(
                        bytes <= ALLOC_PER_INPUT_BYTE * wire.len(),
                        "{:?}, prefix at {at} claiming {claim} over {} bytes: {bytes} allocated",
                        body.msg_type(),
                        wire.len()
                    );
                }
            }
        }
    }
}

#[test]
fn an_honest_body_decodes_within_the_message_length() {
    let ids: Vec<ProcessorId> = (1..=64).map(ProcessorId).collect();
    let msg = FtmpMessage {
        retransmission: false,
        source: ProcessorId(2),
        group: GroupId(1),
        seq: SeqNum(1),
        ts: Timestamp(1),
        ack_ts: Timestamp(0),
        body: FtmpBody::Membership {
            membership_ts: Timestamp(5),
            membership: ids.clone(),
            seqs: ids.iter().map(|&p| (p, 9)).collect(),
            new_membership: ids,
        },
    };
    let wire = msg.encode(ByteOrder::Big);
    let (bytes, back) = allocated(|| FtmpMessage::decode_shared(&wire));
    assert_eq!(back, Ok(msg));
    assert!(
        bytes <= wire.len(),
        "{bytes} bytes for a {}-byte message",
        wire.len()
    );
}
