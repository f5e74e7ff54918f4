//! A record's decoder allocates in proportion to the payload it was given,
//! never to a count the payload merely claims: a view record whose member
//! count is wild but whose CRC is valid (the corruption happened before
//! the checksum was taken) must not become a large allocation. Both codecs,
//! the delivery log's and the observation trace's; and the trace reader,
//! which reads another process's files, on garbage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ftmp_core::observe::Observation;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use ftmp_store::log::{list_segments, SEGMENT_HEADER};
use ftmp_store::record::{crc32, decode_payload, encode_frame, FRAME_HEADER, MAX_RECORD};
use ftmp_store::trace::{self, encode_observed, TraceRecord, TraceWriter};
use ftmp_store::{scratch_dir, LogRecord, ViewRecord};
use proptest::prelude::*;

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

/// A view payload: kind, group, timestamp, the claimed count, then `ids`.
fn view_payload(count: u32, ids: &[u32]) -> Bytes {
    let mut p = vec![2u8];
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&55u64.to_le_bytes());
    p.extend_from_slice(&count.to_le_bytes());
    for id in ids {
        p.extend_from_slice(&id.to_le_bytes());
    }
    Bytes::from(p)
}

#[test]
fn a_wild_member_count_allocates_nothing_it_cannot_fill() {
    for count in [1u32 << 20, u32::MAX, 3] {
        let payload = view_payload(count, &[]);
        assert_eq!(payload.len(), 17);
        let (bytes, rec) = allocated(|| decode_payload(&payload));
        assert_eq!(rec, None, "count {count}");
        assert!(
            bytes <= 4 * payload.len(),
            "count {count}: {bytes} bytes allocated"
        );
    }
    // One id short of the claim, and one over: corrupt either way.
    for ids in [&[1, 2][..], &[1, 2, 3, 4]] {
        let payload = view_payload(3, ids);
        assert_eq!(allocated(|| decode_payload(&payload)), (0, None));
    }
}

#[test]
fn a_framed_view_decodes_within_its_own_size() {
    let view = LogRecord::ViewChange(ViewRecord {
        group: GroupId(1),
        members: vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)],
        ts: Timestamp(55),
    });
    let mut frame = Vec::new();
    encode_frame(&view, &mut frame);
    let payload = Bytes::copy_from_slice(&frame[FRAME_HEADER..]);
    assert_eq!(payload, view_payload(3, &[1, 2, 3]));
    assert_eq!(frame[4..8], crc32(&payload).to_le_bytes());
    let (bytes, rec) = allocated(|| decode_payload(&payload));
    assert_eq!(rec, Some(view));
    assert!(
        bytes <= payload.len(),
        "{bytes} bytes for a {}-byte payload",
        payload.len()
    );
}

/// Any observation, every variant and field drawn.
fn observation() -> impl Strategy<Value = Observation> {
    let ids = (any::<u32>(), any::<u64>(), any::<u64>());
    let conn = (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>());
    let members = proptest::collection::vec(any::<u32>(), 0..12);
    (0u8..8, any::<u32>(), ids, conn, members, any::<usize>()).prop_map(
        |(kind, group, (p, a, b), (cd, cg, sd, sg), members, count)| {
            let group = GroupId(group);
            let (p, seq, ts) = (ProcessorId(p), SeqNum(a), Timestamp(b));
            match kind {
                0 => Observation::Delivered {
                    group,
                    conn: ConnectionId::new(ObjectGroupId::new(cd, cg), ObjectGroupId::new(sd, sg)),
                    request: RequestNum(b ^ a),
                    source: p,
                    seq,
                    ts,
                },
                1 => Observation::ViewInstalled {
                    group,
                    members: members.into_iter().map(ProcessorId).collect(),
                    ts,
                },
                2 => Observation::Sent { group, seq, ts },
                3 => Observation::Acked {
                    group,
                    member: p,
                    ts,
                },
                4 => Observation::Retained {
                    group,
                    source: p,
                    seq,
                    ts,
                },
                5 => Observation::Reclaimed {
                    group,
                    stable_ts: ts,
                    count,
                },
                6 => Observation::Suspected { group, suspect: p },
                _ => Observation::Convicted {
                    group,
                    convicted: p,
                },
            }
        },
    )
}

fn observed_payload(at: u64, obs: &Observation) -> Vec<u8> {
    let mut p = Vec::new();
    encode_observed(at, obs, &mut p);
    p
}

#[test]
fn a_wild_member_count_in_a_trace_view_allocates_nothing() {
    let view = Observation::ViewInstalled {
        group: GroupId(1),
        members: vec![ProcessorId(1), ProcessorId(2)],
        ts: Timestamp(5),
    };
    let good = observed_payload(7, &view);
    // The count sits right before the two ids.
    let count_at = good.len() - 8 - 4;
    for count in [1u32 << 20, u32::MAX, 3, 1] {
        let mut p = good.clone();
        p[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        assert_eq!(
            allocated(|| trace::decode_payload(&p)),
            (0, None),
            "count {count}"
        );
    }
}

proptest! {
    #[test]
    fn prop_every_observation_round_trips(obs in observation(), at in any::<u64>()) {
        let p = observed_payload(at, &obs);
        let (bytes, rec) = allocated(|| trace::decode_payload(&p));
        prop_assert!(bytes <= p.len(), "{} bytes for {} of payload", bytes, p.len());
        prop_assert_eq!(rec, Some(TraceRecord::Observed(at, obs)));
    }

    /// A flipped bit or a cut in a record: decoded to something or refused,
    /// within the payload's own size either way.
    #[test]
    fn prop_a_damaged_observation_record_stays_within_its_size(
        obs in observation(),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mut p = observed_payload(1, &obs);
        let bit = bit % (p.len() * 8);
        p[bit / 8] ^= 1 << (bit % 8);
        p.truncate(p.len() - cut % 4);
        let (bytes, _) = allocated(|| trace::decode_payload(&p));
        prop_assert!(bytes <= p.len(), "{} bytes for {} of payload", bytes, p.len());
    }

    /// Garbage led by each record kind in turn, so it gets past the kind
    /// byte.
    #[test]
    fn prop_garbage_behind_a_kind_stays_within_its_size(
        kind in prop_oneof![0x10u8..0x12, 0x20u8..0x28],
        rest in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut p = vec![kind];
        p.extend_from_slice(&rest);
        let (bytes, _) = allocated(|| trace::decode_payload(&p));
        prop_assert!(bytes <= p.len());
    }

    /// A trace whose frames after the open record are garbage — a frame
    /// header claiming up to `MAX_RECORD` bytes among them — reads as an
    /// error or a torn tail, and the reader allocates what the file holds,
    /// never what a header claims.
    #[test]
    fn prop_the_reader_on_garbage_allocates_what_the_file_holds(
        claim in 0u32..=MAX_RECORD,
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = scratch_dir("trace-garbage").join("t.trc");
        let mut w = TraceWriter::create(&dir, 1, 0).unwrap();
        w.flush().unwrap();
        let seg = list_segments(&dir).unwrap()[0].1.clone();
        let mut bytes = std::fs::read(&seg).unwrap();
        prop_assert!(bytes.len() > SEGMENT_HEADER + FRAME_HEADER);
        bytes.extend_from_slice(&claim.to_le_bytes());
        bytes.extend_from_slice(&garbage);
        std::fs::write(&seg, &bytes).unwrap();
        let (allocs, read) = allocated(|| trace::read(&dir, |_, _| {}).map(|i| i.torn_tail));
        prop_assert!(matches!(read, Ok(true) | Err(_)), "{:?}", read);
        prop_assert!(allocs <= 4 * bytes.len() + 4096, "{} bytes for a {}-byte file", allocs, bytes.len());
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }
}
