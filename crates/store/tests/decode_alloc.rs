//! A record's decoder allocates in proportion to the payload it was given,
//! never to a count the payload merely claims: a view record whose member
//! count is wild but whose CRC is valid (the corruption happened before
//! the checksum was taken) must not become a large allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ftmp_core::{GroupId, ProcessorId, Timestamp};
use ftmp_store::record::{crc32, decode_payload, encode_frame, FRAME_HEADER};
use ftmp_store::{LogRecord, ViewRecord};

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
