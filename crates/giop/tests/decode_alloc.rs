//! A GIOP decode allocates in proportion to the message it was given, never
//! to a count or length the message merely claims: a Request, Reply,
//! LocateRequest or IOR whose service-context count, profile count,
//! octet-sequence prefix or string prefix is wild must not become a large
//! allocation, whether the rest of the message can fill the claim or not.
//!
//! The view allocates nothing at all; the owned decode (the view plus its
//! copy-out) and the IOR decode at most [`ALLOC_PER_INPUT_BYTE`] times the
//! input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftmp_cdr::{ByteOrder, CdrWriter};
use ftmp_giop::{GiopHeader, GiopMessage, GiopView, Ior, MsgType, GIOP_HEADER_LEN};

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

/// The bound on the owned decodes: a service context or tagged profile is
/// at least eight octets on the wire and 32 bytes in memory, hence four.
const ALLOC_PER_INPUT_BYTE: usize = 4;

/// What a length prefix counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Prefix {
    /// Entries of at least eight octets (service contexts, profiles).
    Entries,
    /// Octets (an octet sequence).
    Octets,
    /// Octets of a string, its NUL included.
    String,
}

/// One message with the offsets of its length prefixes.
struct Template {
    name: &'static str,
    order: ByteOrder,
    /// A GIOP message, whose header size follows its length; else an IOR.
    giop: bool,
    bytes: Vec<u8>,
    prefixes: Vec<(usize, Prefix)>,
}

/// Records where each prefix lands as a template is written.
struct Recorder {
    w: CdrWriter,
    prefixes: Vec<(usize, Prefix)>,
}

impl Recorder {
    fn new(order: ByteOrder) -> Self {
        Recorder {
            w: CdrWriter::new(order),
            prefixes: Vec::new(),
        }
    }

    fn prefix(&mut self, kind: Prefix, value: u32) {
        self.w.align(4);
        self.prefixes.push((self.w.position(), kind));
        self.w.write_u32(value);
    }

    fn octets(&mut self, data: &[u8]) {
        self.prefix(Prefix::Octets, data.len() as u32);
        self.w.write_bytes(data);
    }

    fn string(&mut self, s: &str) {
        self.prefix(Prefix::String, s.len() as u32 + 1);
        self.w.write_bytes(s.as_bytes());
        self.w.write_u8(0);
    }

    fn giop(mut self, name: &'static str, order: ByteOrder) -> Template {
        let size = (self.w.len() - GIOP_HEADER_LEN) as u32;
        self.w.patch_u32(8, size);
        Template {
            name,
            order,
            giop: true,
            bytes: self.w.into_bytes(),
            prefixes: self.prefixes,
        }
    }
}

fn templates(order: ByteOrder) -> Vec<Template> {
    let header = |t: MsgType| {
        let mut r = Recorder::new(order);
        GiopHeader::new(t, order, 0).encode(&mut r.w);
        r
    };
    let mut out = Vec::new();

    let mut r = header(MsgType::Request);
    r.prefix(Prefix::Entries, 1);
    r.w.write_u32(0x4654_0001);
    r.octets(&[1, 2, 3]);
    r.w.write_u32(77);
    r.w.write_bool(true);
    r.octets(b"bank/account/7");
    r.string("deposit");
    r.octets(b"p");
    r.w.write_bytes(&[0, 0, 0, 0, 0, 0, 0, 10]);
    out.push(r.giop("request", order));

    let mut r = header(MsgType::Reply);
    r.prefix(Prefix::Entries, 1);
    r.w.write_u32(9);
    r.octets(&[4, 5]);
    r.w.write_u32(77);
    r.w.write_u32(0);
    r.w.write_bytes(&[0, 0, 0, 0, 0, 0, 0, 110]);
    out.push(r.giop("reply", order));

    let mut r = header(MsgType::LocateRequest);
    r.w.write_u32(8);
    r.octets(b"bank");
    out.push(r.giop("locate_request", order));

    let mut r = Recorder::new(order);
    r.w.write_u8(u8::from(order.as_flag()));
    r.string("IDL:Bank/Account:1.0");
    r.prefix(Prefix::Entries, 2);
    r.w.write_u32(0);
    r.octets(&[0, 1, 0, 0, 0, 0, 0, 4]);
    r.w.write_u32(0x4654_4D50);
    r.octets(&[1, 2, 3, 4, 5]);
    out.push(Template {
        name: "ior",
        order,
        giop: false,
        bytes: r.w.into_bytes(),
        prefixes: r.prefixes,
    });
    out
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32, order: ByteOrder) {
    let b = match order {
        ByteOrder::Big => v.to_be_bytes(),
        ByteOrder::Little => v.to_le_bytes(),
    };
    bytes[at..at + 4].copy_from_slice(&b);
}

fn get_u32(bytes: &[u8], at: usize, order: ByteOrder) -> u32 {
    let b = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
    match order {
        ByteOrder::Big => u32::from_be_bytes(b),
        ByteOrder::Little => u32::from_le_bytes(b),
    }
}

/// Every wild variant of a template: each prefix claiming `u32::MAX` or
/// 2^20 with a tail of 0-8192 octets after the message, or exactly what
/// that many octets inserted right after it hold (entries and octets
/// ahead of the original ones, so the message stays well formed).
fn variants(t: &Template) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for &(at, kind) in &t.prefixes {
        for tail in [0usize, 1, 7, 8, 64, 1000, 1024, 8192] {
            for claim in [u32::MAX, 1 << 20] {
                let mut b = t.bytes.clone();
                b.resize(b.len() + tail, 0);
                put_u32(&mut b, at, claim, t.order);
                out.push(b);
            }
            if tail % 8 != 0 {
                continue;
            }
            let original = get_u32(&t.bytes, at, t.order);
            let (fill, claim) = match kind {
                Prefix::Entries => (0u8, original + (tail / 8) as u32),
                Prefix::Octets => (0xA5, original + tail as u32),
                Prefix::String => (b'a', original + tail as u32),
            };
            let mut b = t.bytes.clone();
            b.splice(at + 4..at + 4, std::iter::repeat_n(fill, tail));
            put_u32(&mut b, at, claim, t.order);
            out.push(b);
        }
    }
    if t.giop {
        for b in &mut out {
            let size = (b.len() - GIOP_HEADER_LEN) as u32;
            put_u32(b, 8, size, t.order);
        }
    }
    out
}

#[test]
fn wild_prefixes_allocate_nothing_in_the_view_and_at_most_four_times_the_input_owned() {
    let mut decoded = 0;
    let mut largest = 0;
    for order in [ByteOrder::Big, ByteOrder::Little] {
        for t in templates(order) {
            let bound = |b: &[u8]| ALLOC_PER_INPUT_BYTE * b.len();
            if t.giop {
                assert!(GiopView::decode(&t.bytes).is_ok(), "{} decodes", t.name);
            } else {
                assert!(Ior::from_bytes(&t.bytes).is_ok(), "{} decodes", t.name);
            }
            for b in variants(&t) {
                if t.giop {
                    let (n, ok) = allocated(|| GiopView::decode(&b).is_ok());
                    assert_eq!(n, 0, "{} ({} bytes): the view allocated", t.name, b.len());
                    let (n, owned) = allocated(|| GiopMessage::decode(&b).is_ok());
                    assert_eq!(ok, owned, "{}: the owned decode is the view's", t.name);
                    assert!(n <= bound(&b), "{}: {n} bytes for {}", t.name, b.len());
                    decoded += usize::from(ok);
                    largest = largest.max(n);
                } else {
                    let (n, ok) = allocated(|| Ior::from_bytes(&b).is_ok());
                    assert!(n <= bound(&b), "{}: {n} bytes for {}", t.name, b.len());
                    decoded += usize::from(ok);
                    largest = largest.max(n);
                }
            }
        }
    }
    // The claims that the input can hold were decoded, and the biggest of
    // them (1024 empty service contexts or profiles) was copied out.
    assert!(decoded >= 40, "only {decoded} variants decoded");
    assert!(
        largest >= 1024 * 32,
        "largest owned decode was {largest} bytes"
    );
}
