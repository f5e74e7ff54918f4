//! Record model and frame codec for the durable log.
//!
//! Every record travels in a self-checking frame:
//!
//! ```text
//!   [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload; `len` covers the payload only.
//! The payload starts with a one-byte record kind followed by fixed-width
//! little-endian fields, so decoding is strict: a payload that does not
//! consume exactly `len` bytes is corrupt. The frame carries no sequence
//! number — position in the segment chain *is* the order.

use bytes::Bytes;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};

/// Frame header size: length word + CRC word.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload; anything larger read back from
/// disk is treated as corruption, not an allocation request.
pub const MAX_RECORD: u32 = 1 << 24;

const KIND_DELIVERED: u8 = 1;
const KIND_VIEW: u8 = 2;

/// One event in the durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An ordered message delivered to the application (the
    /// [`ftmp_core::Delivery`] fields plus the GIOP body).
    Delivered(DeliveredRecord),
    /// A membership view installed locally.
    ViewChange(ViewRecord),
}

/// A delivered ordered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredRecord {
    /// Processor group the message was ordered in.
    pub group: GroupId,
    /// Logical connection it belongs to.
    pub conn: ConnectionId,
    /// End-to-end request number (§4 duplicate suppression key).
    pub request_num: RequestNum,
    /// Sending processor.
    pub source: ProcessorId,
    /// RMP sequence number at the source.
    pub seq: SeqNum,
    /// Message timestamp (§6 total-order position).
    pub ts: Timestamp,
    /// The delivered GIOP body.
    pub giop: Bytes,
}

/// A locally installed membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRecord {
    /// The processor group.
    pub group: GroupId,
    /// Members of the new view.
    pub members: Vec<ProcessorId>,
    /// The membership timestamp identifying the view.
    pub ts: Timestamp,
}

// --- CRC-32 (IEEE 802.3, poly 0xEDB88320, reflected). Two routines compute
// the same value: a carry-less-multiply folding kernel for inputs of at
// least `FOLD_MIN` bytes on an x86-64 with PCLMULQDQ and SSE4.1, and the
// slice-by-8 table routine everywhere else (short inputs, other targets,
// and the kernel's own sub-16-byte tail).
//
// The slice-by-8 tables are generated at compile time. `CRC_TABLES[0]` is
// the classic one-byte table; table `k` advances a byte's contribution
// through `k` further zero bytes, so eight look-ups retire eight input
// bytes per step instead of one.

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Shortest input the folding kernel takes: its first step loads four
/// 16-byte lanes, and it needs a further 64 bytes before folding pays.
const FOLD_MIN: usize = 128;

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN {
        if let Some(c) = fold::crc32(bytes) {
            return c;
        }
    }
    crc32_tables(0, bytes)
}

/// CRC-32 (IEEE) of `bytes` continued from `prev`, the CRC of whatever
/// preceded them (0 for none), eight bytes per step.
fn crc32_tables(prev: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !prev;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The folding kernel (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009), bit-reflected
/// form, with the constants the Linux kernel, zlib-ng and crc32fast use.
///
/// Four 128-bit lanes absorb 64 bytes per step, each lane's halves
/// multiplied forward by x^(4·128±32) mod P; the lanes then fold into one,
/// which takes the remaining whole 16-byte blocks at x^(128±32); the
/// 128-bit remainder is cut to 64 bits, and a Barrett reduction yields the
/// 32-bit CRC. The bytes after the last whole block go through
/// [`crc32_tables`]. This module holds the crate's only `unsafe`.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P, bit-reflected: fold by four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: fold by one lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: 96 bits down to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P and μ = ⌊x^64 / P⌋, bit-reflected, for the Barrett step.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// CRC-32 of `data` (at least [`super::FOLD_MIN`] bytes), or `None`
    /// when this CPU lacks the instructions the kernel needs.
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: both target features `kernel` enables were just detected
        // on this CPU.
        Some(unsafe { kernel(data) })
    }

    /// The kernel proper; `data` holds at least four lanes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn kernel(mut data: &[u8]) -> u32 {
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The initial CRC register, all ones, enters with the first lane.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(!0));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold128(x3, load(&mut data), k1k2);
            x2 = fold128(x2, load(&mut data), k1k2);
            x1 = fold128(x1, load(&mut data), k1k2);
            x0 = fold128(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold128(x3, x2, k3k4);
        x = fold128(x, x1, k3k4);
        x = fold128(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold128(x, load(&mut data), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and in the
        // reflected form the CRC register is the second word of R ^ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let register = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_tables(!register, data)
    }

    /// `a` multiplied forward by the constant pair in `k`, plus `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The next 16 bytes of `data` as a lane, advancing `data` past them.
    fn load(data: &mut &[u8]) -> __m128i {
        let (block, rest) = data.split_at(16);
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        let lane = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
        *data = rest;
        lane
    }
}

// --- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append the payload encoding of `r` (kind byte + fields, no frame).
pub fn encode_payload(r: &LogRecord, out: &mut Vec<u8>) {
    match r {
        LogRecord::Delivered(d) => {
            out.push(KIND_DELIVERED);
            put_u32(out, d.group.0);
            put_u32(out, d.conn.client.domain.0);
            put_u32(out, d.conn.client.group);
            put_u32(out, d.conn.server.domain.0);
            put_u32(out, d.conn.server.group);
            put_u64(out, d.request_num.0);
            put_u32(out, d.source.0);
            put_u64(out, d.seq.0);
            put_u64(out, d.ts.0);
            put_u32(out, d.giop.len() as u32);
            out.extend_from_slice(&d.giop);
        }
        LogRecord::ViewChange(v) => {
            out.push(KIND_VIEW);
            put_u32(out, v.group.0);
            put_u64(out, v.ts.0);
            put_u32(out, v.members.len() as u32);
            for m in &v.members {
                put_u32(out, m.0);
            }
        }
    }
}

/// Append the full self-checking frame (`[len][crc][payload]`) of `r`.
pub fn encode_frame(r: &LogRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    encode_payload(r, out);
    let payload = &out[start + FRAME_HEADER..];
    let len = payload.len() as u32;
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

// --- decode

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// The next `n` bytes as a range of the buffer.
    fn span(&mut self, n: usize) -> Option<std::ops::Range<usize>> {
        let span = self.at..self.at + n;
        self.buf.get(span.clone())?;
        self.at = span.end;
        Some(span)
    }
}

/// Decode one record payload. `None` means the payload is corrupt: unknown
/// kind, short fields, or trailing garbage (decoding must consume exactly
/// the payload). A delivered record's `giop` is a slice of `payload`, not
/// a copy: it shares (and keeps alive) the buffer `payload` views.
pub fn decode_payload(payload: &Bytes) -> Option<LogRecord> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let rec = match c.u8()? {
        KIND_DELIVERED => {
            let group = GroupId(c.u32()?);
            let client = ObjectGroupId::new(c.u32()?, c.u32()?);
            let server = ObjectGroupId::new(c.u32()?, c.u32()?);
            let request_num = RequestNum(c.u64()?);
            let source = ProcessorId(c.u32()?);
            let seq = SeqNum(c.u64()?);
            let ts = Timestamp(c.u64()?);
            let giop_len = c.u32()? as usize;
            let giop = payload.slice(c.span(giop_len)?);
            LogRecord::Delivered(DeliveredRecord {
                group,
                conn: ConnectionId::new(client, server),
                request_num,
                source,
                seq,
                ts,
                giop,
            })
        }
        KIND_VIEW => {
            let group = GroupId(c.u32()?);
            let ts = Timestamp(c.u64()?);
            let n = c.u32()? as usize;
            // The ids fill the rest of the payload exactly; checked before
            // allocating, so a corrupt count costs nothing.
            if n.checked_mul(4) != Some(payload.len() - c.at) {
                return None;
            }
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(ProcessorId(c.u32()?));
            }
            LogRecord::ViewChange(ViewRecord { group, members, ts })
        }
        _ => return None,
    };
    (c.at == payload.len()).then_some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference both routines are checked against: one look-up in the
    /// classic table per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn both_routines_match_the_bytewise_reference_at_every_length_and_alignment() {
        // Every length up to 1 KiB covers the switch to the kernel at
        // `FOLD_MIN`, each count of 64-byte fold steps and 16-byte folds,
        // and each sub-16-byte tail; every start offset within a lane
        // covers unaligned loads.
        let data: Vec<u8> = (0..1024 + 16u32)
            .map(|i| ((i * 37 + 11) ^ (i >> 5)) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "crc32: start {start} len {len}");
                assert_eq!(crc32_tables(0, s), want, "tables: start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_crc32_matches_the_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=(64 << 10)),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    fn delivered(n: u64) -> LogRecord {
        LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1),
            conn: ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2)),
            request_num: RequestNum(n),
            source: ProcessorId(3),
            seq: SeqNum(n * 2),
            ts: Timestamp(n * 10),
            giop: Bytes::from(vec![n as u8; 16]),
        })
    }

    #[test]
    fn payload_roundtrip() {
        for r in [
            delivered(7),
            LogRecord::ViewChange(ViewRecord {
                group: GroupId(9),
                members: vec![ProcessorId(1), ProcessorId(2)],
                ts: Timestamp(55),
            }),
        ] {
            let mut buf = Vec::new();
            encode_payload(&r, &mut buf);
            assert_eq!(decode_payload(&Bytes::from(buf)), Some(r));
        }
    }

    #[test]
    fn frame_carries_matching_crc() {
        let mut buf = Vec::new();
        encode_frame(&delivered(1), &mut buf);
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        assert_eq!(len, buf.len() - FRAME_HEADER);
        assert_eq!(crc, crc32(&buf[FRAME_HEADER..]));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut buf = Vec::new();
        encode_payload(&delivered(1), &mut buf);
        buf.push(0);
        assert_eq!(decode_payload(&Bytes::from(buf)), None);
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926, the standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }
}
