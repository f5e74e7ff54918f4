//! Alignment-aware CDR encoder.

use crate::ByteOrder;

/// An alignment-aware CDR encoder.
///
/// CDR aligns every primitive to its natural size *relative to the start of
/// the stream* (not the start of the enclosing message or allocation), so the
/// writer tracks a logical stream offset. When a GIOP body follows a GIOP
/// header in the same stream the caller keeps using one writer; when a CDR
/// encapsulation is nested, a fresh writer (offset 0) is used — see
/// [`crate::encapsulation`].
#[derive(Debug, Clone)]
pub struct CdrWriter {
    buf: Vec<u8>,
    order: ByteOrder,
    /// Stream offset of `buf[0]`; non-zero when this writer continues an
    /// outer stream (used by GIOP fragmentation).
    base: usize,
}

impl CdrWriter {
    /// Create a writer starting at stream offset 0.
    #[inline]
    pub fn new(order: ByteOrder) -> Self {
        Self::with_base(order, 0)
    }

    /// Create a writer whose first byte sits at stream offset `base`.
    ///
    /// Alignment is computed against `base + buf.len()`.
    #[inline]
    pub fn with_base(order: ByteOrder, base: usize) -> Self {
        CdrWriter {
            buf: Vec::new(),
            order,
            base,
        }
    }

    /// Create a writer at stream offset 0 with `capacity` bytes
    /// pre-reserved, for callers that can bound the encoded size up front
    /// (no buffer growth during the encode).
    #[inline]
    pub fn with_capacity(order: ByteOrder, capacity: usize) -> Self {
        CdrWriter {
            buf: Vec::with_capacity(capacity),
            order,
            base: 0,
        }
    }

    /// Byte order this writer emits.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Clear contents and switch byte order, keeping the allocation.
    ///
    /// For callers that hold one writer as an encode scratch across many
    /// messages: steady-state encodes then reuse the grown buffer instead
    /// of allocating per message.
    pub fn reset(&mut self, order: ByteOrder) {
        self.buf.clear();
        self.order = order;
        self.base = 0;
    }

    /// Current logical stream offset (where the next byte will land).
    #[inline]
    pub fn position(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Number of bytes written into this writer's own buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Insert padding so the next primitive of size `align` is naturally
    /// aligned. CDR pads with zero octets; their value is formally
    /// unspecified but zero keeps streams canonical and comparable.
    #[inline]
    pub fn align(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two() && align <= 8);
        let pos = self.position();
        let pad = (align - (pos % align)) % align;
        for _ in 0..pad {
            self.buf.push(0);
        }
    }

    /// Append raw bytes with no alignment (octet sequences).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// CORBA `octet`.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// CORBA `char` (we restrict to ISO 8859-1 / ASCII octets).
    pub fn write_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// CORBA `boolean`: one octet, 0 or 1.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// CORBA `unsigned short`.
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        match self.order {
            ByteOrder::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// CORBA `short`.
    pub fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }

    /// CORBA `unsigned long`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        match self.order {
            ByteOrder::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// CORBA `long`.
    pub fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    /// CORBA `unsigned long long`.
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        match self.order {
            ByteOrder::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// CORBA `long long`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// CORBA `float`.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// CORBA `double`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// CORBA `string`: `unsigned long` length *including* the terminating
    /// NUL, then the octets, then the NUL.
    #[inline]
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(s.len() as u32 + 1);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// CORBA `sequence<octet>`: `unsigned long` count then raw octets.
    #[inline]
    pub fn write_octet_seq(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Reserve space for a `u32` at the current (4-aligned) position and
    /// return its buffer index, to be patched later with [`patch_u32`].
    ///
    /// GIOP uses this for the `message_size` field, which is only known once
    /// the body has been written.
    ///
    /// [`patch_u32`]: CdrWriter::patch_u32
    pub fn reserve_u32(&mut self) -> usize {
        self.align(4);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        at
    }

    /// Overwrite 4 bytes at buffer index `at` (from [`reserve_u32`]) with `v`.
    ///
    /// [`reserve_u32`]: CdrWriter::reserve_u32
    #[inline]
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        let bytes = match self.order {
            ByteOrder::Big => v.to_be_bytes(),
            ByteOrder::Little => v.to_le_bytes(),
        };
        self.buf[at..at + 4].copy_from_slice(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_relative_to_stream_start() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_u8(1); // offset 0
        w.write_u32(0xAABBCCDD); // pads to offset 4
        assert_eq!(w.as_bytes(), &[1, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn alignment_respects_base_offset() {
        // A writer continuing at stream offset 2 only needs 2 pad bytes to
        // align a u32.
        let mut w = CdrWriter::with_base(ByteOrder::Big, 2);
        w.write_u32(1);
        assert_eq!(w.len(), 6); // 2 pad + 4 value
        assert_eq!(w.position(), 8);
    }

    #[test]
    fn little_endian_layout() {
        let mut w = CdrWriter::new(ByteOrder::Little);
        w.write_u16(0x0102);
        w.write_u64(0x0102030405060708);
        // u16 at 0..2, pad 2..8, u64 at 8..16
        assert_eq!(w.len(), 16);
        assert_eq!(&w.as_bytes()[..2], &[0x02, 0x01]);
        assert_eq!(w.as_bytes()[8], 0x08);
        assert_eq!(w.as_bytes()[15], 0x01);
    }

    #[test]
    fn string_includes_nul() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_string("hi");
        assert_eq!(w.as_bytes(), &[0, 0, 0, 3, b'h', b'i', 0]);
    }

    #[test]
    fn empty_string_is_len_one_nul() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_string("");
        assert_eq!(w.as_bytes(), &[0, 0, 0, 1, 0]);
    }

    #[test]
    fn reserve_and_patch() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_u8(9);
        let at = w.reserve_u32();
        w.write_u8(7);
        w.patch_u32(at, 0xDEADBEEF);
        assert_eq!(w.as_bytes(), &[9, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 7]);
    }

    #[test]
    fn floats_round_through_bits() {
        let mut w = CdrWriter::new(ByteOrder::Little);
        w.write_f32(1.5);
        w.write_f64(-2.25);
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn with_capacity_reserves_without_changing_output() {
        let mut a = CdrWriter::new(ByteOrder::Big);
        let mut b = CdrWriter::with_capacity(ByteOrder::Big, 64);
        assert!(b.is_empty());
        for w in [&mut a, &mut b] {
            w.write_u8(1);
            w.write_u64(7);
            w.write_string("same");
        }
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert!(b.into_bytes().capacity() >= 64, "reservation kept");
    }

    #[test]
    fn bool_encodes_single_octet() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_bool(true);
        w.write_bool(false);
        assert_eq!(w.as_bytes(), &[1, 0]);
    }
}
