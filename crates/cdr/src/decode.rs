//! Alignment-aware CDR decoder.

use crate::{ByteOrder, CdrError};

/// An alignment-aware CDR decoder over a borrowed byte slice.
///
/// Mirrors [`crate::CdrWriter`]: every primitive read first skips padding to
/// its natural alignment, measured from the start of the stream (plus an
/// optional `base` offset for readers that continue an outer stream).
#[derive(Debug, Clone)]
pub struct CdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    order: ByteOrder,
    base: usize,
}

impl<'a> CdrReader<'a> {
    /// Create a reader at stream offset 0.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> Self {
        Self::with_base(buf, order, 0)
    }

    /// Create a reader whose first byte sits at stream offset `base`.
    pub fn with_base(buf: &'a [u8], order: ByteOrder, base: usize) -> Self {
        CdrReader {
            buf,
            pos: 0,
            order,
            base,
        }
    }

    /// Byte order this reader interprets.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Logical stream offset of the next byte.
    pub fn position(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the reader consumed the whole buffer.
    pub fn expect_exhausted(&self) -> Result<(), CdrError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CdrError::TrailingBytes(self.remaining()))
        }
    }

    /// Skip padding up to the given alignment.
    pub fn align(&mut self, align: usize) -> Result<(), CdrError> {
        debug_assert!(align.is_power_of_two() && align <= 8);
        let pos = self.position();
        let pad = (align - (pos % align)) % align;
        if pad > self.remaining() {
            return Err(CdrError::UnexpectedEof {
                at: self.position(),
                wanted: pad,
                available: self.remaining(),
            });
        }
        self.pos += pad;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        if n > self.remaining() {
            return Err(CdrError::UnexpectedEof {
                at: self.position(),
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read `n` raw bytes with no alignment.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        self.take(n)
    }

    /// CORBA `octet`.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        Ok(self.take(1)?[0])
    }

    /// CORBA `char`.
    pub fn read_i8(&mut self) -> Result<i8, CdrError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// CORBA `boolean`: strict, only 0 and 1 are accepted.
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::InvalidBool(b)),
        }
    }

    /// CORBA `unsigned short`.
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        self.align(2)?;
        let b = self.take(2)?;
        Ok(match self.order {
            ByteOrder::Big => u16::from_be_bytes([b[0], b[1]]),
            ByteOrder::Little => u16::from_le_bytes([b[0], b[1]]),
        })
    }

    /// CORBA `short`.
    pub fn read_i16(&mut self) -> Result<i16, CdrError> {
        Ok(self.read_u16()? as i16)
    }

    /// CORBA `unsigned long`.
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        self.align(4)?;
        let b = self.take(4)?;
        Ok(match self.order {
            ByteOrder::Big => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            ByteOrder::Little => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        })
    }

    /// CORBA `long`.
    pub fn read_i32(&mut self) -> Result<i32, CdrError> {
        Ok(self.read_u32()? as i32)
    }

    /// CORBA `unsigned long long`.
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        self.align(8)?;
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(match self.order {
            ByteOrder::Big => u64::from_be_bytes(a),
            ByteOrder::Little => u64::from_le_bytes(a),
        })
    }

    /// CORBA `long long`.
    pub fn read_i64(&mut self) -> Result<i64, CdrError> {
        Ok(self.read_u64()? as i64)
    }

    /// CORBA `float`.
    pub fn read_f32(&mut self) -> Result<f32, CdrError> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// CORBA `double`.
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// CORBA `string` (length includes the terminating NUL).
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        let len = self.read_u32()? as usize;
        if len == 0 {
            // CORBA strings are never zero-length on the wire (the NUL is
            // always counted) but some ORBs emit 0 for empty; accept it.
            return Ok(String::new());
        }
        if len > self.remaining() {
            return Err(CdrError::LengthOverrun {
                len: len as u64,
                available: self.remaining(),
            });
        }
        let bytes = self.take(len)?;
        let (body, nul) = bytes.split_at(len - 1);
        if nul != [0] || body.contains(&0) {
            return Err(CdrError::BadString);
        }
        String::from_utf8(body.to_vec()).map_err(|_| CdrError::InvalidUtf8)
    }

    /// CORBA `sequence<octet>`.
    pub fn read_octet_seq(&mut self) -> Result<Vec<u8>, CdrError> {
        let len = self.read_u32()? as usize;
        if len > self.remaining() {
            return Err(CdrError::LengthOverrun {
                len: len as u64,
                available: self.remaining(),
            });
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Read a sequence length prefix, validating it against a per-element
    /// minimum size so corrupt prefixes cannot trigger huge allocations.
    pub fn read_seq_len(&mut self, min_elem_size: usize) -> Result<usize, CdrError> {
        let len = self.read_u32()? as usize;
        if len.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(CdrError::LengthOverrun {
                len: len as u64,
                available: self.remaining(),
            });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdrWriter;

    fn round<F: FnOnce(&mut CdrWriter), G: FnOnce(&mut CdrReader<'_>)>(
        order: ByteOrder,
        enc: F,
        dec: G,
    ) {
        let mut w = CdrWriter::new(order);
        enc(&mut w);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, order);
        dec(&mut r);
        assert!(r.is_exhausted());
    }

    #[test]
    fn primitive_round_trip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            round(
                order,
                |w| {
                    w.write_u8(0xAB);
                    w.write_u16(0x1234);
                    w.write_u32(0xDEADBEEF);
                    w.write_u64(0x0102030405060708);
                    w.write_i32(-42);
                    w.write_bool(true);
                    w.write_f64(3.25);
                },
                |r| {
                    assert_eq!(r.read_u8().unwrap(), 0xAB);
                    assert_eq!(r.read_u16().unwrap(), 0x1234);
                    assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
                    assert_eq!(r.read_u64().unwrap(), 0x0102030405060708);
                    assert_eq!(r.read_i32().unwrap(), -42);
                    assert!(r.read_bool().unwrap());
                    assert_eq!(r.read_f64().unwrap(), 3.25);
                },
            );
        }
    }

    #[test]
    fn string_round_trip() {
        round(
            ByteOrder::Big,
            |w| w.write_string("object_key/α"),
            |r| assert_eq!(r.read_string().unwrap(), "object_key/α"),
        );
    }

    #[test]
    fn eof_detected_with_offsets() {
        let bytes = [0u8; 3];
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        let err = r.read_u32().unwrap_err();
        match err {
            CdrError::UnexpectedEof {
                wanted, available, ..
            } => {
                assert_eq!(wanted, 4);
                assert_eq!(available, 3);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [2u8];
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        assert_eq!(r.read_bool().unwrap_err(), CdrError::InvalidBool(2));
    }

    #[test]
    fn corrupt_string_length_rejected_without_allocation() {
        // Length prefix claims 0xFFFFFFFF bytes.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, b'x'];
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        assert!(matches!(
            r.read_string().unwrap_err(),
            CdrError::LengthOverrun { .. }
        ));
    }

    #[test]
    fn string_missing_nul_rejected() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.write_u32(2);
        w.write_bytes(b"ab"); // no NUL
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        assert_eq!(r.read_string().unwrap_err(), CdrError::BadString);
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [1u8, 2u8];
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        r.read_u8().unwrap();
        assert_eq!(
            r.expect_exhausted().unwrap_err(),
            CdrError::TrailingBytes(1)
        );
    }

    #[test]
    fn seq_len_guard_rejects_absurd_lengths() {
        let bytes = [0x00, 0xFF, 0xFF, 0xFF];
        let mut r = CdrReader::new(&bytes, ByteOrder::Big);
        assert!(r.read_seq_len(4).is_err());
    }

    #[test]
    fn base_offset_alignment_matches_writer() {
        let mut w = CdrWriter::with_base(ByteOrder::Big, 3);
        w.write_u32(7);
        let bytes = w.into_bytes();
        let mut r = CdrReader::with_base(&bytes, ByteOrder::Big, 3);
        assert_eq!(r.read_u32().unwrap(), 7);
        assert!(r.is_exhausted());
    }
}
