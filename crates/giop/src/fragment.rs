//! GIOP message fragmentation and reassembly.
//!
//! FTMP multicasts each GIOP message inside one FTMP Regular message (paper
//! Fig. 2). When a marshalled GIOP message exceeds the transport's payload
//! budget, GIOP 1.1 fragmentation splits it: the first datagram carries the
//! original message with the "more fragments" flag set, and subsequent
//! datagrams carry Fragment messages. Because RMP delivers a source's
//! messages reliably and in source order, fragments never interleave per
//! source, so reassembly only needs to track one in-flight message per
//! sender — but we key by sender to support many concurrent sources.

use crate::header::{GiopHeader, GiopVersion, MsgType, GIOP_HEADER_LEN};
use crate::GiopError;
use bytes::Bytes;
use ftmp_cdr::{ByteOrder, CdrWriter};
use std::collections::HashMap;

/// Splits an encoded GIOP message into transport-sized datagrams.
#[derive(Debug, Clone)]
pub struct Fragmenter {
    /// Maximum bytes per emitted datagram, including the 12-byte header.
    max_datagram: usize,
}

impl Fragmenter {
    /// Create a fragmenter with the given datagram budget. Budgets smaller
    /// than 16 bytes (header + a little progress) are rounded up.
    pub fn new(max_datagram: usize) -> Self {
        Fragmenter {
            max_datagram: max_datagram.max(GIOP_HEADER_LEN + 4),
        }
    }

    /// The datagram budget.
    pub fn max_datagram(&self) -> usize {
        self.max_datagram
    }

    /// Split a fully-encoded GIOP message (from [`crate::GiopMessage::encode`])
    /// into one or more datagrams.
    ///
    /// Returns the original bytes untouched when they already fit.
    pub fn split(&self, encoded: &[u8]) -> Result<Vec<Vec<u8>>, GiopError> {
        if encoded.len() <= self.max_datagram {
            return Ok(vec![encoded.to_vec()]);
        }
        let (hdr, body) = GiopHeader::decode(encoded)?;
        let order = hdr.order;
        let budget = self.max_datagram - GIOP_HEADER_LEN;
        let mut out = Vec::new();

        // First datagram: original header (flagged) + leading body slice.
        let first_len = budget.min(body.len());
        let mut w = CdrWriter::new(order);
        let mut first_hdr = hdr;
        first_hdr.version = GiopVersion::V1_1;
        first_hdr.more_fragments = true;
        first_hdr.size = first_len as u32;
        first_hdr.encode(&mut w);
        w.write_bytes(&body[..first_len]);
        out.push(w.into_bytes());

        // Remaining datagrams: Fragment messages.
        let mut off = first_len;
        while off < body.len() {
            let take = budget.min(body.len() - off);
            let more = off + take < body.len();
            let mut w = CdrWriter::new(order);
            let mut fh = GiopHeader::new(MsgType::Fragment, order, take as u32);
            fh.version = GiopVersion::V1_1;
            fh.more_fragments = more;
            fh.encode(&mut w);
            w.write_bytes(&body[off..off + take]);
            out.push(w.into_bytes());
            off += take;
        }
        Ok(out)
    }
}

/// Per-sender reassembly of fragmented GIOP messages.
///
/// `K` identifies the sender (FTMP uses the source processor id). Feed every
/// datagram to [`push`]; complete messages come back as bytes, undecoded —
/// the datagram itself when it was not fragmented, the reassembled message
/// otherwise — for [`crate::GiopView::decode`] to read.
///
/// [`push`]: FragmentAssembler::push
#[derive(Debug)]
pub struct FragmentAssembler<K: std::hash::Hash + Eq + Clone> {
    /// Accumulated bytes per sender: the first fragment's header and the
    /// body so far.
    pending: HashMap<K, Vec<u8>>,
    /// Upper bound on a reassembled message, guarding memory against a
    /// malfunctioning sender that never clears its "more" flag.
    max_message: usize,
}

impl<K: std::hash::Hash + Eq + Clone> FragmentAssembler<K> {
    /// Create an assembler with a reassembly size limit.
    pub fn new(max_message: usize) -> Self {
        FragmentAssembler {
            pending: HashMap::new(),
            max_message,
        }
    }

    /// Number of senders with an incomplete message.
    pub fn pending_senders(&self) -> usize {
        self.pending.len()
    }

    /// Feed one datagram from `sender`. Returns `Ok(Some(message))` when the
    /// datagram completes a message (fragmented or not), `Ok(None)` while
    /// more fragments are needed. Only the fixed header is read here, and
    /// it must declare exactly the datagram's length.
    pub fn push(&mut self, sender: K, datagram: Bytes) -> Result<Option<Bytes>, GiopError> {
        let (hdr, body) = GiopHeader::decode(&datagram)?;
        let fragment = hdr.msg_type == MsgType::Fragment;
        if !fragment && !hdr.more_fragments {
            // A whole message: nobody's partial state is touched unless
            // this sender has some, which a new message abandons (the
            // source-ordered channel means a conforming sender never
            // leaves one).
            if !self.pending.is_empty() {
                self.pending.remove(&sender);
            }
            return Ok(Some(datagram));
        }
        if !fragment {
            // The first fragment of a message.
            self.pending.remove(&sender);
            if datagram.len() > self.max_message {
                return Err(GiopError::FragmentOverflow {
                    request_id: 0,
                    limit: self.max_message,
                });
            }
            self.pending.insert(sender, datagram.to_vec());
            return Ok(None);
        }
        let Some(mut buf) = self.pending.remove(&sender) else {
            return Err(GiopError::OrphanFragment(0));
        };
        if buf.len() + body.len() > self.max_message {
            return Err(GiopError::FragmentOverflow {
                request_id: 0,
                limit: self.max_message,
            });
        }
        buf.extend_from_slice(body);
        if hdr.more_fragments {
            self.pending.insert(sender, buf);
            return Ok(None);
        }
        Self::finish(&mut buf);
        Ok(Some(Bytes::from(buf)))
    }

    /// Rewrite the accumulated bytes' header into an unfragmented
    /// message's: the more-fragments flag cleared, the final size patched.
    fn finish(buf: &mut [u8]) {
        let size = (buf.len() - GIOP_HEADER_LEN) as u32;
        let order = ByteOrder::from_flag(buf[6] & 0x01 != 0);
        buf[6] &= !0x02;
        let size_bytes = match order {
            ByteOrder::Big => size.to_be_bytes(),
            ByteOrder::Little => size.to_le_bytes(),
        };
        buf[8..12].copy_from_slice(&size_bytes);
    }

    /// Drop any partial state for `sender` (e.g. it left the group).
    pub fn forget(&mut self, sender: &K) {
        self.pending.remove(sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::GiopMessage;
    use crate::request::RequestHeader;
    use proptest::prelude::*;

    /// Push `datagram` and decode what completes.
    fn feed<K: std::hash::Hash + Eq + Clone>(
        asm: &mut FragmentAssembler<K>,
        sender: K,
        datagram: &[u8],
    ) -> Result<Option<GiopMessage>, GiopError> {
        Ok(match asm.push(sender, Bytes::copy_from_slice(datagram))? {
            Some(bytes) => Some(GiopMessage::decode(&bytes)?),
            None => None,
        })
    }

    fn big_request(body_len: usize) -> GiopMessage {
        GiopMessage::Request {
            header: RequestHeader {
                service_context: vec![],
                request_id: 42,
                response_expected: true,
                object_key: b"some/replicated/object".to_vec(),
                operation: "transfer_funds".into(),
                requesting_principal: vec![],
            },
            body: (0..body_len).map(|i| (i % 251) as u8).collect(),
        }
    }

    #[test]
    fn small_message_passes_through_unfragmented() {
        let msg = big_request(10);
        let encoded = msg.encode(ByteOrder::Big);
        let frags = Fragmenter::new(4096).split(&encoded).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], encoded);
        let mut asm = FragmentAssembler::new(1 << 20);
        assert_eq!(feed(&mut asm, 1u32, &frags[0]).unwrap(), Some(msg));
        // The datagram itself comes back, not a copy.
        let datagram = Bytes::from(encoded);
        let out = asm.push(1u32, datagram.clone()).unwrap().unwrap();
        assert_eq!(out.as_ptr(), datagram.as_ptr());
        assert_eq!(asm.pending_senders(), 0);
    }

    /// A first fragment longer than its header declares is refused, so its
    /// trailing octets never reach the reassembled body; the fragments
    /// after it are orphans.
    #[test]
    fn a_first_fragment_with_trailing_bytes_is_refused() {
        let msg = big_request(200);
        let frags = Fragmenter::new(64)
            .split(&msg.encode(ByteOrder::Big))
            .unwrap();
        let mut asm = FragmentAssembler::new(1 << 20);
        let mut first = frags[0].clone();
        first.extend([0xEE; 5]);
        assert!(matches!(
            feed(&mut asm, 1u32, &first),
            Err(GiopError::SizeMismatch { .. })
        ));
        for f in &frags[1..] {
            assert!(matches!(
                feed(&mut asm, 1u32, f),
                Err(GiopError::OrphanFragment(_))
            ));
        }
        // The same datagrams without the junk reassemble exactly.
        let mut out = None;
        for f in &frags {
            out = feed(&mut asm, 1u32, f).unwrap().or(out);
        }
        assert_eq!(out, Some(msg));
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let msg = big_request(5000);
            let encoded = msg.encode(order);
            let frags = Fragmenter::new(512).split(&encoded).unwrap();
            assert!(frags.len() > 1);
            for f in &frags {
                assert!(f.len() <= 512);
            }
            let mut asm = FragmentAssembler::new(1 << 20);
            let mut result = None;
            for f in &frags {
                if let Some(m) = feed(&mut asm, 7u32, f).unwrap() {
                    result = Some(m);
                }
            }
            assert_eq!(result, Some(msg));
            assert_eq!(asm.pending_senders(), 0);
        }
    }

    #[test]
    fn orphan_fragment_rejected() {
        let msg = big_request(5000);
        let frags = Fragmenter::new(512)
            .split(&msg.encode(ByteOrder::Big))
            .unwrap();
        let mut asm = FragmentAssembler::new(1 << 20);
        // Skip the first datagram; the second is an orphan Fragment.
        assert!(matches!(
            feed(&mut asm, 1u32, &frags[1]),
            Err(GiopError::OrphanFragment(_))
        ));
    }

    #[test]
    fn oversized_reassembly_rejected() {
        let msg = big_request(5000);
        let frags = Fragmenter::new(512)
            .split(&msg.encode(ByteOrder::Big))
            .unwrap();
        let mut asm = FragmentAssembler::new(1000);
        let mut saw_overflow = false;
        for f in &frags {
            match feed(&mut asm, 1u32, f) {
                Err(GiopError::FragmentOverflow { .. }) => {
                    saw_overflow = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_overflow);
        assert_eq!(asm.pending_senders(), 0);
    }

    #[test]
    fn interleaved_senders_reassemble_independently() {
        let m1 = big_request(3000);
        let m2 = big_request(2000);
        let f1 = Fragmenter::new(512)
            .split(&m1.encode(ByteOrder::Big))
            .unwrap();
        let f2 = Fragmenter::new(512)
            .split(&m2.encode(ByteOrder::Little))
            .unwrap();
        let mut asm = FragmentAssembler::new(1 << 20);
        let mut done = Vec::new();
        let mut i1 = f1.iter();
        let mut i2 = f2.iter();
        loop {
            let mut progressed = false;
            if let Some(f) = i1.next() {
                if let Some(m) = feed(&mut asm, 1u32, f).unwrap() {
                    done.push(m);
                }
                progressed = true;
            }
            if let Some(f) = i2.next() {
                if let Some(m) = feed(&mut asm, 2u32, f).unwrap() {
                    done.push(m);
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert!(done.contains(&m1));
        assert!(done.contains(&m2));
    }

    #[test]
    fn forget_drops_partial_state() {
        let msg = big_request(3000);
        let frags = Fragmenter::new(512)
            .split(&msg.encode(ByteOrder::Big))
            .unwrap();
        let mut asm = FragmentAssembler::new(1 << 20);
        feed(&mut asm, 1u32, &frags[0]).unwrap();
        assert_eq!(asm.pending_senders(), 1);
        asm.forget(&1u32);
        assert_eq!(asm.pending_senders(), 0);
    }

    proptest! {
        #[test]
        fn prop_fragment_reassembly_identity(
            body_len in 0usize..4000,
            budget in 64usize..1024,
            little: bool,
        ) {
            let order = ByteOrder::from_flag(little);
            let msg = big_request(body_len);
            let encoded = msg.encode(order);
            let frags = Fragmenter::new(budget).split(&encoded).unwrap();
            let mut asm = FragmentAssembler::new(1 << 22);
            let mut out = None;
            for f in &frags {
                prop_assert!(f.len() <= budget.max(GIOP_HEADER_LEN + 4));
                if let Some(m) = feed(&mut asm, 0u8, f).unwrap() {
                    out = Some(m);
                }
            }
            prop_assert_eq!(out, Some(msg));
        }
    }
}
