//! The datagram Packer: coalesces outgoing FTMP messages into MTU-sized
//! packed containers (DESIGN.md §5).
//!
//! The Packer sits between the Processor's send helpers and the
//! [`ActionSink`](crate::actions::ActionSink): instead of emitting one
//! datagram per message, sends are staged in a per-destination FIFO and
//! flushed as one container per [`crate::wire::encode_packed`]. Flush timing
//! is the [`PackPolicy`]:
//!
//! * [`PackPolicy::Immediate`] — the shell flushes at the end of every
//!   public entry point (packet, tick, send call). Everything the protocol
//!   produced *within one entry point* — a tick's NACK batch, a
//!   retransmission burst — shares a datagram, and nothing is delayed past
//!   the virtual instant that produced it.
//! * [`PackPolicy::Deadline`]`(d)` — a staged message may wait up to `d` for
//!   company from *later* entry points; expiry is checked on every flush
//!   window and on ticks. This is the cross-call batching that amortizes
//!   per-datagram cost under load, at a bounded latency price.
//!
//! Invariants the tests pin down:
//!
//! * **Order is never reordered.** Messages leave a queue in push order, and
//!   an oversized message flushes the queue ahead of itself.
//! * **A lone message without a trailer leaves as its original bytes** —
//!   bit-identical to the unpacked protocol, so enabling packing on a quiet
//!   link changes nothing on the wire.
//! * **Oversized messages bypass packing** (framed size over the MTU, or
//!   over the u16 length-prefix ceiling) rather than being split: FTMP
//!   messages are indivisible.
//!
//! Retention interplay: the Packer stages *encoded single-message* buffers,
//! and self-delivery hands those same buffers to the retention store — so
//! retained bytes are always the unpacked per-message form and the
//! flag-flip retransmission path is container-oblivious.

use crate::config::PackPolicy;
use crate::wire::{self, PACKED_PER_MSG_OVERHEAD, PACKED_PREAMBLE_LEN};
use bytes::Bytes;
use ftmp_net::{McastAddr, SimTime};
use std::collections::BTreeMap;

/// Per-destination staging queue.
#[derive(Debug, Default)]
struct Pending {
    msgs: Vec<Bytes>,
    /// Sum of the staged messages' lengths (excluding container framing).
    bytes: usize,
    /// When the oldest staged message entered (deadline anchor).
    since: SimTime,
}

impl Pending {
    /// Container size if the staged messages were flushed now, trailer
    /// excluded.
    fn framed(&self) -> usize {
        PACKED_PREAMBLE_LEN + self.msgs.len() * PACKED_PER_MSG_OVERHEAD + self.bytes
    }
}

/// Coalesces outgoing messages into packed containers, one queue per
/// multicast destination.
///
/// The ack-vector trailer is supplied by the caller at flush time (the
/// Packer is group-agnostic; the Processor owns the addr → group mapping
/// and the memoized encoded vector). The trailer rides *above* the MTU
/// message budget — it is bounded by the group size, not the traffic.
#[derive(Debug)]
pub struct Packer {
    mtu: usize,
    policy: PackPolicy,
    queues: BTreeMap<McastAddr, Pending>,
}

impl Packer {
    /// A packer with the given MTU budget and flush policy.
    pub fn new(mtu: usize, policy: PackPolicy) -> Self {
        Packer {
            mtu,
            policy,
            queues: BTreeMap::new(),
        }
    }

    /// The MTU budget containers are packed against.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Stage one encoded message for `addr`. If it cannot share a container
    /// (framed size over the MTU or the u16 length ceiling), the staged
    /// queue is flushed first and the message is emitted bare, preserving
    /// order. If staging it would overflow the MTU or the count octet, the
    /// queue is flushed first and the message starts a fresh container.
    pub fn push(
        &mut self,
        now: SimTime,
        addr: McastAddr,
        payload: Bytes,
        emit: &mut impl FnMut(McastAddr, Bytes),
    ) {
        let lone_framed = PACKED_PREAMBLE_LEN + PACKED_PER_MSG_OVERHEAD + payload.len();
        if payload.len() > u16::MAX as usize || lone_framed > self.mtu {
            self.flush_addr(addr, None, emit);
            emit(addr, payload);
            return;
        }
        let q = self.queues.entry(addr).or_default();
        let full = !q.msgs.is_empty()
            && (q.framed() + PACKED_PER_MSG_OVERHEAD + payload.len() > self.mtu
                || q.msgs.len() == u8::MAX as usize);
        if full {
            self.flush_addr(addr, None, emit);
        }
        let q = self.queues.entry(addr).or_default();
        if q.msgs.is_empty() {
            q.since = now;
        }
        q.bytes += payload.len();
        q.msgs.push(payload);
    }

    /// Flush one destination's staged queue: a lone message without a
    /// trailer leaves as its original bytes, anything else as one container.
    pub fn flush_addr(
        &mut self,
        addr: McastAddr,
        trailer: Option<&[u8]>,
        emit: &mut impl FnMut(McastAddr, Bytes),
    ) {
        let Some(q) = self.queues.get_mut(&addr) else {
            return;
        };
        if q.msgs.is_empty() {
            return;
        }
        // Clear rather than take: the per-destination queue keeps its
        // capacity across flushes, so a steady pump never re-allocates it.
        q.bytes = 0;
        if q.msgs.len() == 1 && trailer.is_none() {
            let lone = q.msgs.pop().expect("len 1");
            emit(addr, lone);
        } else {
            let container = wire::encode_packed(&q.msgs, trailer);
            q.msgs.clear();
            emit(addr, container);
        }
    }

    /// Destinations whose staged queue is due for flushing: all non-empty
    /// queues under [`PackPolicy::Immediate`]; under
    /// [`PackPolicy::Deadline`], those whose oldest message has waited at
    /// least the deadline.
    pub fn due(&self, now: SimTime) -> Vec<McastAddr> {
        self.queues
            .iter()
            .filter(|(_, q)| {
                !q.msgs.is_empty()
                    && match self.policy {
                        PackPolicy::Immediate => true,
                        PackPolicy::Deadline(d) => now.saturating_since(q.since) >= d,
                    }
            })
            .map(|(a, _)| *a)
            .collect()
    }

    /// Every destination with staged messages, regardless of policy (final
    /// drain, e.g. at shutdown or in tests).
    pub fn pending(&self) -> Vec<McastAddr> {
        self.queues
            .iter()
            .filter(|(_, q)| !q.msgs.is_empty())
            .map(|(a, _)| *a)
            .collect()
    }

    /// Number of messages staged for `addr`.
    pub fn staged(&self, addr: McastAddr) -> usize {
        self.queues.get(&addr).map_or(0, |q| q.msgs.len())
    }

    /// True when nothing is staged anywhere.
    pub fn is_empty(&self) -> bool {
        self.queues.values().all(|q| q.msgs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, ProcessorId, SeqNum, Timestamp};
    use crate::wire::{encode_ack_vector, unpack, AckVector, FtmpBody, FtmpMessage};
    use ftmp_cdr::ByteOrder;
    use ftmp_net::SimDuration;
    use proptest::prelude::*;

    const A: McastAddr = McastAddr(100);

    fn msg(src: u32, seq: u64, giop_len: usize) -> Bytes {
        FtmpMessage {
            retransmission: false,
            source: ProcessorId(src),
            group: GroupId(7),
            seq: SeqNum(seq),
            ts: Timestamp(seq.wrapping_mul(3) + 1),
            ack_ts: Timestamp(seq),
            body: FtmpBody::Regular {
                conn: crate::ids::ConnectionId::new(
                    crate::ids::ObjectGroupId::new(1, 1),
                    crate::ids::ObjectGroupId::new(1, 2),
                ),
                request_num: crate::ids::RequestNum(seq),
                giop: Bytes::from(vec![0xAB; giop_len]),
            },
        }
        .encode(ByteOrder::Big)
    }

    fn collect(packer: &mut Packer) -> Vec<(McastAddr, Bytes)> {
        let mut out = Vec::new();
        for addr in packer.pending() {
            packer.flush_addr(addr, None, &mut |a, b| out.push((a, b)));
        }
        out
    }

    #[test]
    fn messages_coalesce_up_to_mtu() {
        let mut packer = Packer::new(1400, PackPolicy::Immediate);
        let mut sent = Vec::new();
        let msgs: Vec<Bytes> = (1..=5).map(|i| msg(1, i, 40)).collect();
        for m in &msgs {
            packer.push(SimTime::ZERO, A, m.clone(), &mut |a, b| sent.push((a, b)));
        }
        assert!(sent.is_empty(), "under MTU: everything stages");
        assert_eq!(packer.staged(A), 5);
        sent.extend(collect(&mut packer));
        assert_eq!(sent.len(), 1, "one container for all five");
        let (back, v) = unpack(&sent[0].1).unwrap();
        assert_eq!(back, msgs);
        assert!(v.is_none());
        assert!(packer.is_empty());
    }

    #[test]
    fn lone_message_flushes_bare_and_bit_identical() {
        let mut packer = Packer::new(1400, PackPolicy::Immediate);
        let m = msg(1, 1, 64);
        let mut sent = Vec::new();
        packer.push(SimTime::ZERO, A, m.clone(), &mut |a, b| sent.push((a, b)));
        sent.extend(collect(&mut packer));
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1, m, "single message leaves unpacked, unchanged");
    }

    #[test]
    fn lone_message_with_trailer_becomes_container() {
        let mut packer = Packer::new(1400, PackPolicy::Immediate);
        let m = msg(1, 1, 8);
        let trailer = encode_ack_vector(&AckVector {
            group: GroupId(7),
            entries: vec![(ProcessorId(1), Timestamp(5))],
        });
        let mut sent = Vec::new();
        packer.push(SimTime::ZERO, A, m.clone(), &mut |a, b| sent.push((a, b)));
        packer.flush_addr(A, Some(&trailer), &mut |a, b| sent.push((a, b)));
        assert_eq!(sent.len(), 1);
        let (back, v) = unpack(&sent[0].1).unwrap();
        assert_eq!(back, vec![m]);
        assert!(v.is_some());
    }

    #[test]
    fn mtu_overflow_starts_a_new_container() {
        // Framed Regular (44B header + ~40B body + 32B giop) ≈ 116B payload;
        // choose an MTU that fits exactly two plus framing but not three.
        let one = msg(1, 1, 32).len();
        let mtu = PACKED_PREAMBLE_LEN + 2 * (PACKED_PER_MSG_OVERHEAD + one);
        let mut packer = Packer::new(mtu, PackPolicy::Immediate);
        let mut sent = Vec::new();
        for i in 1..=3 {
            packer.push(SimTime::ZERO, A, msg(1, i, 32), &mut |a, b| {
                sent.push((a, b))
            });
        }
        assert_eq!(sent.len(), 1, "third push flushed the first two");
        assert_eq!(wire::message_count(&sent[0].1), 2);
        assert!(sent[0].1.len() <= mtu, "container respects the MTU");
        sent.extend(collect(&mut packer));
        assert_eq!(sent.len(), 2);
        // The third message was alone → bare.
        assert_eq!(sent[1].1, msg(1, 3, 32));
    }

    #[test]
    fn message_exactly_at_mtu_still_packs() {
        let one = msg(1, 1, 32).len();
        let mtu = PACKED_PREAMBLE_LEN + PACKED_PER_MSG_OVERHEAD + one;
        let mut packer = Packer::new(mtu, PackPolicy::Immediate);
        let mut sent = Vec::new();
        packer.push(SimTime::ZERO, A, msg(1, 1, 32), &mut |a, b| {
            sent.push((a, b))
        });
        assert!(sent.is_empty(), "exactly-at-MTU message stages");
        assert_eq!(packer.staged(A), 1);
        // One byte over would have bypassed instead.
        let mut tight = Packer::new(mtu - 1, PackPolicy::Immediate);
        tight.push(SimTime::ZERO, A, msg(1, 1, 32), &mut |a, b| {
            sent.push((a, b))
        });
        assert_eq!(sent.len(), 1, "over-MTU message bypasses staging");
        assert!(tight.is_empty());
    }

    #[test]
    fn oversized_message_bypasses_after_flushing_queue() {
        let mut packer = Packer::new(256, PackPolicy::Immediate);
        let small = msg(1, 1, 8);
        let big = msg(1, 2, 4096); // framed size far beyond MTU
        let mut sent = Vec::new();
        packer.push(SimTime::ZERO, A, small.clone(), &mut |a, b| {
            sent.push((a, b))
        });
        packer.push(SimTime::ZERO, A, big.clone(), &mut |a, b| sent.push((a, b)));
        // Order preserved: the staged small message left first (bare — it
        // was alone), then the oversized one bare.
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0].1, small);
        assert_eq!(sent[1].1, big);
        assert!(packer.is_empty());
    }

    #[test]
    fn deadline_policy_holds_until_expiry() {
        let d = SimDuration::from_micros(300);
        let mut packer = Packer::new(1400, PackPolicy::Deadline(d));
        let t0 = SimTime::ZERO;
        let mut sent = Vec::new();
        packer.push(t0, A, msg(1, 1, 8), &mut |a, b| sent.push((a, b)));
        assert!(packer.due(t0).is_empty(), "fresh message not yet due");
        assert!(
            packer.due(t0 + SimDuration::from_micros(299)).is_empty(),
            "still inside the deadline"
        );
        let due = packer.due(t0 + d);
        assert_eq!(due, vec![A], "deadline reached under silence → flush");
        // A second message does not reset the clock of the first.
        packer.push(
            t0 + SimDuration::from_micros(100),
            A,
            msg(1, 2, 8),
            &mut |a, b| sent.push((a, b)),
        );
        assert_eq!(packer.due(t0 + d), vec![A]);
        assert!(sent.is_empty());
    }

    #[test]
    fn immediate_policy_everything_pending_is_due() {
        let mut packer = Packer::new(1400, PackPolicy::Immediate);
        let mut sent = Vec::new();
        packer.push(SimTime::ZERO, A, msg(1, 1, 8), &mut |a, b| {
            sent.push((a, b))
        });
        packer.push(SimTime::ZERO, McastAddr(200), msg(1, 2, 8), &mut |a, b| {
            sent.push((a, b))
        });
        let mut due = packer.due(SimTime::ZERO);
        due.sort_by_key(|a| a.0);
        assert_eq!(due, vec![A, McastAddr(200)]);
    }

    #[test]
    fn count_octet_ceiling_respected() {
        // 255 tiny messages fit an enormous MTU; the 256th starts anew.
        let mut packer = Packer::new(1 << 20, PackPolicy::Immediate);
        let mut sent = Vec::new();
        for i in 0..256u64 {
            packer.push(SimTime::ZERO, A, msg(1, i + 1, 0), &mut |a, b| {
                sent.push((a, b))
            });
        }
        assert_eq!(sent.len(), 1);
        assert_eq!(wire::message_count(&sent[0].1), 255);
        assert_eq!(packer.staged(A), 1);
    }

    proptest! {
        /// For any message sequence and any MTU/deadline, pushing then
        /// draining the packer reproduces exactly the original messages, in
        /// order, once unpacked — packing is invisible to the receiver.
        #[test]
        fn prop_pack_unpack_is_identity_in_order(
            sizes in proptest::collection::vec((1u32..=3, 0usize..600), 1..40),
            mtu in 64usize..2048,
            deadline_us in prop_oneof![Just(None), (1u64..1000).prop_map(Some)],
        ) {
            let policy = match deadline_us {
                None => PackPolicy::Immediate,
                Some(us) => PackPolicy::Deadline(SimDuration::from_micros(us)),
            };
            let mut packer = Packer::new(mtu, policy);
            let msgs: Vec<(u32, Bytes)> = sizes
                .iter()
                .enumerate()
                .map(|(i, (src, len))| (*src, msg(*src, i as u64 + 1, *len)))
                .collect();
            let mut wire_out: Vec<Bytes> = Vec::new();
            for (_, m) in &msgs {
                packer.push(SimTime::ZERO, A, m.clone(), &mut |_, b| wire_out.push(b));
            }
            for addr in packer.pending() {
                packer.flush_addr(addr, None, &mut |_, b| wire_out.push(b));
            }
            prop_assert!(packer.is_empty());
            // Unpack everything back to per-message form.
            let mut received: Vec<Bytes> = Vec::new();
            for datagram in &wire_out {
                if wire::is_packed(datagram) {
                    prop_assert!(datagram.len() <= mtu, "container over MTU");
                    let (inner, v) = unpack(datagram).unwrap();
                    prop_assert!(v.is_none());
                    received.extend(inner);
                } else {
                    received.push(datagram.clone());
                }
            }
            let originals: Vec<Bytes> = msgs.iter().map(|(_, m)| m.clone()).collect();
            prop_assert_eq!(&received, &originals, "identity, global order preserved");
            // Per-sender order is a corollary of global order; check anyway
            // by filtering per source.
            for src in 1u32..=3 {
                let sent_by: Vec<&Bytes> = msgs.iter().filter(|(s, _)| *s == src).map(|(_, m)| m).collect();
                let recv_by: Vec<&Bytes> = received
                    .iter()
                    .filter(|b| FtmpMessage::decode_shared(b).unwrap().source == ProcessorId(src))
                    .collect();
                prop_assert_eq!(sent_by, recv_by);
            }
        }
    }
}
