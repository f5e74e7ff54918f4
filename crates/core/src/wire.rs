//! The FTMP wire format: header and the message bodies (the paper's nine
//! plus the tree-mode OverlayDigest extension).
//!
//! §3.2 of the paper draws the header fields — magic, version, byte order,
//! retransmission, message size, message type, source processor id,
//! destination processor group id, sequence number, message timestamp, ack
//! timestamp — without widths. We fix them as follows (44-byte header):
//!
//! ```text
//! offset  size  field
//!  0      4     magic "FTMP"
//!  4      1     version (0x10 = 1.0)
//!  5      1     flags: bit0 little-endian, bit1 retransmission
//!  6      1     message type
//!  7      1     reserved (0)
//!  8      4     message size (header + body, bytes)
//! 12      4     source processor id
//! 16      4     destination processor group id
//! 20      8     sequence number
//! 28      8     message timestamp
//! 36      8     ack timestamp
//! ```
//!
//! Bodies are CDR streams restarting at offset 0 after the header (the
//! header's byte-order flag governs them), encoded via [`ftmp_cdr`]. A
//! Regular body carries an entire GIOP message, completing the Fig. 2
//! encapsulation: `IP header | FTMP header | GIOP header | data`.

use crate::ids::{
    ConnectionId, FtDomainId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use bytes::{Bytes, BytesMut};
use ftmp_cdr::{ByteOrder, CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use std::fmt;

/// Magic octets opening every FTMP message.
pub const FTMP_MAGIC: [u8; 4] = *b"FTMP";

/// FTMP version 1.0 as a packed octet.
pub const FTMP_VERSION: u8 = 0x10;

/// Header length; the body's CDR stream restarts at 0 after this.
pub const FTMP_HEADER_LEN: usize = 44;

/// Offset of the message-type octet (used by the traffic classifier).
pub const MSG_TYPE_OFFSET: usize = 6;

/// Message-type octet marking a *packed container* (DESIGN.md §5): several
/// complete FTMP messages in one datagram. Deliberately outside the
/// [`FtmpMsgType`] range so a plain [`FtmpMessage::decode`] rejects a
/// container with `BadMsgType` instead of misreading it, while
/// [`classify`] labels container traffic without any change.
pub const PACKED_MSG_TYPE: u8 = 0x50; // 'P'

/// Container flags bit: an ack-timestamp vector trailer follows the packed
/// messages.
pub const PACKED_ACK_VECTOR_BIT: u8 = 0x02;

/// Offset of the message-count octet in a packed container.
pub const PACKED_COUNT_OFFSET: usize = 7;

/// Fixed container preamble: magic, version, flags, type, count.
pub const PACKED_PREAMBLE_LEN: usize = 8;

/// Bytes of container framing added per packed message (u16 length prefix).
pub const PACKED_PER_MSG_OVERHEAD: usize = 2;

/// Wire-format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First four octets were not `FTMP`.
    BadMagic([u8; 4]),
    /// Unsupported version octet.
    BadVersion(u8),
    /// Unknown message-type octet.
    BadMsgType(u8),
    /// Buffer shorter than the fixed header.
    Truncated {
        /// Bytes required.
        wanted: usize,
        /// Bytes present.
        have: usize,
    },
    /// Header `message size` disagrees with the buffer.
    SizeMismatch {
        /// Size claimed by the header.
        declared: u32,
        /// Bytes actually present.
        actual: usize,
    },
    /// Body failed to decode.
    Body(CdrError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad FTMP magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported FTMP version {v:#04x}"),
            WireError::BadMsgType(t) => write!(f, "unknown FTMP message type {t}"),
            WireError::Truncated { wanted, have } => {
                write!(f, "truncated FTMP message: wanted {wanted}, have {have}")
            }
            WireError::SizeMismatch { declared, actual } => {
                write!(
                    f,
                    "FTMP size mismatch: declared {declared}, actual {actual}"
                )
            }
            WireError::Body(e) => write!(f, "FTMP body: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CdrError> for WireError {
    fn from(e: CdrError) -> Self {
        WireError::Body(e)
    }
}

/// The FTMP message types: the paper's nine (§5–§7, Fig. 3) plus the
/// overlay digest extension (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum FtmpMsgType {
    /// Carries a GIOP message; reliable, source- and totally-ordered.
    Regular = 0,
    /// Negative acknowledgment naming a missing block; unreliable.
    RetransmitRequest = 1,
    /// Liveness + current seq/ts/ack when idle; unreliable.
    Heartbeat = 2,
    /// Client asks for a logical connection; unreliable, retried.
    ConnectRequest = 3,
    /// Server establishes / re-addresses a connection; reliable, ordered
    /// (except no guarantee to the client group, §7).
    Connect = 4,
    /// Adds a non-faulty processor; reliable, ordered (except to the joiner).
    AddProcessor = 5,
    /// Removes a non-faulty processor; reliable, ordered.
    RemoveProcessor = 6,
    /// Names processors the sender suspects; reliable, source order only.
    Suspect = 7,
    /// Proposes a membership excluding convicted processors; reliable,
    /// source order only.
    Membership = 8,
    /// Tree-mode aggregated heartbeat: the header carries the sender's own
    /// seq/ts/ack exactly like a Heartbeat, and the body relays the
    /// sender's recorded (contiguous seq, horizon ts, ack ts) for every
    /// other view member, so one datagram per tree edge substitutes for
    /// full-mesh heartbeats (DESIGN.md §13); unreliable.
    OverlayDigest = 9,
}

impl FtmpMsgType {
    /// Decode a message-type octet.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => FtmpMsgType::Regular,
            1 => FtmpMsgType::RetransmitRequest,
            2 => FtmpMsgType::Heartbeat,
            3 => FtmpMsgType::ConnectRequest,
            4 => FtmpMsgType::Connect,
            5 => FtmpMsgType::AddProcessor,
            6 => FtmpMsgType::RemoveProcessor,
            7 => FtmpMsgType::Suspect,
            8 => FtmpMsgType::Membership,
            9 => FtmpMsgType::OverlayDigest,
            other => return Err(WireError::BadMsgType(other)),
        })
    }

    /// All types in wire order.
    pub const ALL: [FtmpMsgType; 10] = [
        FtmpMsgType::Regular,
        FtmpMsgType::RetransmitRequest,
        FtmpMsgType::Heartbeat,
        FtmpMsgType::ConnectRequest,
        FtmpMsgType::Connect,
        FtmpMsgType::AddProcessor,
        FtmpMsgType::RemoveProcessor,
        FtmpMsgType::Suspect,
        FtmpMsgType::Membership,
        FtmpMsgType::OverlayDigest,
    ];

    /// Does RMP assign this type a fresh sequence number and deliver it
    /// reliably (Fig. 3, "Reliable Source Ordered" column)? Heartbeats,
    /// RetransmitRequests and ConnectRequests reuse the previous sequence
    /// number and get no delivery guarantee.
    pub fn is_reliable(self) -> bool {
        !matches!(
            self,
            FtmpMsgType::RetransmitRequest
                | FtmpMsgType::Heartbeat
                | FtmpMsgType::ConnectRequest
                | FtmpMsgType::OverlayDigest
        )
    }

    /// Does ROMP place this type in the total order (Fig. 3, "Totally
    /// Ordered" column)? Suspect and Membership are reliable but only
    /// source-ordered.
    pub fn is_totally_ordered(self) -> bool {
        matches!(
            self,
            FtmpMsgType::Regular
                | FtmpMsgType::Connect
                | FtmpMsgType::AddProcessor
                | FtmpMsgType::RemoveProcessor
        )
    }
}

/// The fixed FTMP header (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtmpHeader {
    /// Byte order of the header's multi-byte fields and the body.
    pub order: ByteOrder,
    /// True on every transmission after the first (§3.2).
    pub retransmission: bool,
    /// Message type.
    pub msg_type: FtmpMsgType,
    /// Total size, header + body.
    pub size: u32,
    /// Originating processor.
    pub source: ProcessorId,
    /// Destination processor group.
    pub group: GroupId,
    /// Per-(source, group) sequence number.
    pub seq: SeqNum,
    /// Lamport message timestamp.
    pub ts: Timestamp,
    /// Positive acknowledgment timestamp (buffer management, §6).
    pub ack_ts: Timestamp,
}

impl FtmpHeader {
    fn put_u32(buf: &mut [u8], order: ByteOrder, v: u32) {
        let b = match order {
            ByteOrder::Big => v.to_be_bytes(),
            ByteOrder::Little => v.to_le_bytes(),
        };
        buf.copy_from_slice(&b);
    }

    fn put_u64(buf: &mut [u8], order: ByteOrder, v: u64) {
        let b = match order {
            ByteOrder::Big => v.to_be_bytes(),
            ByteOrder::Little => v.to_le_bytes(),
        };
        buf.copy_from_slice(&b);
    }

    fn get_u32(buf: &[u8], order: ByteOrder) -> u32 {
        let a: [u8; 4] = buf.try_into().expect("length checked");
        match order {
            ByteOrder::Big => u32::from_be_bytes(a),
            ByteOrder::Little => u32::from_le_bytes(a),
        }
    }

    fn get_u64(buf: &[u8], order: ByteOrder) -> u64 {
        let a: [u8; 8] = buf.try_into().expect("length checked");
        match order {
            ByteOrder::Big => u64::from_be_bytes(a),
            ByteOrder::Little => u64::from_le_bytes(a),
        }
    }

    /// Serialize into exactly [`FTMP_HEADER_LEN`] bytes.
    pub fn encode(&self) -> [u8; FTMP_HEADER_LEN] {
        let mut b = [0u8; FTMP_HEADER_LEN];
        b[0..4].copy_from_slice(&FTMP_MAGIC);
        b[4] = FTMP_VERSION;
        let mut flags = 0u8;
        if self.order.as_flag() {
            flags |= 0x01;
        }
        if self.retransmission {
            flags |= 0x02;
        }
        b[5] = flags;
        b[6] = self.msg_type as u8;
        b[7] = 0;
        Self::put_u32(&mut b[8..12], self.order, self.size);
        Self::put_u32(&mut b[12..16], self.order, self.source.0);
        Self::put_u32(&mut b[16..20], self.order, self.group.0);
        Self::put_u64(&mut b[20..28], self.order, self.seq.0);
        Self::put_u64(&mut b[28..36], self.order, self.ts.0);
        Self::put_u64(&mut b[36..44], self.order, self.ack_ts.0);
        b
    }

    /// Parse a header; returns it and the body slice (validated against the
    /// declared size).
    pub fn decode(bytes: &[u8]) -> Result<(FtmpHeader, &[u8]), WireError> {
        if bytes.len() < FTMP_HEADER_LEN {
            return Err(WireError::Truncated {
                wanted: FTMP_HEADER_LEN,
                have: bytes.len(),
            });
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != FTMP_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if bytes[4] != FTMP_VERSION {
            return Err(WireError::BadVersion(bytes[4]));
        }
        let flags = bytes[5];
        let order = ByteOrder::from_flag(flags & 0x01 != 0);
        let retransmission = flags & 0x02 != 0;
        let msg_type = FtmpMsgType::from_u8(bytes[MSG_TYPE_OFFSET])?;
        let size = Self::get_u32(&bytes[8..12], order);
        if (size as usize) < FTMP_HEADER_LEN || size as usize > bytes.len() {
            return Err(WireError::SizeMismatch {
                declared: size,
                actual: bytes.len(),
            });
        }
        let header = FtmpHeader {
            order,
            retransmission,
            msg_type,
            size,
            source: ProcessorId(Self::get_u32(&bytes[12..16], order)),
            group: GroupId(Self::get_u32(&bytes[16..20], order)),
            seq: SeqNum(Self::get_u64(&bytes[20..28], order)),
            ts: Timestamp(Self::get_u64(&bytes[28..36], order)),
            ack_ts: Timestamp(Self::get_u64(&bytes[36..44], order)),
        };
        Ok((header, &bytes[FTMP_HEADER_LEN..size as usize]))
    }
}

// -- CDR impls for the id newtypes used inside bodies -----------------------

impl CdrEncode for ProcessorId {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.0);
    }
}

impl CdrDecode for ProcessorId {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ProcessorId(r.read_u32()?))
    }
}

impl CdrEncode for ObjectGroupId {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.domain.0);
        w.write_u32(self.group);
    }
}

impl CdrDecode for ObjectGroupId {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ObjectGroupId {
            domain: FtDomainId(r.read_u32()?),
            group: r.read_u32()?,
        })
    }
}

impl CdrEncode for ConnectionId {
    fn encode(&self, w: &mut CdrWriter) {
        self.client.encode(w);
        self.server.encode(w);
    }
}

impl CdrDecode for ConnectionId {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ConnectionId {
            client: ObjectGroupId::decode(r)?,
            server: ObjectGroupId::decode(r)?,
        })
    }
}

/// `(processor, highest contiguous sequence number)` pairs carried by
/// AddProcessor and Membership bodies.
pub type SeqVector = Vec<(ProcessorId, u64)>;

fn encode_seqs(w: &mut CdrWriter, seqs: &SeqVector) {
    w.write_u32(seqs.len() as u32);
    for (p, s) in seqs {
        p.encode(w);
        w.write_u64(*s);
    }
}

fn decode_seqs(r: &mut CdrReader<'_>) -> Result<SeqVector, CdrError> {
    let len = r.read_seq_len(12)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        let p = ProcessorId::decode(r)?;
        let s = r.read_u64()?;
        v.push((p, s));
    }
    Ok(v)
}

/// `(member, contiguous seq, horizon ts, ack ts)` tuples carried by an
/// OverlayDigest body: the sender's recorded view of each other member,
/// exactly the evidence that member's own Heartbeat header would carry.
pub type DigestVector = Vec<(ProcessorId, u64, Timestamp, Timestamp)>;

fn encode_digest(w: &mut CdrWriter, entries: &DigestVector) {
    w.write_u32(entries.len() as u32);
    for (p, seq, ts, ack) in entries {
        p.encode(w);
        w.write_u64(*seq);
        w.write_u64(ts.0);
        w.write_u64(ack.0);
    }
}

fn decode_digest(r: &mut CdrReader<'_>) -> Result<DigestVector, CdrError> {
    let len = r.read_seq_len(28)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        let p = ProcessorId::decode(r)?;
        let seq = r.read_u64()?;
        let ts = Timestamp(r.read_u64()?);
        let ack = Timestamp(r.read_u64()?);
        v.push((p, seq, ts, ack));
    }
    Ok(v)
}

/// Message bodies (§5–§7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtmpBody {
    /// A GIOP message plus the duplicate-detection pair (§5).
    Regular {
        /// Logical connection this invocation travels on.
        conn: ConnectionId,
        /// Request number on that connection.
        request_num: RequestNum,
        /// The encapsulated GIOP message.
        giop: Bytes,
    },
    /// NACK for a block of messages from one source (§5).
    RetransmitRequest {
        /// The source whose messages are missing.
        missing_from: ProcessorId,
        /// Smallest missing sequence number.
        start_seq: u64,
        /// Largest missing sequence number (== start for a single message).
        stop_seq: u64,
    },
    /// Liveness beacon; all payload lives in the header (§5).
    Heartbeat,
    /// Client's connection solicitation (§7).
    ConnectRequest {
        /// The requested connection.
        conn: ConnectionId,
        /// The processors supporting the client object group.
        client_processors: Vec<ProcessorId>,
    },
    /// Server's connection establishment / re-addressing (§7).
    Connect {
        /// The connection being established or re-addressed.
        conn: ConnectionId,
        /// The processor group serving the connection.
        group: GroupId,
        /// The IP multicast address the group uses.
        mcast_addr: u32,
        /// Timestamp of the membership below.
        membership_ts: Timestamp,
        /// The processor group membership at that timestamp.
        membership: Vec<ProcessorId>,
    },
    /// Add a non-faulty processor (§7.1).
    AddProcessor {
        /// Timestamp of the membership below.
        membership_ts: Timestamp,
        /// Current membership.
        membership: Vec<ProcessorId>,
        /// Per-member sequence number of the most recent message the sender
        /// has ordered — the joiner builds its order above these.
        seqs: SeqVector,
        /// The processor being added.
        new_member: ProcessorId,
    },
    /// Remove a non-faulty processor (§7.1).
    RemoveProcessor {
        /// The processor being removed (takes effect when ordered).
        member: ProcessorId,
    },
    /// Suspicion report (§7.2).
    Suspect {
        /// Timestamp of the membership the suspicions refer to.
        membership_ts: Timestamp,
        /// The processors the sender suspects.
        suspects: Vec<ProcessorId>,
    },
    /// Membership proposal excluding convicted processors (§7.2).
    Membership {
        /// Timestamp of the current membership.
        membership_ts: Timestamp,
        /// The current membership.
        membership: Vec<ProcessorId>,
        /// Per-member highest sequence number the sender has contiguously
        /// received — survivors reconcile to the pairwise maximum.
        seqs: SeqVector,
        /// The proposed new membership.
        new_membership: Vec<ProcessorId>,
    },
    /// Tree-mode aggregated heartbeat relaying the sender's recorded state
    /// for every other view member (DESIGN.md §13).
    OverlayDigest {
        /// True when the sender is starving — its ordering queue has stalled
        /// or some member has gone quiet past half the fault-detector
        /// timeout — and is asking every member to answer with its own
        /// digest on the group address. A strict tree is a single
        /// dissemination path per pair; solicitation is the group-wide
        /// fallback that restores liveness when churn severs that path.
        solicit: bool,
        /// One `(member, contiguous seq, horizon ts, ack ts)` per view
        /// member other than the sender.
        entries: DigestVector,
    },
}

impl FtmpBody {
    /// The message type this body belongs to.
    pub fn msg_type(&self) -> FtmpMsgType {
        match self {
            FtmpBody::Regular { .. } => FtmpMsgType::Regular,
            FtmpBody::RetransmitRequest { .. } => FtmpMsgType::RetransmitRequest,
            FtmpBody::Heartbeat => FtmpMsgType::Heartbeat,
            FtmpBody::ConnectRequest { .. } => FtmpMsgType::ConnectRequest,
            FtmpBody::Connect { .. } => FtmpMsgType::Connect,
            FtmpBody::AddProcessor { .. } => FtmpMsgType::AddProcessor,
            FtmpBody::RemoveProcessor { .. } => FtmpMsgType::RemoveProcessor,
            FtmpBody::Suspect { .. } => FtmpMsgType::Suspect,
            FtmpBody::Membership { .. } => FtmpMsgType::Membership,
            FtmpBody::OverlayDigest { .. } => FtmpMsgType::OverlayDigest,
        }
    }

    /// Upper bound on the encoded body size (CDR padding included), used to
    /// reserve the encode buffer in one shot so the hot path never grows it.
    pub fn size_hint(&self) -> usize {
        // Worst-case alignment padding per multi-byte field is folded into
        // the per-field constants; over-reserving a few bytes is fine.
        match self {
            FtmpBody::Regular { giop, .. } => 32 + giop.len(),
            FtmpBody::RetransmitRequest { .. } => 24,
            FtmpBody::Heartbeat => 0,
            FtmpBody::ConnectRequest {
                client_processors, ..
            } => 24 + 4 * client_processors.len(),
            FtmpBody::Connect { membership, .. } => 40 + 4 * membership.len(),
            FtmpBody::AddProcessor {
                membership, seqs, ..
            } => 32 + 4 * membership.len() + 16 * seqs.len(),
            FtmpBody::RemoveProcessor { .. } => 4,
            FtmpBody::Suspect { suspects, .. } => 16 + 4 * suspects.len(),
            FtmpBody::Membership {
                membership,
                seqs,
                new_membership,
                ..
            } => 32 + 4 * (membership.len() + new_membership.len()) + 16 * seqs.len(),
            FtmpBody::OverlayDigest { entries, .. } => 12 + 32 * entries.len(),
        }
    }

    fn encode(&self, w: &mut CdrWriter) {
        match self {
            FtmpBody::Regular {
                conn,
                request_num,
                giop,
            } => {
                conn.encode(w);
                w.write_u64(request_num.0);
                w.write_octet_seq(giop);
            }
            FtmpBody::RetransmitRequest {
                missing_from,
                start_seq,
                stop_seq,
            } => {
                missing_from.encode(w);
                w.write_u64(*start_seq);
                w.write_u64(*stop_seq);
            }
            FtmpBody::Heartbeat => {}
            FtmpBody::ConnectRequest {
                conn,
                client_processors,
            } => {
                conn.encode(w);
                client_processors.encode(w);
            }
            FtmpBody::Connect {
                conn,
                group,
                mcast_addr,
                membership_ts,
                membership,
            } => {
                conn.encode(w);
                w.write_u32(group.0);
                w.write_u32(*mcast_addr);
                w.write_u64(membership_ts.0);
                membership.encode(w);
            }
            FtmpBody::AddProcessor {
                membership_ts,
                membership,
                seqs,
                new_member,
            } => {
                w.write_u64(membership_ts.0);
                membership.encode(w);
                encode_seqs(w, seqs);
                new_member.encode(w);
            }
            FtmpBody::RemoveProcessor { member } => {
                member.encode(w);
            }
            FtmpBody::Suspect {
                membership_ts,
                suspects,
            } => {
                w.write_u64(membership_ts.0);
                suspects.encode(w);
            }
            FtmpBody::Membership {
                membership_ts,
                membership,
                seqs,
                new_membership,
            } => {
                w.write_u64(membership_ts.0);
                membership.encode(w);
                encode_seqs(w, seqs);
                new_membership.encode(w);
            }
            FtmpBody::OverlayDigest { solicit, entries } => {
                w.write_bool(*solicit);
                encode_digest(w, entries);
            }
        }
    }

    fn decode(msg_type: FtmpMsgType, r: &mut CdrReader<'_>) -> Result<FtmpBody, CdrError> {
        Ok(match msg_type {
            FtmpMsgType::Regular => FtmpBody::Regular {
                conn: ConnectionId::decode(r)?,
                request_num: RequestNum(r.read_u64()?),
                giop: Bytes::from(r.read_octet_seq()?),
            },
            FtmpMsgType::RetransmitRequest => FtmpBody::RetransmitRequest {
                missing_from: ProcessorId::decode(r)?,
                start_seq: r.read_u64()?,
                stop_seq: r.read_u64()?,
            },
            FtmpMsgType::Heartbeat => FtmpBody::Heartbeat,
            FtmpMsgType::ConnectRequest => FtmpBody::ConnectRequest {
                conn: ConnectionId::decode(r)?,
                client_processors: Vec::<ProcessorId>::decode(r)?,
            },
            FtmpMsgType::Connect => FtmpBody::Connect {
                conn: ConnectionId::decode(r)?,
                group: GroupId(r.read_u32()?),
                mcast_addr: r.read_u32()?,
                membership_ts: Timestamp(r.read_u64()?),
                membership: Vec::<ProcessorId>::decode(r)?,
            },
            FtmpMsgType::AddProcessor => FtmpBody::AddProcessor {
                membership_ts: Timestamp(r.read_u64()?),
                membership: Vec::<ProcessorId>::decode(r)?,
                seqs: decode_seqs(r)?,
                new_member: ProcessorId::decode(r)?,
            },
            FtmpMsgType::RemoveProcessor => FtmpBody::RemoveProcessor {
                member: ProcessorId::decode(r)?,
            },
            FtmpMsgType::Suspect => FtmpBody::Suspect {
                membership_ts: Timestamp(r.read_u64()?),
                suspects: Vec::<ProcessorId>::decode(r)?,
            },
            FtmpMsgType::Membership => FtmpBody::Membership {
                membership_ts: Timestamp(r.read_u64()?),
                membership: Vec::<ProcessorId>::decode(r)?,
                seqs: decode_seqs(r)?,
                new_membership: Vec::<ProcessorId>::decode(r)?,
            },
            FtmpMsgType::OverlayDigest => FtmpBody::OverlayDigest {
                solicit: r.read_bool()?,
                entries: decode_digest(r)?,
            },
        })
    }
}

/// A complete FTMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtmpMessage {
    /// True on retransmissions.
    pub retransmission: bool,
    /// Originating processor.
    pub source: ProcessorId,
    /// Destination processor group.
    pub group: GroupId,
    /// Per-(source, group) sequence number.
    pub seq: SeqNum,
    /// Message timestamp.
    pub ts: Timestamp,
    /// Acknowledgment timestamp.
    pub ack_ts: Timestamp,
    /// The typed body.
    pub body: FtmpBody,
}

impl FtmpMessage {
    /// The message type (derived from the body).
    pub fn msg_type(&self) -> FtmpMsgType {
        self.body.msg_type()
    }

    /// Encode as header + body in the given byte order.
    pub fn encode(&self, order: ByteOrder) -> Bytes {
        self.encode_flagged(order, self.retransmission, &mut self.body_writer(order))
    }

    /// Encode using a caller-owned body scratch writer, returning the wire
    /// bytes from one exact-size allocation.
    ///
    /// The scratch keeps its buffer across calls, so a steady-state sender
    /// pays a single output allocation per message (the `Bytes` the Send
    /// action, retention store and self-delivery all then share) instead of
    /// a body buffer plus a growing output buffer.
    pub fn encode_with_scratch(&self, order: ByteOrder, scratch: &mut CdrWriter) -> Bytes {
        self.encode_flagged(order, self.retransmission, scratch)
    }

    /// A one-shot body writer for the entry points without a scratch.
    fn body_writer(&self, order: ByteOrder) -> CdrWriter {
        CdrWriter::with_capacity(order, self.body.size_hint())
    }

    /// The one encode routine: body into `scratch`, then header + body into
    /// an exact-size output.
    fn encode_flagged(
        &self,
        order: ByteOrder,
        retransmission: bool,
        scratch: &mut CdrWriter,
    ) -> Bytes {
        scratch.reset(order);
        self.body.encode(scratch);
        let body = scratch.as_bytes();
        let header = FtmpHeader {
            order,
            retransmission,
            msg_type: self.msg_type(),
            size: (FTMP_HEADER_LEN + body.len()) as u32,
            source: self.source,
            group: self.group,
            seq: self.seq,
            ts: self.ts,
            ack_ts: self.ack_ts,
        };
        let mut out = BytesMut::with_capacity(FTMP_HEADER_LEN + body.len());
        out.extend_from_slice(&header.encode());
        out.extend_from_slice(body);
        out.freeze()
    }

    /// The message a decoded header and body make up.
    fn from_parts(h: &FtmpHeader, body: FtmpBody) -> FtmpMessage {
        FtmpMessage {
            retransmission: h.retransmission,
            source: h.source,
            group: h.group,
            seq: h.seq,
            ts: h.ts,
            ack_ts: h.ack_ts,
            body,
        }
    }

    /// Decode a complete message.
    pub fn decode(bytes: &[u8]) -> Result<FtmpMessage, WireError> {
        let (h, body) = FtmpHeader::decode(bytes)?;
        let mut r = CdrReader::new(body, h.order);
        let body = FtmpBody::decode(h.msg_type, &mut r)?;
        r.expect_exhausted()?;
        Ok(Self::from_parts(&h, body))
    }

    /// Decode from a shared buffer. Identical to [`FtmpMessage::decode`]
    /// except that a Regular body's GIOP payload becomes a zero-copy
    /// [`Bytes`] slice of `bytes` instead of a fresh allocation — the
    /// receive hot path keeps exactly one buffer per datagram.
    pub fn decode_shared(bytes: &Bytes) -> Result<FtmpMessage, WireError> {
        let (h, body) = FtmpHeader::decode(bytes)?;
        if h.msg_type != FtmpMsgType::Regular {
            return Self::decode(bytes);
        }
        let mut r = CdrReader::new(body, h.order);
        let conn = ConnectionId::decode(&mut r)?;
        let request_num = RequestNum(r.read_u64()?);
        let len = r.read_seq_len(1)?;
        let start = FTMP_HEADER_LEN + r.position();
        r.read_bytes(len)?;
        r.expect_exhausted()?;
        let body = FtmpBody::Regular {
            conn,
            request_num,
            giop: bytes.slice(start..start + len),
        };
        Ok(Self::from_parts(&h, body))
    }

    /// Re-encode as a retransmission: identical message, retransmission
    /// flag set (§5: "the retransmitted message is identical to the
    /// original"). No clone of the message (or its payload) is made; when
    /// the original wire bytes are still at hand, prefer
    /// [`crate::rmp::RetentionStore::retx_bytes`], which flips the flag on a
    /// shared copy of the received buffer instead of re-encoding at all.
    pub fn as_retransmission(&self, order: ByteOrder) -> Bytes {
        self.encode_flagged(order, true, &mut self.body_writer(order))
    }
}

/// Traffic classifier for [`ftmp_net::SimNet::set_classifier`]: the FTMP
/// message-type octet, or `None` for non-FTMP payloads.
pub fn classify(payload: &[u8]) -> Option<u8> {
    if payload.len() >= FTMP_HEADER_LEN && payload[0..4] == FTMP_MAGIC {
        Some(payload[MSG_TYPE_OFFSET])
    } else {
        None
    }
}

// -- Packed containers (DESIGN.md §5) ---------------------------------------
//
// ```text
// offset  size  field
//  0      4     magic "FTMP"
//  4      1     version (0x10)
//  5      1     flags: bit1 ack-vector trailer present
//  6      1     message type 0x50 (packed container)
//  7      1     message count n (1..=255)
//  8      2n    per-message lengths, u16 big-endian
//  8+2n   ...   n complete FTMP messages, back to back
//  ...    ...   optional trailer: group u32, count u16, then
//               (processor u32, ack timestamp u64) entries — all big-endian
// ```
//
// Container framing is always big-endian; each inner message carries its own
// byte-order flag. The smallest container (one Heartbeat) is 54 bytes, so
// [`classify`] always sees enough bytes to label container traffic `0x50`.

/// A piggybacked ack-timestamp vector: the sender's view of each member's
/// acknowledgment timestamp for one group, carried as a container trailer so
/// receivers learn ack progress without standalone Heartbeats (§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckVector {
    /// The group the timestamps refer to.
    pub group: GroupId,
    /// `(member, highest ack timestamp the sender has recorded)` pairs.
    pub entries: Vec<(ProcessorId, Timestamp)>,
}

/// Encode an ack vector as container-trailer bytes (big-endian framing).
pub fn encode_ack_vector(v: &AckVector) -> Bytes {
    let mut out = BytesMut::with_capacity(6 + 12 * v.entries.len());
    out.extend_from_slice(&v.group.0.to_be_bytes());
    out.extend_from_slice(&(v.entries.len() as u16).to_be_bytes());
    for (p, t) in &v.entries {
        out.extend_from_slice(&p.0.to_be_bytes());
        out.extend_from_slice(&t.0.to_be_bytes());
    }
    out.freeze()
}

/// Decode a container trailer; the slice must hold exactly one vector.
pub fn decode_ack_vector(bytes: &[u8]) -> Result<AckVector, WireError> {
    if bytes.len() < 6 {
        return Err(WireError::Truncated {
            wanted: 6,
            have: bytes.len(),
        });
    }
    let group = GroupId(u32::from_be_bytes(bytes[0..4].try_into().expect("len")));
    let n = u16::from_be_bytes(bytes[4..6].try_into().expect("len")) as usize;
    let want = 6 + 12 * n;
    if bytes.len() != want {
        return Err(WireError::SizeMismatch {
            declared: want as u32,
            actual: bytes.len(),
        });
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let at = 6 + 12 * i;
        entries.push((
            ProcessorId(u32::from_be_bytes(
                bytes[at..at + 4].try_into().expect("len"),
            )),
            Timestamp(u64::from_be_bytes(
                bytes[at + 4..at + 12].try_into().expect("len"),
            )),
        ));
    }
    Ok(AckVector { group, entries })
}

/// Is this payload a packed container?
pub fn is_packed(payload: &[u8]) -> bool {
    payload.len() >= PACKED_PREAMBLE_LEN
        && payload[0..4] == FTMP_MAGIC
        && payload[4] == FTMP_VERSION
        && payload[MSG_TYPE_OFFSET] == PACKED_MSG_TYPE
}

/// Number of FTMP messages a payload carries: the count octet for a packed
/// container, 1 for anything else. Used by the sim's per-message counters.
pub fn message_count(payload: &[u8]) -> u32 {
    if is_packed(payload) {
        payload[PACKED_COUNT_OFFSET] as u32
    } else {
        1
    }
}

/// Frame already-encoded FTMP messages (and an optional pre-encoded ack
/// vector from [`encode_ack_vector`]) into one container datagram.
///
/// The caller guarantees `1..=255` messages, each at most `u16::MAX` bytes —
/// the Packer's MTU budget enforces both long before these limits bind.
pub fn encode_packed(msgs: &[Bytes], trailer: Option<&[u8]>) -> Bytes {
    debug_assert!(!msgs.is_empty() && msgs.len() <= u8::MAX as usize);
    let total: usize = msgs.iter().map(Bytes::len).sum();
    let mut out = BytesMut::with_capacity(
        PACKED_PREAMBLE_LEN
            + msgs.len() * PACKED_PER_MSG_OVERHEAD
            + total
            + trailer.map_or(0, <[u8]>::len),
    );
    out.extend_from_slice(&FTMP_MAGIC);
    let flags = if trailer.is_some() {
        PACKED_ACK_VECTOR_BIT
    } else {
        0
    };
    out.extend_from_slice(&[FTMP_VERSION, flags, PACKED_MSG_TYPE, msgs.len() as u8]);
    for m in msgs {
        debug_assert!(m.len() <= u16::MAX as usize);
        out.extend_from_slice(&(m.len() as u16).to_be_bytes());
    }
    for m in msgs {
        out.extend_from_slice(m);
    }
    if let Some(t) = trailer {
        out.extend_from_slice(t);
    }
    out.freeze()
}

/// Split a container into zero-copy slices of the datagram buffer, one per
/// packed message, plus the piggybacked ack vector if present.
///
/// All framing is validated up front and any inconsistency rejects the whole
/// datagram — a partial container is never delivered. The slices are each a
/// complete standalone FTMP message (what [`FtmpMessage::decode_shared`] and
/// the retention store expect); no per-message copy is made.
pub fn unpack(datagram: &Bytes) -> Result<(Vec<Bytes>, Option<AckVector>), WireError> {
    let mut msgs = Vec::new();
    let vector = unpack_into(datagram, &mut msgs)?;
    Ok((msgs, vector))
}

/// [`unpack`] into a caller-kept vector (cleared first), so a receive path
/// splitting one container after another allocates no slice list for each.
/// On an error `msgs` holds no complete container and is to be cleared.
pub(crate) fn unpack_into(
    datagram: &Bytes,
    msgs: &mut Vec<Bytes>,
) -> Result<Option<AckVector>, WireError> {
    msgs.clear();
    if datagram.len() < PACKED_PREAMBLE_LEN {
        return Err(WireError::Truncated {
            wanted: PACKED_PREAMBLE_LEN,
            have: datagram.len(),
        });
    }
    let magic = [datagram[0], datagram[1], datagram[2], datagram[3]];
    if magic != FTMP_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if datagram[4] != FTMP_VERSION {
        return Err(WireError::BadVersion(datagram[4]));
    }
    if datagram[MSG_TYPE_OFFSET] != PACKED_MSG_TYPE {
        return Err(WireError::BadMsgType(datagram[MSG_TYPE_OFFSET]));
    }
    let count = datagram[PACKED_COUNT_OFFSET] as usize;
    if count == 0 {
        return Err(WireError::SizeMismatch {
            declared: 0,
            actual: datagram.len(),
        });
    }
    let lengths_end = PACKED_PREAMBLE_LEN + count * PACKED_PER_MSG_OVERHEAD;
    if datagram.len() < lengths_end {
        return Err(WireError::Truncated {
            wanted: lengths_end,
            have: datagram.len(),
        });
    }
    msgs.reserve_exact(count);
    let mut at = lengths_end;
    for i in 0..count {
        let lo = PACKED_PREAMBLE_LEN + i * PACKED_PER_MSG_OVERHEAD;
        let len = u16::from_be_bytes([datagram[lo], datagram[lo + 1]]) as usize;
        if len < FTMP_HEADER_LEN {
            return Err(WireError::Truncated {
                wanted: FTMP_HEADER_LEN,
                have: len,
            });
        }
        if datagram.len() < at + len {
            return Err(WireError::Truncated {
                wanted: at + len,
                have: datagram.len(),
            });
        }
        msgs.push(datagram.slice(at..at + len));
        at += len;
    }
    let vector = if datagram[5] & PACKED_ACK_VECTOR_BIT != 0 {
        // decode_ack_vector requires exact consumption of the remainder.
        Some(decode_ack_vector(&datagram[at..])?)
    } else {
        if at != datagram.len() {
            return Err(WireError::SizeMismatch {
                declared: at as u32,
                actual: datagram.len(),
            });
        }
        None
    };
    Ok(vector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(body: FtmpBody) -> FtmpMessage {
        FtmpMessage {
            retransmission: false,
            source: ProcessorId(3),
            group: GroupId(7),
            seq: SeqNum(42),
            ts: Timestamp(1000),
            ack_ts: Timestamp(900),
            body,
        }
    }

    fn conn() -> ConnectionId {
        ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(2, 20))
    }

    fn rt(m: &FtmpMessage) {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let bytes = m.encode(order);
            let back = FtmpMessage::decode(&bytes).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn header_is_44_bytes_and_round_trips() {
        let h = FtmpHeader {
            order: ByteOrder::Little,
            retransmission: true,
            msg_type: FtmpMsgType::Suspect,
            size: FTMP_HEADER_LEN as u32,
            source: ProcessorId(1),
            group: GroupId(2),
            seq: SeqNum(3),
            ts: Timestamp(4),
            ack_ts: Timestamp(5),
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), FTMP_HEADER_LEN);
        let (back, body) = FtmpHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert!(body.is_empty());
    }

    #[test]
    fn all_bodies_round_trip() {
        rt(&msg(FtmpBody::Regular {
            conn: conn(),
            request_num: RequestNum(5),
            giop: Bytes::from_static(b"GIOP....payload"),
        }));
        rt(&msg(FtmpBody::RetransmitRequest {
            missing_from: ProcessorId(9),
            start_seq: 10,
            stop_seq: 14,
        }));
        rt(&msg(FtmpBody::Heartbeat));
        rt(&msg(FtmpBody::ConnectRequest {
            conn: conn(),
            client_processors: vec![ProcessorId(1), ProcessorId(2)],
        }));
        rt(&msg(FtmpBody::Connect {
            conn: conn(),
            group: GroupId(77),
            mcast_addr: 0xE000_0001,
            membership_ts: Timestamp(50),
            membership: vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)],
        }));
        rt(&msg(FtmpBody::AddProcessor {
            membership_ts: Timestamp(60),
            membership: vec![ProcessorId(1), ProcessorId(2)],
            seqs: vec![(ProcessorId(1), 4), (ProcessorId(2), 9)],
            new_member: ProcessorId(3),
        }));
        rt(&msg(FtmpBody::RemoveProcessor {
            member: ProcessorId(2),
        }));
        rt(&msg(FtmpBody::Suspect {
            membership_ts: Timestamp(70),
            suspects: vec![ProcessorId(5)],
        }));
        rt(&msg(FtmpBody::Membership {
            membership_ts: Timestamp(80),
            membership: vec![ProcessorId(1), ProcessorId(2), ProcessorId(5)],
            seqs: vec![(ProcessorId(1), 100), (ProcessorId(2), 90)],
            new_membership: vec![ProcessorId(1), ProcessorId(2)],
        }));
        rt(&msg(FtmpBody::OverlayDigest {
            solicit: false,
            entries: vec![
                (ProcessorId(2), 14, Timestamp(900), Timestamp(850)),
                (ProcessorId(3), 0, Timestamp(0), Timestamp(0)),
            ],
        }));
        rt(&msg(FtmpBody::OverlayDigest {
            solicit: true,
            entries: vec![],
        }));
    }

    #[test]
    fn fig3_guarantee_matrix() {
        use FtmpMsgType::*;
        // Reliable column (with the paper's exceptions handled at PGMP).
        for t in [
            Regular,
            Connect,
            AddProcessor,
            RemoveProcessor,
            Suspect,
            Membership,
        ] {
            assert!(t.is_reliable(), "{t:?} must be reliable");
        }
        for t in [RetransmitRequest, Heartbeat, ConnectRequest, OverlayDigest] {
            assert!(!t.is_reliable(), "{t:?} must be unreliable");
        }
        // Totally-ordered column.
        for t in [Regular, Connect, AddProcessor, RemoveProcessor] {
            assert!(t.is_totally_ordered(), "{t:?} must be totally ordered");
        }
        for t in [
            RetransmitRequest,
            Heartbeat,
            ConnectRequest,
            Suspect,
            Membership,
            OverlayDigest,
        ] {
            assert!(!t.is_totally_ordered(), "{t:?} must not be totally ordered");
        }
    }

    #[test]
    fn retransmission_flag_only_difference() {
        let m = msg(FtmpBody::Heartbeat);
        let orig = m.encode(ByteOrder::Big);
        let retrans = m.as_retransmission(ByteOrder::Big);
        let back = FtmpMessage::decode(&retrans).unwrap();
        assert!(back.retransmission);
        // Identical except the flags octet.
        assert_eq!(orig.len(), retrans.len());
        let diffs: Vec<usize> = (0..orig.len()).filter(|&i| orig[i] != retrans[i]).collect();
        assert_eq!(diffs, vec![5]);
    }

    #[test]
    fn classifier_reads_type_octet() {
        let m = msg(FtmpBody::Suspect {
            membership_ts: Timestamp(1),
            suspects: vec![],
        });
        let bytes = m.encode(ByteOrder::Big);
        assert_eq!(classify(&bytes), Some(FtmpMsgType::Suspect as u8));
        assert_eq!(
            classify(b"GIOPnotftmp_and_long_enough_to_reach_44_bytes!!!"),
            None
        );
        assert_eq!(classify(&[]), None);
    }

    /// A mutable copy of the encoding, for tests that corrupt bytes in place.
    fn encode_mut(m: &FtmpMessage, order: ByteOrder) -> BytesMut {
        BytesMut::from(&m.encode(order)[..])
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(matches!(
            FtmpMessage::decode(&[0u8; 10]),
            Err(WireError::Truncated { .. })
        ));
        let m = msg(FtmpBody::Heartbeat);
        let mut bytes = encode_mut(&m, ByteOrder::Big);
        bytes[0] = b'X';
        assert!(matches!(
            FtmpMessage::decode(&bytes),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = encode_mut(&m, ByteOrder::Big);
        bytes[4] = 0x20;
        assert!(matches!(
            FtmpMessage::decode(&bytes),
            Err(WireError::BadVersion(0x20))
        ));
        let mut bytes = encode_mut(&m, ByteOrder::Big);
        bytes[MSG_TYPE_OFFSET] = 99;
        assert!(matches!(
            FtmpMessage::decode(&bytes),
            Err(WireError::BadMsgType(99))
        ));
    }

    #[test]
    fn size_field_checked() {
        let m = msg(FtmpBody::Regular {
            conn: conn(),
            request_num: RequestNum(1),
            giop: Bytes::from_static(b"0123456789"),
        });
        let bytes = encode_mut(&m, ByteOrder::Big);
        // Truncate mid-body.
        assert!(matches!(
            FtmpMessage::decode(&bytes[..bytes.len() - 4]),
            Err(WireError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn encode_with_scratch_matches_encode() {
        let m = msg(FtmpBody::Regular {
            conn: conn(),
            request_num: RequestNum(5),
            giop: Bytes::from_static(b"GIOP....payload"),
        });
        // One scratch across messages and byte orders: whatever the last
        // encode left in it never leaks into the next.
        let mut scratch = CdrWriter::new(ByteOrder::Big);
        for order in [ByteOrder::Big, ByteOrder::Little, ByteOrder::Big] {
            let hb = msg(FtmpBody::Heartbeat);
            assert_eq!(
                hb.encode_with_scratch(order, &mut scratch),
                hb.encode(order)
            );
            assert_eq!(m.encode_with_scratch(order, &mut scratch), m.encode(order));
        }
    }

    #[test]
    fn decode_shared_is_zero_copy_and_equivalent() {
        let m = msg(FtmpBody::Regular {
            conn: conn(),
            request_num: RequestNum(5),
            giop: Bytes::from_static(b"GIOP....payload"),
        });
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let bytes = m.encode(order);
            let shared = FtmpMessage::decode_shared(&bytes).unwrap();
            assert_eq!(shared, FtmpMessage::decode(&bytes).unwrap());
            let FtmpBody::Regular { giop, .. } = &shared.body else {
                panic!("regular body");
            };
            // The GIOP payload points into the datagram buffer, not a copy.
            let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
            assert!(range.contains(&(giop.as_ptr() as usize)));
        }
        // Non-regular types delegate to plain decode.
        let hb = msg(FtmpBody::Heartbeat).encode(ByteOrder::Big);
        assert_eq!(
            FtmpMessage::decode_shared(&hb).unwrap(),
            FtmpMessage::decode(&hb).unwrap()
        );
    }

    // -- Packed-container tests ---------------------------------------------

    fn hb(src: u32, seq: u64) -> Bytes {
        FtmpMessage {
            retransmission: false,
            source: ProcessorId(src),
            group: GroupId(7),
            seq: SeqNum(seq),
            ts: Timestamp(seq.wrapping_mul(10)),
            ack_ts: Timestamp(seq),
            body: FtmpBody::Heartbeat,
        }
        .encode(ByteOrder::Big)
    }

    fn vector() -> AckVector {
        AckVector {
            group: GroupId(7),
            entries: vec![
                (ProcessorId(1), Timestamp(100)),
                (ProcessorId(2), Timestamp(90)),
            ],
        }
    }

    #[test]
    fn container_round_trips_without_trailer() {
        let msgs = vec![hb(1, 1), hb(2, 2), hb(3, 3)];
        let packed = encode_packed(&msgs, None);
        assert!(is_packed(&packed));
        assert_eq!(message_count(&packed), 3);
        assert_eq!(classify(&packed), Some(PACKED_MSG_TYPE));
        let (back, v) = unpack(&packed).unwrap();
        assert_eq!(back, msgs);
        assert!(v.is_none());
        // Slices are zero-copy views of the datagram buffer.
        let range = packed.as_ptr() as usize..packed.as_ptr() as usize + packed.len();
        for m in &back {
            assert!(range.contains(&(m.as_ptr() as usize)));
        }
    }

    #[test]
    fn container_round_trips_with_trailer() {
        let msgs = vec![hb(1, 1), hb(2, 2)];
        let trailer = encode_ack_vector(&vector());
        let packed = encode_packed(&msgs, Some(&trailer));
        let (back, v) = unpack(&packed).unwrap();
        assert_eq!(back, msgs);
        assert_eq!(v, Some(vector()));
        // Every inner slice still decodes as a standalone message.
        for m in &back {
            FtmpMessage::decode_shared(m).unwrap();
        }
    }

    #[test]
    fn plain_decode_rejects_container() {
        let packed = encode_packed(&[hb(1, 1)], None);
        assert!(matches!(
            FtmpMessage::decode(&packed),
            Err(WireError::BadMsgType(PACKED_MSG_TYPE))
        ));
    }

    #[test]
    fn single_heartbeat_container_classifiable() {
        // The smallest container must still clear the classifier's 44-byte
        // floor, or packed traffic would be invisible to per-kind stats.
        let packed = encode_packed(&[hb(1, 1)], None);
        assert_eq!(packed.len(), PACKED_PREAMBLE_LEN + 2 + FTMP_HEADER_LEN);
        assert!(packed.len() >= FTMP_HEADER_LEN);
        assert_eq!(classify(&packed), Some(PACKED_MSG_TYPE));
    }

    #[test]
    fn corrupt_containers_rejected_whole() {
        let msgs = vec![hb(1, 1), hb(2, 2)];
        let good = encode_packed(&msgs, None);

        // Truncated mid-message.
        let cut = good.slice(..good.len() - 5);
        assert!(matches!(unpack(&cut), Err(WireError::Truncated { .. })));

        // Count octet claims more messages than present.
        let mut b = BytesMut::from(&good[..]);
        b[PACKED_COUNT_OFFSET] = 9;
        assert!(unpack(&b.freeze()).is_err());

        // Length prefix below the header floor.
        let mut b = BytesMut::from(&good[..]);
        b[PACKED_PREAMBLE_LEN] = 0;
        b[PACKED_PREAMBLE_LEN + 1] = 10;
        assert!(matches!(
            unpack(&b.freeze()),
            Err(WireError::Truncated {
                wanted: FTMP_HEADER_LEN,
                have: 10
            })
        ));

        // Trailing garbage without the trailer flag.
        let mut b = BytesMut::from(&good[..]);
        b.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            unpack(&b.freeze()),
            Err(WireError::SizeMismatch { .. })
        ));

        // Trailer flag set but trailer truncated.
        let trailer = encode_ack_vector(&vector());
        let with = encode_packed(&msgs, Some(&trailer));
        let cut = with.slice(..with.len() - 4);
        assert!(unpack(&cut).is_err());

        // Zero-count container.
        let mut b = BytesMut::from(&good[..]);
        b[PACKED_COUNT_OFFSET] = 0;
        assert!(unpack(&b.freeze()).is_err());

        // Wrong type octet.
        let mut b = BytesMut::from(&good[..]);
        b[MSG_TYPE_OFFSET] = FtmpMsgType::Heartbeat as u8;
        assert!(matches!(unpack(&b.freeze()), Err(WireError::BadMsgType(_))));
    }

    #[test]
    fn ack_vector_round_trips() {
        let v = vector();
        let bytes = encode_ack_vector(&v);
        assert_eq!(decode_ack_vector(&bytes).unwrap(), v);
        let empty = AckVector {
            group: GroupId(0),
            entries: vec![],
        };
        assert_eq!(
            decode_ack_vector(&encode_ack_vector(&empty)).unwrap(),
            empty
        );
        assert!(decode_ack_vector(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_ack_vector(&[]).is_err());
    }

    proptest! {
        /// Any batch of encodable messages survives pack→unpack bit-for-bit,
        /// with or without a trailer.
        #[test]
        fn prop_pack_unpack_identity(
            seqs in proptest::collection::vec((any::<u32>(), any::<u64>()), 1..20),
            with_trailer: bool,
            entries in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
        ) {
            let msgs: Vec<Bytes> = seqs
                .iter()
                .map(|(src, seq)| hb(*src, *seq))
                .collect();
            let v = AckVector {
                group: GroupId(7),
                entries: entries
                    .iter()
                    .map(|(p, t)| (ProcessorId(*p), Timestamp(*t)))
                    .collect(),
            };
            let trailer = encode_ack_vector(&v);
            let packed = encode_packed(&msgs, with_trailer.then_some(&trailer[..]));
            let (back, got_v) = unpack(&packed).unwrap();
            prop_assert_eq!(back, msgs);
            prop_assert_eq!(got_v, with_trailer.then_some(v));
        }

        /// Arbitrary corruption of a valid container never panics and never
        /// yields a different message set silently larger than the original.
        #[test]
        fn prop_container_bitflip_never_panics(
            flip_byte in 0usize..150,
            flip_bit in 0u8..8,
        ) {
            let msgs = vec![hb(1, 1), hb(2, 2)];
            let good = encode_packed(&msgs, Some(&encode_ack_vector(&vector())));
            let mut b = BytesMut::from(&good[..]);
            if flip_byte < b.len() {
                b[flip_byte] ^= 1 << flip_bit;
            }
            let _ = unpack(&b.freeze());
        }
    }

    #[test]
    fn fig2_encapsulation_layout() {
        // IP | FTMP header | GIOP header | data — the GIOP magic must sit
        // exactly FTMP_HEADER_LEN + the Regular preamble into the payload.
        let giop = ftmp_giop::GiopMessage::Request {
            header: ftmp_giop::RequestHeader {
                service_context: vec![],
                request_id: 1,
                response_expected: true,
                object_key: b"k".to_vec(),
                operation: "m".into(),
                requesting_principal: vec![],
            },
            body: vec![1, 2, 3],
        }
        .encode(ByteOrder::Big);
        let giop = Bytes::from(giop);
        let m = msg(FtmpBody::Regular {
            conn: conn(),
            request_num: RequestNum(1),
            giop: giop.clone(),
        });
        let bytes = m.encode(ByteOrder::Big);
        let giop_pos = bytes
            .windows(4)
            .position(|w| w == b"GIOP")
            .expect("GIOP magic embedded");
        assert!(giop_pos >= FTMP_HEADER_LEN);
        assert_eq!(&bytes[giop_pos..giop_pos + giop.len()], &giop[..]);
    }

    proptest! {
        #[test]
        fn prop_regular_round_trip(
            src: u32, grp: u32, seq: u64, ts: u64, ack: u64, rn: u64,
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            little: bool, retrans: bool,
        ) {
            let m = FtmpMessage {
                retransmission: retrans,
                source: ProcessorId(src),
                group: GroupId(grp),
                seq: SeqNum(seq),
                ts: Timestamp(ts),
                ack_ts: Timestamp(ack),
                body: FtmpBody::Regular {
                    conn: conn(),
                    request_num: RequestNum(rn),
                    giop: Bytes::from(payload),
                },
            };
            let order = ByteOrder::from_flag(little);
            let bytes = m.encode(order);
            prop_assert_eq!(FtmpMessage::decode(&bytes).unwrap(), m);
        }

        #[test]
        fn prop_membership_round_trip(
            members in proptest::collection::vec(any::<u32>(), 0..16),
            seqs in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..16),
            ts: u64, little: bool,
        ) {
            let m = msg(FtmpBody::Membership {
                membership_ts: Timestamp(ts),
                membership: members.iter().copied().map(ProcessorId).collect(),
                seqs: seqs.iter().map(|(p, s)| (ProcessorId(*p), *s)).collect(),
                new_membership: members.iter().copied().map(ProcessorId).collect(),
            });
            let order = ByteOrder::from_flag(little);
            prop_assert_eq!(FtmpMessage::decode(&m.encode(order)).unwrap(), m);
        }

        #[test]
        fn prop_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = FtmpMessage::decode(&bytes);
            let _ = classify(&bytes);
        }

        #[test]
        fn prop_decode_bitflip_never_panics(
            flip_byte in 0usize..120,
            flip_bit in 0u8..8,
        ) {
            let m = msg(FtmpBody::Connect {
                conn: conn(),
                group: GroupId(1),
                mcast_addr: 2,
                membership_ts: Timestamp(3),
                membership: vec![ProcessorId(1), ProcessorId(2)],
            });
            let mut bytes = m.encode(ByteOrder::Big).to_vec();
            if flip_byte < bytes.len() {
                bytes[flip_byte] ^= 1 << flip_bit;
            }
            let _ = FtmpMessage::decode(&bytes);
        }
    }
}

#[cfg(test)]
mod body_proptests {
    //! Property coverage for every body type with arbitrary field values.
    use super::*;
    use proptest::prelude::*;

    fn pids(max: usize) -> impl Strategy<Value = Vec<ProcessorId>> {
        proptest::collection::vec(any::<u32>().prop_map(ProcessorId), 0..max)
    }

    fn seqs(max: usize) -> impl Strategy<Value = SeqVector> {
        proptest::collection::vec((any::<u32>().prop_map(ProcessorId), any::<u64>()), 0..max)
    }

    fn conn_strategy() -> impl Strategy<Value = ConnectionId> {
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c, d)| {
            ConnectionId::new(ObjectGroupId::new(a, b), ObjectGroupId::new(c, d))
        })
    }

    fn body_strategy() -> impl Strategy<Value = FtmpBody> {
        prop_oneof![
            (
                conn_strategy(),
                any::<u64>(),
                proptest::collection::vec(any::<u8>(), 0..64)
            )
                .prop_map(|(conn, rn, giop)| FtmpBody::Regular {
                    conn,
                    request_num: RequestNum(rn),
                    giop: Bytes::from(giop),
                }),
            (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(p, a, b)| {
                FtmpBody::RetransmitRequest {
                    missing_from: ProcessorId(p),
                    start_seq: a.min(b),
                    stop_seq: a.max(b),
                }
            }),
            Just(FtmpBody::Heartbeat),
            (conn_strategy(), pids(8)).prop_map(|(conn, client_processors)| {
                FtmpBody::ConnectRequest {
                    conn,
                    client_processors,
                }
            }),
            (
                conn_strategy(),
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                pids(8)
            )
                .prop_map(|(conn, g, addr, ts, membership)| FtmpBody::Connect {
                    conn,
                    group: GroupId(g),
                    mcast_addr: addr,
                    membership_ts: Timestamp(ts),
                    membership,
                }),
            (any::<u64>(), pids(8), seqs(8), any::<u32>()).prop_map(
                |(ts, membership, seqs, nm)| FtmpBody::AddProcessor {
                    membership_ts: Timestamp(ts),
                    membership,
                    seqs,
                    new_member: ProcessorId(nm),
                }
            ),
            any::<u32>().prop_map(|m| FtmpBody::RemoveProcessor {
                member: ProcessorId(m),
            }),
            (any::<u64>(), pids(8)).prop_map(|(ts, suspects)| FtmpBody::Suspect {
                membership_ts: Timestamp(ts),
                suspects,
            }),
            (any::<u64>(), pids(8), seqs(8), pids(8)).prop_map(
                |(ts, membership, seqs, new_membership)| FtmpBody::Membership {
                    membership_ts: Timestamp(ts),
                    membership,
                    seqs,
                    new_membership,
                }
            ),
        ]
    }

    proptest! {
        /// Every body type round-trips with arbitrary field values, in both
        /// byte orders, with arbitrary header fields.
        #[test]
        fn prop_every_body_round_trips(
            body in body_strategy(),
            src: u32, grp: u32, seq: u64, ts: u64, ack: u64,
            little: bool, retrans: bool,
        ) {
            let msg = FtmpMessage {
                retransmission: retrans,
                source: ProcessorId(src),
                group: GroupId(grp),
                seq: SeqNum(seq),
                ts: Timestamp(ts),
                ack_ts: Timestamp(ack),
                body,
            };
            let order = ByteOrder::from_flag(little);
            let bytes = msg.encode(order);
            prop_assert_eq!(FtmpMessage::decode(&bytes).unwrap(), msg);
        }

        /// Encoded size always matches the header's declared size, and the
        /// classifier octet matches the body's type.
        #[test]
        fn prop_size_and_classifier_consistent(body in body_strategy(), little: bool) {
            let msg = FtmpMessage {
                retransmission: false,
                source: ProcessorId(1),
                group: GroupId(1),
                seq: SeqNum(1),
                ts: Timestamp(1),
                ack_ts: Timestamp(0),
                body,
            };
            let order = ByteOrder::from_flag(little);
            let bytes = msg.encode(order);
            let (h, rest) = FtmpHeader::decode(&bytes).unwrap();
            prop_assert_eq!(h.size as usize, bytes.len());
            prop_assert_eq!(rest.len(), bytes.len() - FTMP_HEADER_LEN);
            prop_assert_eq!(classify(&bytes), Some(msg.msg_type() as u8));
        }
    }
}
