//! The typed observation stream for runtime conformance checking
//! (DESIGN.md §9).
//!
//! A [`Processor`](crate::Processor) can record the externally meaningful
//! events of an execution — deliveries, view installations, sends, ack
//! evidence, retention and reclamation, suspicion and conviction — as a
//! stream of [`Observation`]s. The stream is the input language of the
//! `ftmp-check` oracles: each oracle consumes observations incrementally
//! and flags the first one that violates a paper property (reliability,
//! source/causal/total order, virtual synchrony, duplicate suppression,
//! buffer-reclamation safety).
//!
//! Recording is **off by default and zero-cost when off**. The shell never
//! builds an observation: it reports borrowed events to its
//! instrumentation tap (`tap.rs`, DESIGN.md §9), and only when recording is
//! enabled is an event projected into the owned value kept here. The
//! default wire behaviour (pinned by the golden trace-hash test) and the
//! hot-path allocation profile are untouched.
//!
//! On disk — a socket runtime's trace, replayed by `ftmp-check` — the
//! stream is a log of `ftmp-store`'s segments and frames, one binary
//! record per observation (`ftmp_store::trace`).

use crate::ids::{ConnectionId, GroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use crate::tap::Event;

/// One externally meaningful protocol event, as seen by a single processor.
///
/// Observations are recorded in the exact order the processor performed the
/// corresponding state transitions; relative order is load-bearing (e.g. an
/// [`Observation::Acked`] recorded before an [`Observation::Reclaimed`]
/// justifies the reclamation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A Regular GIOP message reached its total-order position and was
    /// handed to the application (`Action::Deliver`).
    Delivered {
        /// Group the delivery happened in.
        group: GroupId,
        /// Connection the request was multicast on.
        conn: ConnectionId,
        /// ORB-level request number (duplicate-suppression key with `conn`).
        request: RequestNum,
        /// Originating processor.
        source: ProcessorId,
        /// RMP sequence number within the source's stream.
        seq: SeqNum,
        /// ROMP message timestamp (total-order key with `source`).
        ts: Timestamp,
    },
    /// A membership view took effect at this processor: the initial view,
    /// an ordered AddProcessor/RemoveProcessor, a committed join (at the
    /// joiner), or a completed reconfiguration.
    ViewInstalled {
        /// Group whose membership changed.
        group: GroupId,
        /// The full new membership.
        members: Vec<ProcessorId>,
        /// The view's identity: the membership timestamp all members of the
        /// view agree on.
        ts: Timestamp,
    },
    /// A reliable message left this processor (Regular, Suspect, Membership,
    /// AddProcessor, RemoveProcessor or Connect — everything that occupies a
    /// sequence slot).
    Sent {
        /// Group the message was multicast to.
        group: GroupId,
        /// Allocated sequence number.
        seq: SeqNum,
        /// Stamped message timestamp.
        ts: Timestamp,
    },
    /// Ack evidence: this processor learned (from a message header, header
    /// evidence or a piggybacked ack vector) that `member` acknowledged
    /// everything up to `ts`.
    Acked {
        /// Group the evidence applies to.
        group: GroupId,
        /// The acknowledging member.
        member: ProcessorId,
        /// The member's reported ack timestamp.
        ts: Timestamp,
    },
    /// A reliable message entered the any-holder retention store (first
    /// reception only; duplicates do not re-retain).
    Retained {
        /// Group the message belongs to.
        group: GroupId,
        /// Originating processor.
        source: ProcessorId,
        /// Sequence number within the source's stream.
        seq: SeqNum,
        /// Message timestamp (what reclamation compares against stability).
        ts: Timestamp,
    },
    /// Buffer reclamation dropped retained messages with `ts <= stable_ts`
    /// (§6: safe only once every member acknowledged past them).
    Reclaimed {
        /// Group whose retention store was trimmed.
        group: GroupId,
        /// The stability timestamp the reclamation used.
        stable_ts: Timestamp,
        /// How many retained messages were dropped.
        count: usize,
    },
    /// The local fault detector began suspecting `suspect` (§7.2).
    Suspected {
        /// Group the suspicion applies to.
        group: GroupId,
        /// The newly suspected member.
        suspect: ProcessorId,
    },
    /// A suspicion quorum convicted `convicted`; reconfiguration removed it
    /// (`ProtocolEvent::FaultReport`).
    Convicted {
        /// Group the conviction applies to.
        group: GroupId,
        /// The removed processor.
        convicted: ProcessorId,
    },
}

impl Observation {
    /// Append `ev`'s observable projection to `out`: one observation for
    /// most events, one per entry for a piggybacked ack vector, none for
    /// the events only telemetry reads. Order of emission is order of
    /// recording.
    pub(crate) fn project(ev: &Event<'_>, out: &mut Vec<Observation>) {
        out.push(match *ev {
            Event::Delivered(d) => Observation::Delivered {
                group: d.group,
                conn: d.conn,
                request: d.request_num,
                source: d.source,
                seq: d.seq,
                ts: d.ts,
            },
            Event::ViewInstalled { group, members, ts } => Observation::ViewInstalled {
                group,
                members: members.iter().copied().collect(),
                ts,
            },
            Event::Sent { group, seq, ts, .. } => Observation::Sent { group, seq, ts },
            Event::Acked { group, member, ts } => Observation::Acked { group, member, ts },
            Event::AckVector(v) => {
                out.extend(v.entries.iter().map(|&(member, ts)| Observation::Acked {
                    group: v.group,
                    member,
                    ts,
                }));
                return;
            }
            Event::Retained {
                group,
                source,
                seq,
                ts,
            } => Observation::Retained {
                group,
                source,
                seq,
                ts,
            },
            Event::Stable {
                group,
                stable_ts,
                reclaimed,
            } if reclaimed > 0 => Observation::Reclaimed {
                group,
                stable_ts,
                count: reclaimed,
            },
            Event::Suspected { group, suspect } => Observation::Suspected { group, suspect },
            Event::Convicted { group, processor } => Observation::Convicted {
                group,
                convicted: processor,
            },
            _ => return,
        });
    }
}
