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

use crate::ids::{
    ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use crate::tap::Event;
use std::fmt::Write as _;

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

    /// The group this observation belongs to.
    pub fn group(&self) -> GroupId {
        match self {
            Observation::Delivered { group, .. }
            | Observation::ViewInstalled { group, .. }
            | Observation::Sent { group, .. }
            | Observation::Acked { group, .. }
            | Observation::Retained { group, .. }
            | Observation::Reclaimed { group, .. }
            | Observation::Suspected { group, .. }
            | Observation::Convicted { group, .. } => *group,
        }
    }

    /// Short label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Observation::Delivered { .. } => "Delivered",
            Observation::ViewInstalled { .. } => "ViewInstalled",
            Observation::Sent { .. } => "Sent",
            Observation::Acked { .. } => "Acked",
            Observation::Retained { .. } => "Retained",
            Observation::Reclaimed { .. } => "Reclaimed",
            Observation::Suspected { .. } => "Suspected",
            Observation::Convicted { .. } => "Convicted",
        }
    }

    /// Encode as one space-separated text line (the on-disk trace schema
    /// shared by the real-socket runtime's recorder and `ftmp-check`'s
    /// trace-file replay). Round-trips exactly through [`parse_line`].
    ///
    /// [`parse_line`]: Observation::parse_line
    pub fn encode_line(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str(self.kind());
        let _ = match self {
            Observation::Delivered {
                group,
                conn,
                request,
                source,
                seq,
                ts,
            } => write!(
                s,
                " g={} c={} r={} s={} q={} t={}",
                group.0,
                encode_conn(conn),
                request.0,
                source.0,
                seq.0,
                ts.0
            ),
            Observation::ViewInstalled { group, members, ts } => {
                let list = members
                    .iter()
                    .map(|p| p.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                write!(s, " g={} t={} m={}", group.0, ts.0, list)
            }
            Observation::Sent { group, seq, ts } => {
                write!(s, " g={} q={} t={}", group.0, seq.0, ts.0)
            }
            Observation::Acked { group, member, ts } => {
                write!(s, " g={} p={} t={}", group.0, member.0, ts.0)
            }
            Observation::Retained {
                group,
                source,
                seq,
                ts,
            } => write!(s, " g={} s={} q={} t={}", group.0, source.0, seq.0, ts.0),
            Observation::Reclaimed {
                group,
                stable_ts,
                count,
            } => write!(s, " g={} t={} n={}", group.0, stable_ts.0, count),
            Observation::Suspected { group, suspect } => {
                write!(s, " g={} p={}", group.0, suspect.0)
            }
            Observation::Convicted { group, convicted } => {
                write!(s, " g={} p={}", group.0, convicted.0)
            }
        };
        s
    }

    /// Parse a line produced by [`encode_line`]. Returns `None` on any
    /// malformed input (unknown kind, missing or unparsable field) — a torn
    /// final line in a crash-truncated trace file parses as `None` rather
    /// than panicking.
    ///
    /// [`encode_line`]: Observation::encode_line
    pub fn parse_line(line: &str) -> Option<Observation> {
        let mut toks = line.split_ascii_whitespace();
        let kind = toks.next()?;
        let mut fields = Fields::default();
        for tok in toks {
            let (k, v) = tok.split_once('=')?;
            match k {
                "g" => fields.g = Some(v.parse().ok()?),
                "c" => fields.c = Some(parse_conn(v)?),
                "r" => fields.r = Some(v.parse().ok()?),
                "s" => fields.s = Some(v.parse().ok()?),
                "q" => fields.q = Some(v.parse().ok()?),
                "t" => fields.t = Some(v.parse().ok()?),
                "p" => fields.p = Some(v.parse().ok()?),
                "n" => fields.n = Some(v.parse().ok()?),
                "m" => {
                    let mut members = Vec::new();
                    if !v.is_empty() {
                        for part in v.split(',') {
                            members.push(ProcessorId(part.parse().ok()?));
                        }
                    }
                    fields.m = Some(members);
                }
                _ => return None,
            }
        }
        let g = GroupId(fields.g?);
        Some(match kind {
            "Delivered" => Observation::Delivered {
                group: g,
                conn: fields.c?,
                request: RequestNum(fields.r?),
                source: ProcessorId(fields.s?),
                seq: SeqNum(fields.q?),
                ts: Timestamp(fields.t?),
            },
            "ViewInstalled" => Observation::ViewInstalled {
                group: g,
                members: fields.m?,
                ts: Timestamp(fields.t?),
            },
            "Sent" => Observation::Sent {
                group: g,
                seq: SeqNum(fields.q?),
                ts: Timestamp(fields.t?),
            },
            "Acked" => Observation::Acked {
                group: g,
                member: ProcessorId(fields.p?),
                ts: Timestamp(fields.t?),
            },
            "Retained" => Observation::Retained {
                group: g,
                source: ProcessorId(fields.s?),
                seq: SeqNum(fields.q?),
                ts: Timestamp(fields.t?),
            },
            "Reclaimed" => Observation::Reclaimed {
                group: g,
                stable_ts: Timestamp(fields.t?),
                count: fields.n?,
            },
            "Suspected" => Observation::Suspected {
                group: g,
                suspect: ProcessorId(fields.p?),
            },
            "Convicted" => Observation::Convicted {
                group: g,
                convicted: ProcessorId(fields.p?),
            },
            _ => return None,
        })
    }
}

/// Key=value scratch for [`Observation::parse_line`].
#[derive(Default)]
struct Fields {
    g: Option<u32>,
    c: Option<ConnectionId>,
    r: Option<u64>,
    s: Option<u32>,
    q: Option<u64>,
    t: Option<u64>,
    p: Option<u32>,
    n: Option<usize>,
    m: Option<Vec<ProcessorId>>,
}

/// `ConnectionId` as `cd.cg-sd.sg` (client domain.group - server
/// domain.group).
fn encode_conn(c: &ConnectionId) -> String {
    format!(
        "{}.{}-{}.{}",
        c.client.domain.0, c.client.group, c.server.domain.0, c.server.group
    )
}

fn parse_conn(v: &str) -> Option<ConnectionId> {
    let (client, server) = v.split_once('-')?;
    let parse_og = |s: &str| -> Option<ObjectGroupId> {
        let (d, g) = s.split_once('.')?;
        Some(ObjectGroupId::new(d.parse().ok()?, g.parse().ok()?))
    };
    Some(ConnectionId::new(parse_og(client)?, parse_og(server)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Observation> {
        let conn = ConnectionId::new(ObjectGroupId::new(1, 10), ObjectGroupId::new(2, 20));
        vec![
            Observation::Delivered {
                group: GroupId(1),
                conn,
                request: RequestNum(42),
                source: ProcessorId(3),
                seq: SeqNum(7),
                ts: Timestamp(99),
            },
            Observation::ViewInstalled {
                group: GroupId(1),
                members: vec![ProcessorId(1), ProcessorId(2), ProcessorId(3)],
                ts: Timestamp(5),
            },
            Observation::ViewInstalled {
                group: GroupId(1),
                members: vec![],
                ts: Timestamp(6),
            },
            Observation::Sent {
                group: GroupId(1),
                seq: SeqNum(8),
                ts: Timestamp(100),
            },
            Observation::Acked {
                group: GroupId(1),
                member: ProcessorId(2),
                ts: Timestamp(90),
            },
            Observation::Retained {
                group: GroupId(1),
                source: ProcessorId(2),
                seq: SeqNum(4),
                ts: Timestamp(88),
            },
            Observation::Reclaimed {
                group: GroupId(1),
                stable_ts: Timestamp(80),
                count: 12,
            },
            Observation::Suspected {
                group: GroupId(1),
                suspect: ProcessorId(9),
            },
            Observation::Convicted {
                group: GroupId(1),
                convicted: ProcessorId(9),
            },
        ]
    }

    #[test]
    fn line_codec_round_trips_every_variant() {
        for obs in samples() {
            let line = obs.encode_line();
            let back = Observation::parse_line(&line)
                .unwrap_or_else(|| panic!("parse failed for {line:?}"));
            assert_eq!(back, obs, "round-trip mismatch for {line:?}");
        }
    }

    #[test]
    fn parse_rejects_torn_and_malformed_lines() {
        assert_eq!(Observation::parse_line(""), None);
        assert_eq!(Observation::parse_line("Delivered g=1 c=1.10-"), None);
        assert_eq!(Observation::parse_line("Nonsense g=1"), None);
        assert_eq!(Observation::parse_line("Delivered g=1"), None);
        assert_eq!(Observation::parse_line("Sent g=1 q=2 t=notanum"), None);
    }
}
