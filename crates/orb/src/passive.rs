//! Warm-passive (primary/backup) replication over FTMP.
//!
//! The paper's object groups use active replication (every replica executes
//! every request); its successor line (Eternal, FT-CORBA) added *passive*
//! styles, where one primary executes and the backups apply state updates.
//! Over a totally-ordered multicast the passive style is simple and
//! deterministic:
//!
//! * every replica sees the same ordered Request stream;
//! * the replica whose processor id is the smallest among the object
//!   group's *current processor membership* is the primary — a pure
//!   function of the membership, so a fault report repoints the primary at
//!   every survivor simultaneously, with no election protocol;
//! * the primary executes the request, multicasts the Reply to the client
//!   group, and multicasts on the same connection a `_state`
//!   pseudo-request carrying its snapshot and the delivery position of the
//!   last request that snapshot reflects;
//! * backups skip execution and apply `_state` bodies instead.
//!
//! Non-determinism in the servant (timers, randomness) is therefore
//! confined to the primary — the classic reason to pay the state-transfer
//! bytes instead of re-executing (experiment E10 prices the trade).
//!
//! Failover: when a fault report removes the primary, the next-smallest
//! survivor becomes primary at the same delivered membership change.
//! Backups track the requests their last applied state update does not
//! cover — a request ordered after R1 but before the state after R1 is not
//! in that state — and the new primary replays exactly those against the
//! inherited state, emits the missing replies, and ships fresh state. If
//! the old primary's reply did get out before the crash, the client-side
//! duplicate detector absorbs the second copy (deterministic servants make
//! the two replies identical) — at-least-once at the servant, exactly-once
//! toward the client.

use crate::endpoint::OrbEndpoint;
use ftmp_core::{Delivery, ObjectGroupId, ProcessorId, Timestamp};

/// Replication style for a hosted object group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationStyle {
    /// Every replica executes every request (the paper's model).
    #[default]
    Active,
    /// Only the primary executes; backups apply shipped state.
    WarmPassive,
}

/// The reserved pseudo-operation carrying primary → backup state.
pub const STATE_OP: &str = "_ftmp_state_update";

/// Decide the primary for an object group: the smallest live processor id
/// hosting it. Deterministic in the membership, so every survivor repoints
/// at the same instant (the delivered membership change).
pub fn primary_of(hosting: &[ProcessorId]) -> Option<ProcessorId> {
    hosting.iter().copied().min()
}

impl OrbEndpoint {
    /// Switch a hosted object group to warm-passive replication. `hosting`
    /// is the set of processors hosting replicas (kept current by
    /// [`note_membership`]); `me` identifies the local processor.
    ///
    /// [`note_membership`]: OrbEndpoint::note_membership
    pub fn set_warm_passive(
        &mut self,
        og: ObjectGroupId,
        me: ProcessorId,
        hosting: Vec<ProcessorId>,
    ) {
        self.passive.insert(
            og,
            PassiveState {
                me,
                hosting,
                pending: Vec::new(),
                applied: Default::default(),
            },
        );
    }

    /// Update the hosting set after a membership change (fault report or
    /// voluntary removal). If the change makes this endpoint the primary,
    /// it replays the requests the last applied state update does not
    /// cover, emits their replies and ships fresh state — warm-passive
    /// failover.
    pub fn note_membership(&mut self, og: ObjectGroupId, hosting: Vec<ProcessorId>) {
        let became_primary = {
            let Some(st) = self.passive.get_mut(&og) else {
                return;
            };
            let was = primary_of(&st.hosting) == Some(st.me);
            st.hosting = hosting;
            !was && primary_of(&st.hosting) == Some(st.me)
        };
        if became_primary {
            self.replay_pending(og);
        }
    }

    fn replay_pending(&mut self, og: ObjectGroupId) {
        let pending = match self.passive.get_mut(&og) {
            Some(st) => std::mem::take(&mut st.pending),
            None => return,
        };
        let mut last = None;
        for p in pending {
            if !self.conn_mut(p.conn).executed.first_sighting(p.request_num) {
                continue;
            }
            let Some(servant) = self.servants.get_mut(&og) else {
                continue;
            };
            let reply = match servant.invoke(&p.operation, &p.args) {
                Ok(result) => crate::giop_map::make_reply(p.request_num, &result),
                Err(repo_id) => crate::giop_map::make_exception_reply(p.request_num, &repo_id),
            };
            if p.response_expected {
                self.push_outbound(p.conn, p.request_num, reply);
            }
            last = Some((p.conn, p.at));
        }
        if let Some((conn, covered)) = last {
            self.ship_state(og, conn, covered);
        }
    }

    /// Is this endpoint currently the primary for `og`?
    pub fn is_primary(&self, og: ObjectGroupId) -> bool {
        match self.passive.get(&og) {
            None => true, // active replication: everyone "is the primary"
            Some(st) => primary_of(&st.hosting) == Some(st.me),
        }
    }

    /// Apply a processor-group membership change to every warm-passive
    /// hosting set (drop departed processors). Called by [`crate::OrbNode`]
    /// on MembershipChange events; failover replay triggers here.
    pub fn note_membership_all(&mut self, members: &[ProcessorId]) {
        let ogs: Vec<ObjectGroupId> = self.passive.keys().copied().collect();
        for og in ogs {
            let hosting = {
                let st = self.passive.get(&og).expect("listed");
                st.hosting
                    .iter()
                    .copied()
                    .filter(|p| members.contains(p))
                    .collect::<Vec<_>>()
            };
            self.note_membership(og, hosting);
        }
    }

    /// The position a warm-passive backup of `og`'s state is at: what the
    /// last state update it applied covers. `None` for a primary or an
    /// active replica, whose state is at the tip.
    pub(crate) fn backup_point(&self, og: ObjectGroupId) -> Option<Position> {
        let st = self.passive.get(&og)?;
        (!self.is_primary(og)).then_some(st.applied)
    }

    /// Replication style of a hosted group.
    pub fn style_of(&self, og: ObjectGroupId) -> ReplicationStyle {
        if self.passive.contains_key(&og) {
            ReplicationStyle::WarmPassive
        } else {
            ReplicationStyle::Active
        }
    }

    /// Passive-mode hook, called by `on_delivery` for Requests addressed to
    /// a warm-passive group. Returns `true` when the caller should proceed
    /// with normal (execute + reply) handling — i.e. we are the primary —
    /// and `false` when the request must be skipped (we are a backup).
    /// State updates are applied here for backups.
    pub(crate) fn passive_gate(
        &mut self,
        og: ObjectGroupId,
        operation: &str,
        args: &[u8],
        d: &Delivery,
        response_expected: bool,
    ) -> bool {
        let me = match self.passive.get(&og) {
            None => return true, // active group
            Some(st) => st.me,
        };
        if operation == STATE_OP {
            // A state update: backups apply it and clear the pending
            // requests it covers. The producing primary skips it.
            let Some((covered, state)) = split_state(args) else {
                return false;
            };
            if d.source != me {
                if let Some(servant) = self.servants.get_mut(&og) {
                    servant.restore(state);
                }
                // The state reflects every request ordered at or below
                // `covered` and none above it: requests the primary met
                // before shipping it but after the one it covers stay
                // pending, so a later failover replays them.
                if let Some(st) = self.passive.get_mut(&og) {
                    st.applied = covered;
                    let split = st.pending.partition_point(|p| p.at <= covered);
                    let done: Vec<PendingReq> = st.pending.drain(..split).collect();
                    for p in done {
                        self.conn_mut(p.conn).executed.first_sighting(p.request_num);
                    }
                }
            }
            return false; // never execute the pseudo-op
        }
        let st = self.passive.get_mut(&og).expect("checked above");
        let primary = primary_of(&st.hosting) == Some(st.me);
        if !primary {
            // Backup: remember the request for potential failover replay.
            st.pending.push(PendingReq {
                at: (d.ts, d.source),
                conn: d.conn,
                request_num: d.request_num,
                operation: operation.to_string(),
                args: args.to_vec(),
                response_expected,
            });
        }
        primary
    }

    /// After the primary executes a request, ship the new state to the
    /// backups (queued like any outbound GIOP message, so it rides the same
    /// total order as the reply), with `covered`, the delivery position of
    /// the last request that state reflects.
    pub(crate) fn ship_state(
        &mut self,
        og: ObjectGroupId,
        conn: ftmp_core::ConnectionId,
        covered: Position,
    ) {
        if !self.passive.contains_key(&og) || !self.is_primary(og) {
            return;
        }
        let Some(servant) = self.servants.get(&og) else {
            return;
        };
        let snapshot = servant.snapshot();
        let (ts, source) = covered;
        let mut body = Vec::with_capacity(POSITION_BYTES + snapshot.len());
        body.extend_from_slice(&ts.0.to_be_bytes());
        body.extend_from_slice(&source.0.to_be_bytes());
        body.extend_from_slice(&snapshot);
        // Address the pseudo-request by the group's own object key so it
        // routes through the same dispatch as real requests at the backups.
        let Some(key) = self.object_key_of(og) else {
            return;
        };
        let num = self.conn_mut(conn).alloc_request();
        let giop = crate::giop_map::make_request(num, &key, STATE_OP, &body, false);
        self.push_outbound(conn, num, giop);
    }
}

/// A delivery position `(ts, source)`: the total-order key, which the
/// requests of one object group share whichever connection carries them.
pub(crate) type Position = (Timestamp, ProcessorId);

/// A state update's body opens with the position it covers: a big-endian
/// `u64` timestamp and `u32` processor id; the servant's snapshot follows.
const POSITION_BYTES: usize = 12;

/// A state update's body as the position it covers and the snapshot;
/// `None` when it is too short to carry a position.
fn split_state(body: &[u8]) -> Option<(Position, &[u8])> {
    let (ts, rest) = body.split_first_chunk::<8>()?;
    let (source, state) = rest.split_first_chunk::<4>()?;
    let at = (
        Timestamp(u64::from_be_bytes(*ts)),
        ProcessorId(u32::from_be_bytes(*source)),
    );
    Some((at, state))
}

/// Per-object-group passive-replication state.
#[derive(Debug, Clone)]
pub(crate) struct PassiveState {
    pub(crate) me: ProcessorId,
    pub(crate) hosting: Vec<ProcessorId>,
    /// Requests delivered and not covered by the last applied state update
    /// (replayed on failover), in delivery order.
    pub(crate) pending: Vec<PendingReq>,
    /// The position the last applied state update covers: a backup's
    /// servant state matches the log up to there and no further, so that
    /// is where its checkpoints sit (DESIGN.md §11).
    pub(crate) applied: Position,
}

/// A backup's record of a delivered-but-not-executed request.
#[derive(Debug, Clone)]
pub(crate) struct PendingReq {
    /// Where it was delivered.
    pub(crate) at: Position,
    pub(crate) conn: ftmp_core::ConnectionId,
    pub(crate) request_num: ftmp_core::RequestNum,
    pub(crate) operation: String,
    pub(crate) args: Vec<u8>,
    pub(crate) response_expected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_is_min_id() {
        assert_eq!(
            primary_of(&[ProcessorId(5), ProcessorId(2), ProcessorId(9)]),
            Some(ProcessorId(2))
        );
        assert_eq!(primary_of(&[]), None);
    }

    #[test]
    fn failover_repoints_deterministically() {
        let mut hosting = vec![ProcessorId(2), ProcessorId(3), ProcessorId(4)];
        assert_eq!(primary_of(&hosting), Some(ProcessorId(2)));
        hosting.retain(|p| *p != ProcessorId(2)); // primary convicted
        assert_eq!(primary_of(&hosting), Some(ProcessorId(3)));
    }
}
