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
//!   group, and multicasts a `_state` pseudo-request carrying its snapshot
//!   on the same connection;
//! * backups skip execution and apply `_state` bodies instead.
//!
//! Non-determinism in the servant (timers, randomness) is therefore
//! confined to the primary — the classic reason to pay the state-transfer
//! bytes instead of re-executing (experiment E10 prices the trade).
//!
//! Failover: when a fault report removes the primary, the next-smallest
//! survivor becomes primary at the same delivered membership change.
//! Backups track the requests delivered since the last applied state
//! update; the new primary replays exactly that suffix against the inherited
//! state, emits the missing replies, and ships fresh state. If the old
//! primary's reply did get out before the crash, the client-side duplicate
//! detector absorbs the second copy (deterministic servants make the two
//! replies identical) — at-least-once at the servant, exactly-once toward
//! the client.

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
    /// it replays the requests delivered since the last applied state
    /// update, emits their replies and ships fresh state — warm-passive
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
        let mut shipped_on = None;
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
            shipped_on = Some(p.conn);
        }
        if let Some(conn) = shipped_on {
            self.ship_state(og, conn);
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

    /// Where a warm-passive backup of `og` last applied a state update;
    /// `None` for a primary or an active replica, whose state is at the tip.
    pub(crate) fn backup_point(&self, og: ObjectGroupId) -> Option<(Timestamp, ProcessorId)> {
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
            // A state update: backups apply it and clear the pending suffix
            // it covers (it was produced after those executions, and the
            // total order preserves that). The producing primary skips it.
            if d.source != me {
                if let Some(servant) = self.servants.get_mut(&og) {
                    servant.restore(args);
                }
                // The shipped state reflects every request the primary
                // executed before producing it; mark them executed so a
                // later failover does not replay them.
                if let Some(st) = self.passive.get_mut(&og) {
                    st.applied = (d.ts, d.source);
                    let pending = std::mem::take(&mut st.pending);
                    for p in pending {
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
    /// total order as the reply).
    pub(crate) fn ship_state(&mut self, og: ObjectGroupId, conn: ftmp_core::ConnectionId) {
        if !self.passive.contains_key(&og) || !self.is_primary(og) {
            return;
        }
        let Some(servant) = self.servants.get(&og) else {
            return;
        };
        let snapshot = servant.snapshot();
        // Address the pseudo-request by the group's own object key so it
        // routes through the same dispatch as real requests at the backups.
        let Some(key) = self.object_key_of(og) else {
            return;
        };
        let num = self.conn_mut(conn).alloc_request();
        let giop = crate::giop_map::make_request(num, &key, STATE_OP, &snapshot, false);
        self.push_outbound(conn, num, giop);
    }
}

/// Per-object-group passive-replication state.
#[derive(Debug, Clone)]
pub(crate) struct PassiveState {
    pub(crate) me: ProcessorId,
    pub(crate) hosting: Vec<ProcessorId>,
    /// Requests delivered since the last applied state update (replayed on
    /// failover).
    pub(crate) pending: Vec<PendingReq>,
    /// Where the last applied state update was delivered: a backup's
    /// servant state matches the log up to there and no further, so that
    /// is where its checkpoints sit (DESIGN.md §11).
    pub(crate) applied: (Timestamp, ProcessorId),
}

/// A backup's record of a delivered-but-not-executed request.
#[derive(Debug, Clone)]
pub(crate) struct PendingReq {
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
