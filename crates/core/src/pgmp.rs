//! PGMP — the Processor Group Membership Protocol layer (§7).
//!
//! This module holds the PGMP sub-state-machine ([`PgmpGroup`]) — one per
//! group, taking the suspect reports and membership proposals routed up
//! from ROMP through [`PgmpGroup::suspect_report`] and
//! [`PgmpGroup::proposal`] — plus its bookkeeping structures. Cross-group orchestration (a conviction
//! removes the processor from *all* groups, §2) and the sending of
//! Suspect/Membership/Connect messages live in [`crate::processor`].
//!
//! * [`PgmpGroup`] — per-group membership, fault-detector state, the
//!   pending reconfiguration and the join/connect retry state.
//! * [`SuspicionMatrix`] — who suspects whom, and the quorum test that
//!   convicts a processor "that enough processors suspect" (§7.2).
//! * [`Reconfig`] — the survivors' reconciliation state after a conviction:
//!   collected Membership proposals, the per-source sequence-number targets
//!   (pairwise maxima), and the completion test that establishes virtual
//!   synchrony before the new membership is installed.
//! * [`ConnectionTable`] — logical connections: client-side pending
//!   ConnectRequests, server-side registrations with their processor-group
//!   address pools, and the conn → processor-group bindings (§4, §7).

use crate::adaptive::Interarrival;
use crate::ids::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, SeqNum, Timestamp};
use crate::wire::SeqVector;
use bytes::Bytes;
use ftmp_net::{McastAddr, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Who suspects whom (per group).
#[derive(Debug, Default)]
pub struct SuspicionMatrix {
    by_reporter: BTreeMap<ProcessorId, BTreeSet<ProcessorId>>,
}

impl SuspicionMatrix {
    /// Record a reporter's complete current suspect set (Suspect messages
    /// carry the full set, so a report replaces earlier ones).
    pub fn record(&mut self, reporter: ProcessorId, suspects: BTreeSet<ProcessorId>) {
        self.by_reporter.insert(reporter, suspects);
    }

    /// Number of current members suspecting `q`.
    pub fn suspicion_count(&self, q: ProcessorId, membership: &BTreeSet<ProcessorId>) -> usize {
        self.by_reporter
            .iter()
            .filter(|(rep, set)| membership.contains(rep) && set.contains(&q))
            .count()
    }

    /// Every member whose suspicion count meets `required`.
    pub fn convicted(
        &self,
        membership: &BTreeSet<ProcessorId>,
        required: usize,
    ) -> Vec<ProcessorId> {
        membership
            .iter()
            .copied()
            .filter(|&q| self.suspicion_count(q, membership) >= required)
            .collect()
    }

    /// Drop rows from and references to processors no longer in the group.
    pub fn retain_members(&mut self, membership: &BTreeSet<ProcessorId>) {
        self.by_reporter.retain(|rep, _| membership.contains(rep));
        for set in self.by_reporter.values_mut() {
            set.retain(|q| membership.contains(q));
        }
    }
}

/// Reconciliation state while a faulty-processor membership change runs.
#[derive(Debug)]
pub struct Reconfig {
    /// Processors being removed (unioned across local convictions and
    /// removals proposed by peers' Membership messages; only grows).
    pub removed: BTreeSet<ProcessorId>,
    /// Latest Membership proposal from each survivor: its proposed set and
    /// its per-source contiguous sequence numbers.
    proposals: BTreeMap<ProcessorId, (BTreeSet<ProcessorId>, BTreeMap<ProcessorId, u64>)>,
    /// The proposed set this processor last announced (re-announce when the
    /// computed proposal drifts from it).
    pub announced: Option<BTreeSet<ProcessorId>>,
    /// When the reconfiguration began (reporting).
    pub started_at: SimTime,
}

impl Reconfig {
    /// Begin a reconfiguration removing `removed`.
    pub fn new(removed: BTreeSet<ProcessorId>, now: SimTime) -> Self {
        Reconfig {
            removed,
            proposals: BTreeMap::new(),
            announced: None,
            started_at: now,
        }
    }

    /// The membership this processor currently proposes.
    pub fn proposed(&self, membership: &BTreeSet<ProcessorId>) -> BTreeSet<ProcessorId> {
        membership.difference(&self.removed).copied().collect()
    }

    /// Merge removals implied by a peer's proposal (peers may have convicted
    /// processors we have not). Returns true if our removal set grew.
    pub fn merge_removals(
        &mut self,
        membership: &BTreeSet<ProcessorId>,
        peer_proposed: &BTreeSet<ProcessorId>,
    ) -> bool {
        let mut grew = false;
        for p in membership {
            if !peer_proposed.contains(p) && self.removed.insert(*p) {
                grew = true;
            }
        }
        if grew {
            // Stale proposals (built on a smaller removal set) are invalid.
            let removed = self.removed.clone();
            self.proposals
                .retain(|_, (prop, _)| prop.is_disjoint(&removed));
        }
        grew
    }

    /// Record a survivor's Membership proposal.
    pub fn note_proposal(
        &mut self,
        from: ProcessorId,
        proposed: BTreeSet<ProcessorId>,
        seqs: &SeqVector,
    ) {
        let map: BTreeMap<ProcessorId, u64> = seqs.iter().copied().collect();
        self.proposals.insert(from, (proposed, map));
    }

    /// Per-source reconciliation targets: the pairwise maximum of every
    /// collected proposal's sequence vector (including our own, which the
    /// caller passes in as a proposal from itself). Every survivor must
    /// reach these before installing the new membership.
    pub fn targets(&self) -> BTreeMap<ProcessorId, u64> {
        let mut t: BTreeMap<ProcessorId, u64> = BTreeMap::new();
        for (_, (_, seqs)) in self.proposals.iter() {
            for (p, s) in seqs {
                let e = t.entry(*p).or_insert(0);
                if s > e {
                    *e = *s;
                }
            }
        }
        t
    }

    /// Completion test: every proposed survivor has announced exactly our
    /// proposed set, and our contiguous reception has reached every target.
    pub fn complete(
        &self,
        proposed: &BTreeSet<ProcessorId>,
        my_contiguous: &BTreeMap<ProcessorId, u64>,
    ) -> bool {
        if self.announced.as_ref() != Some(proposed) {
            return false;
        }
        for p in proposed {
            match self.proposals.get(p) {
                Some((their_prop, _)) if their_prop == proposed => {}
                _ => return false,
            }
        }
        for (src, target) in self.targets() {
            let have = my_contiguous.get(&src).copied().unwrap_or(0);
            if have < target {
                return false;
            }
        }
        true
    }

    /// Survivors that have announced a matching proposal so far.
    pub fn agreeing(&self, proposed: &BTreeSet<ProcessorId>) -> usize {
        self.proposals
            .values()
            .filter(|(prop, _)| prop == proposed)
            .count()
    }
}

/// A join this processor sponsors (§7.1): the AddProcessor's
/// retransmission-form wire bytes, resent until the joiner is heard.
#[derive(Debug)]
pub struct SponsorJoin {
    /// Ready-to-send retransmission bytes of the AddProcessor.
    pub retx: Bytes,
    /// Next resend time.
    pub next_retry: SimTime,
}

/// A Connect this primary retransmits until every member is heard (§7).
#[derive(Debug)]
pub struct ConnectRetx {
    /// Ready-to-send retransmission bytes of the Connect.
    pub retx: Bytes,
    /// The fault-tolerance domain address the Connect also travels on
    /// (members of the new group are not subscribed to it yet).
    pub domain_addr: Option<McastAddr>,
    /// Next resend time.
    pub next_retry: SimTime,
}

/// Per-layer traffic counters exposed through
/// [`crate::processor::Processor::stats`] and the harness report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PgmpCounters {
    /// Suspect reports consumed (our own loopback included).
    pub suspect_reports_in: u64,
    /// Membership proposals consumed.
    pub proposals_in: u64,
    /// Processors newly scheduled for removal by a conviction.
    pub convictions: u64,
    /// Memberships installed after a fault (reconfiguration completions).
    pub reconfigurations: u64,
}

/// One peer's row in the fault detector. A row is made for every member
/// when it enters the view and for any source a fresh packet arrives from,
/// and goes when the member leaves the view ([`PgmpGroup::forget`]).
#[derive(Debug, Clone, Default)]
pub struct Peer {
    /// The last time a fresh (non-retransmitted) packet arrived, or the
    /// time the view that holds the member was installed, whichever is
    /// later.
    pub last_heard: SimTime,
    /// The fresh-packet interarrival envelope (heartbeat cadence plus
    /// jitter); under adaptive timers the fail timeout floors at a multiple
    /// of it, so latency spikes widen suspicion instead of convicting.
    pub arrivals: Interarrival,
    /// The ack-progress watermark, from the first ack-stall scan that read
    /// the member. A member whose heartbeats keep arriving but whose ack
    /// stops advancing while we hold data above it is data-unreachable (a
    /// one-way blackhole the silence-based fail timeout can never see); the
    /// fault detector suspects it after `ack_stall_timeout`.
    pub ack_progress: Option<AckProgress>,
    /// Whether this endpoint currently suspects the peer.
    pub suspected: bool,
}

/// One member's ack-progress watermark (see [`Peer::ack_progress`]).
#[derive(Debug, Clone, Copy)]
pub struct AckProgress {
    /// The member's last reported ack timestamp.
    pub ack: Timestamp,
    /// The sweep that last saw `ack` advance or level with our own
    /// frontier, or first found it behind after being level: the ack-stall
    /// clock runs from here.
    pub since: SimTime,
    /// Level with our own frontier at the last sweep. The sweep that then
    /// finds it behind stamps `since` with its own time, so the stall is
    /// counted from a sweep, whatever the host ticked in between
    /// (DESIGN.md §4).
    pub caught_up: bool,
}

/// The PGMP sub-state-machine for one group: membership, fault-detector
/// state, the pending reconfiguration, and join/connect retry state.
///
/// Sans-io: two entry points, [`suspect_report`](Self::suspect_report) and
/// [`proposal`](Self::proposal), each returning the one fact the shell acts
/// on. Everything that crosses groups (convictions) or produces messages (announcements,
/// retries) is orchestrated by the [`crate::processor`] shell, which reads
/// and writes these fields directly — PGMP is the layer whose state is
/// inherently entangled with the shell's send decisions.
#[derive(Debug)]
pub struct PgmpGroup {
    /// Current membership.
    pub membership: BTreeSet<ProcessorId>,
    /// Timestamp of the current membership.
    pub membership_ts: Timestamp,
    /// The fault detector's rows, one per peer.
    pub peers: BTreeMap<ProcessorId, Peer>,
    /// Members from which at least one packet has arrived (drives the
    /// Connect / AddProcessor retransmission loops).
    pub heard_any: BTreeSet<ProcessorId>,
    /// When our suspect set was last announced.
    pub last_suspect_sent: SimTime,
    /// Who suspects whom.
    pub suspicion: SuspicionMatrix,
    /// The running reconfiguration, if any.
    pub reconfig: Option<Reconfig>,
    /// Connect gate: no ordered sends until every horizon exceeds this.
    pub gate: Option<Timestamp>,
    /// Joins this processor sponsors, keyed by joiner.
    pub sponsor_joins: BTreeMap<ProcessorId, SponsorJoin>,
    /// The Connect this primary keeps retransmitting.
    pub connect_retx: Option<ConnectRetx>,
    /// A joiner's application-delivery floor: Regular messages ordered at
    /// or below this position belong to the pre-join state snapshot and are
    /// not delivered upward; membership operations below it still apply
    /// (they bring the AddProcessor body's membership snapshot — the
    /// sponsor's *ordered* cut — forward to the join position).
    pub app_floor: Option<(Timestamp, ProcessorId)>,
    /// A join is *provisional* until this joiner has ordered its own
    /// AddProcessor: if the sponsor is convicted while the Add is in
    /// flight, the survivors discard it at the membership-change flush and
    /// this processor was never admitted — it must not act like a member
    /// forever on the strength of a raw packet. `None` for founders and
    /// confirmed members; `Some(when the join started)` while provisional.
    pub provisional_since: Option<SimTime>,
    /// Sequence number of our most recent Membership announcement.
    pub last_announce_seq: Option<SeqNum>,
    /// The Membership message that installed the current membership
    /// (retransmission-form wire bytes), kept beyond retention reclamation:
    /// it is re-sent (rate-limited) to any excluded processor still
    /// transmitting to the group, so a healed minority learns of its
    /// exclusion even after the reliable copies have been reclaimed.
    pub membership_notice: Option<Bytes>,
    /// Earliest time the notice may be re-sent.
    pub notice_retx_at: SimTime,
    /// This layer's traffic counters.
    pub counters: PgmpCounters,
}

impl PgmpGroup {
    /// Membership state for a group whose members are all presumed live at
    /// `now`.
    pub fn new(membership: BTreeSet<ProcessorId>, membership_ts: Timestamp, now: SimTime) -> Self {
        let heard = Peer {
            last_heard: now,
            ..Peer::default()
        };
        let peers = membership.iter().map(|&p| (p, heard.clone())).collect();
        PgmpGroup {
            membership,
            membership_ts,
            peers,
            heard_any: BTreeSet::new(),
            last_suspect_sent: SimTime::ZERO,
            suspicion: SuspicionMatrix::default(),
            reconfig: None,
            gate: None,
            sponsor_joins: BTreeMap::new(),
            connect_retx: None,
            app_floor: None,
            provisional_since: None,
            last_announce_seq: None,
            membership_notice: None,
            notice_retx_at: SimTime::ZERO,
            counters: PgmpCounters::default(),
        }
    }

    /// True while ordered sends must queue: a Connect gate is pending, a
    /// reconfiguration is running, or our own join is still provisional.
    pub fn blocked(&self) -> bool {
        self.gate.is_some() || self.reconfig.is_some() || self.provisional_since.is_some()
    }

    /// True while retention reclamation is pinned (we sponsor a join and
    /// the joiner must be able to recover the stream suffix it was cited).
    pub fn reclaim_pinned(&self) -> bool {
        !self.sponsor_joins.is_empty()
    }

    /// Record that a packet from `source` arrived at `now`. `fresh` is
    /// false for retransmissions, which prove retention, not liveness.
    pub fn note_heard(&mut self, source: ProcessorId, now: SimTime, fresh: bool) {
        if fresh {
            self.stamp(source, now).arrivals.observe(now);
        }
        self.heard_any.insert(source);
    }

    /// `peer` was heard, or entered the view, at `now`: its silence is
    /// counted from here. Its row, made if it had none.
    pub fn stamp(&mut self, peer: ProcessorId, now: SimTime) -> &mut Peer {
        let row = self.peers.entry(peer).or_default();
        row.last_heard = now;
        row
    }

    /// `member` left the view, by conviction or by a voluntary leave: drop
    /// its row, so that an incarnation rejoining under the same id starts
    /// with no silence record, no suspicion, no arrival envelope and no
    /// ack-stall clock of its own.
    pub fn forget(&mut self, member: ProcessorId) {
        self.peers.remove(&member);
    }

    /// The processors this endpoint currently suspects, in id order.
    pub fn suspects(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.peers
            .iter()
            .filter(|(_, r)| r.suspected)
            .map(|(&p, _)| p)
    }

    /// A Suspect message from `reporter` carrying its full suspect set;
    /// `required` is the conviction quorum for the current membership.
    /// Returns the processors the quorum now convicts — the shell must begin
    /// or extend a reconfiguration in every group containing them (§2) —
    /// and nothing for a non-member's report, which is dropped.
    pub fn suspect_report(
        &mut self,
        reporter: ProcessorId,
        suspects: BTreeSet<ProcessorId>,
        required: usize,
    ) -> Vec<ProcessorId> {
        if !self.membership.contains(&reporter) {
            return Vec::new();
        }
        self.counters.suspect_reports_in += 1;
        self.suspicion.record(reporter, suspects);
        self.suspicion.convicted(&self.membership, required)
    }

    /// A Membership proposal from `from` proposing `proposed`, with its
    /// per-source contiguous sequence numbers `seqs`, arriving at `now`
    /// (which starts the reconfiguration clock when this proposal is the
    /// first sign of one). Returns whether it was folded into the (possibly
    /// just-started) reconfiguration — the shell then surfaces `seqs` to
    /// RMP, re-announces if our proposal changed and tests for completion —
    /// or dropped: a non-member's, or a stale echo of the installed
    /// membership.
    pub fn proposal(
        &mut self,
        from: ProcessorId,
        proposed: BTreeSet<ProcessorId>,
        seqs: &SeqVector,
        now: SimTime,
    ) -> bool {
        if !self.membership.contains(&from) {
            return false;
        }
        if self.reconfig.is_none() {
            if proposed == self.membership {
                return false;
            }
            let removed: BTreeSet<ProcessorId> =
                self.membership.difference(&proposed).copied().collect();
            self.begin_or_extend_reconfig(removed, now);
        }
        self.counters.proposals_in += 1;
        let membership = self.membership.clone();
        let rc = self.reconfig.as_mut().expect("just ensured");
        rc.merge_removals(&membership, &proposed);
        rc.note_proposal(from, proposed, seqs);
        true
    }

    /// Start a reconfiguration removing `removals`, or fold them into the
    /// running one (stale proposals built on the smaller removal set are
    /// invalidated).
    pub fn begin_or_extend_reconfig(&mut self, removals: BTreeSet<ProcessorId>, now: SimTime) {
        let extending = self.reconfig.is_some();
        let rc = self
            .reconfig
            .get_or_insert_with(|| Reconfig::new(BTreeSet::new(), now));
        let before = rc.removed.len();
        rc.removed.extend(removals);
        let grew = rc.removed.len() - before;
        self.counters.convictions += grew as u64;
        if extending && grew > 0 {
            let keep: BTreeSet<ProcessorId> = rc.removed.clone();
            let membership = self.membership.clone();
            let _ = rc.merge_removals(
                &membership,
                &membership.difference(&keep).copied().collect(),
            );
        }
    }
}

/// Client-side state for a connection being established.
#[derive(Debug, Clone)]
pub struct PendingConnect {
    /// The processors supporting the client object group.
    pub client_processors: Vec<ProcessorId>,
    /// The server fault-tolerance domain's multicast address.
    pub domain_addr: McastAddr,
    /// Next ConnectRequest retry time.
    pub next_retry: SimTime,
}

/// Server-side registration of an object group able to accept connections.
#[derive(Debug, Clone)]
pub struct ServerRegistration {
    /// The processors hosting the server object group's replicas.
    pub processors: Vec<ProcessorId>,
    /// Pre-provisioned (processor group, multicast address) pairs this
    /// object group may allocate for new connections. Several connections
    /// that need the same processor set share one entry (§7's efficiency
    /// mechanism).
    pub pool: Vec<(GroupId, McastAddr)>,
}

impl ServerRegistration {
    /// The primary (connection-answering) processor: the smallest id.
    pub fn primary(&self) -> Option<ProcessorId> {
        self.processors.iter().copied().min()
    }
}

/// All connection state on one processor.
#[derive(Debug, Default)]
pub struct ConnectionTable {
    /// Established conn → processor-group bindings.
    bindings: BTreeMap<ConnectionId, GroupId>,
    /// Client-side connects awaiting the server's Connect.
    pub pending: BTreeMap<ConnectionId, PendingConnect>,
    /// Server-side object-group registrations keyed by server object group.
    pub servers: BTreeMap<ObjectGroupId, ServerRegistration>,
    /// Domain multicast address per registered server object group.
    pub server_domain_addrs: BTreeMap<ObjectGroupId, McastAddr>,
    /// Connections whose group allocation is decided but whose Connect has
    /// not yet been ordered (primary-side dedup of repeated ConnectRequests,
    /// client-side suppression of further retries).
    pub promised: BTreeMap<ConnectionId, GroupId>,
    /// Groups this processor created as connection primary, mapped to the
    /// membership timestamp of the Connect, for retransmission control.
    pub primary_of: BTreeMap<GroupId, Timestamp>,
}

impl ConnectionTable {
    /// Bind a connection to a processor group.
    pub fn bind(&mut self, conn: ConnectionId, group: GroupId) {
        self.bindings.insert(conn, group);
        self.pending.remove(&conn);
        self.promised.remove(&conn);
    }

    /// The group a connection is bound to, if established.
    pub fn group_of(&self, conn: ConnectionId) -> Option<GroupId> {
        self.bindings.get(&conn).copied()
    }

    /// All connections bound to `group`.
    pub fn conns_on(&self, group: GroupId) -> Vec<ConnectionId> {
        self.bindings
            .iter()
            .filter(|(_, g)| **g == group)
            .map(|(c, _)| *c)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pset(ids: &[u32]) -> BTreeSet<ProcessorId> {
        ids.iter().copied().map(ProcessorId).collect()
    }

    #[test]
    fn suspicion_counting_and_conviction() {
        let members = pset(&[1, 2, 3, 4, 5]);
        let mut m = SuspicionMatrix::default();
        m.record(ProcessorId(1), pset(&[5]));
        m.record(ProcessorId(2), pset(&[5]));
        assert_eq!(m.suspicion_count(ProcessorId(5), &members), 2);
        assert!(m.convicted(&members, 3).is_empty());
        m.record(ProcessorId(3), pset(&[5, 4]));
        assert_eq!(m.convicted(&members, 3), vec![ProcessorId(5)]);
        // Reports from non-members don't count.
        m.record(ProcessorId(9), pset(&[4]));
        assert_eq!(m.suspicion_count(ProcessorId(4), &members), 1);
    }

    #[test]
    fn suspicion_report_replaces_previous() {
        let members = pset(&[1, 2]);
        let mut m = SuspicionMatrix::default();
        m.record(ProcessorId(1), pset(&[2]));
        m.record(ProcessorId(1), pset(&[]));
        assert_eq!(m.suspicion_count(ProcessorId(2), &members), 0);
    }

    #[test]
    fn retain_members_prunes_rows_and_columns() {
        let mut m = SuspicionMatrix::default();
        m.record(ProcessorId(1), pset(&[3]));
        m.record(ProcessorId(3), pset(&[1]));
        let survivors = pset(&[1, 2]);
        m.retain_members(&survivors);
        assert!(!m.by_reporter.contains_key(&ProcessorId(3)));
        assert!(m.by_reporter[&ProcessorId(1)].is_empty());
    }

    #[test]
    fn reconfig_proposal_and_targets() {
        let members = pset(&[1, 2, 3]);
        let mut rc = Reconfig::new(pset(&[3]), SimTime(0));
        let proposed = rc.proposed(&members);
        assert_eq!(proposed, pset(&[1, 2]));
        rc.note_proposal(
            ProcessorId(1),
            proposed.clone(),
            &vec![
                (ProcessorId(1), 10),
                (ProcessorId(2), 5),
                (ProcessorId(3), 7),
            ],
        );
        rc.note_proposal(
            ProcessorId(2),
            proposed.clone(),
            &vec![
                (ProcessorId(1), 8),
                (ProcessorId(2), 6),
                (ProcessorId(3), 9),
            ],
        );
        let t = rc.targets();
        assert_eq!(t[&ProcessorId(1)], 10);
        assert_eq!(t[&ProcessorId(2)], 6);
        assert_eq!(t[&ProcessorId(3)], 9);
    }

    #[test]
    fn reconfig_completion_requires_agreement_and_seqs() {
        let members = pset(&[1, 2, 3]);
        let mut rc = Reconfig::new(pset(&[3]), SimTime(0));
        let proposed = rc.proposed(&members);
        let my_seqs: BTreeMap<ProcessorId, u64> = [
            (ProcessorId(1), 10),
            (ProcessorId(2), 6),
            (ProcessorId(3), 9),
        ]
        .into_iter()
        .collect();
        assert!(!rc.complete(&proposed, &my_seqs), "nothing announced yet");
        rc.announced = Some(proposed.clone());
        rc.note_proposal(
            ProcessorId(1),
            proposed.clone(),
            &vec![(ProcessorId(1), 10)],
        );
        assert!(!rc.complete(&proposed, &my_seqs), "P2 missing");
        rc.note_proposal(ProcessorId(2), proposed.clone(), &vec![(ProcessorId(3), 9)]);
        assert!(rc.complete(&proposed, &my_seqs));
        // A target we have not reached blocks completion.
        rc.note_proposal(
            ProcessorId(2),
            proposed.clone(),
            &vec![(ProcessorId(3), 12)],
        );
        assert!(!rc.complete(&proposed, &my_seqs));
    }

    #[test]
    fn reconfig_merges_peer_removals_and_invalidates_stale_proposals() {
        let members = pset(&[1, 2, 3, 4]);
        let mut rc = Reconfig::new(pset(&[4]), SimTime(0));
        rc.note_proposal(ProcessorId(2), pset(&[1, 2, 3]), &vec![]);
        // Peer also removes 3.
        let grew = rc.merge_removals(&members, &pset(&[1, 2]));
        assert!(grew);
        assert_eq!(rc.proposed(&members), pset(&[1, 2]));
        // P2's old proposal contained 3 (now removed): invalidated.
        assert_eq!(rc.agreeing(&pset(&[1, 2])), 0);
        // Merging the same removals again changes nothing.
        assert!(!rc.merge_removals(&members, &pset(&[1, 2])));
    }

    #[test]
    fn pgmp_layer_suspicion_to_conviction() {
        let members = pset(&[1, 2, 3, 4, 5]);
        let mut g = PgmpGroup::new(members, Timestamp(10), SimTime(0));
        assert!(!g.blocked());
        let mut report = |reporter: u32, suspects: &[u32]| {
            g.suspect_report(ProcessorId(reporter), pset(suspects), 3)
        };
        // A non-member's report is dropped.
        assert!(report(9, &[5]).is_empty());
        // Two suspicions record but stay below the quorum of three.
        assert!(report(1, &[5]).is_empty());
        assert!(report(2, &[5]).is_empty());
        // The third report convicts.
        assert_eq!(report(3, &[5, 4]), vec![ProcessorId(5)]);
        assert_eq!(g.counters.suspect_reports_in, 3);
        // The shell folds the conviction into a reconfiguration; ordered
        // sends block until it completes.
        g.begin_or_extend_reconfig(pset(&[5]), SimTime(1));
        assert!(g.blocked());
        assert_eq!(g.counters.convictions, 1);
        assert_eq!(
            g.reconfig
                .as_ref()
                .unwrap()
                .proposed(&pset(&[1, 2, 3, 4, 5])),
            pset(&[1, 2, 3, 4])
        );
        // Extending with an already-removed processor changes nothing.
        g.begin_or_extend_reconfig(pset(&[5]), SimTime(2));
        assert_eq!(g.counters.convictions, 1);
    }

    #[test]
    fn pgmp_layer_proposal_starts_reconfig_and_ignores_stale_echo() {
        let members = pset(&[1, 2, 3]);
        let mut g = PgmpGroup::new(members.clone(), Timestamp(0), SimTime(0));
        // An echo proposing the installed membership is stale, and so is a
        // non-member's proposal.
        assert!(!g.proposal(ProcessorId(2), members.clone(), &vec![], SimTime(5)));
        assert!(!g.proposal(ProcessorId(9), pset(&[1, 2]), &vec![], SimTime(5)));
        assert!(g.reconfig.is_none());
        // A genuine proposal starts the reconfiguration and records itself.
        assert!(g.proposal(
            ProcessorId(2),
            pset(&[1, 2]),
            &vec![(ProcessorId(3), 7)],
            SimTime(6)
        ));
        let rc = g.reconfig.as_ref().unwrap();
        assert_eq!(rc.proposed(&members), pset(&[1, 2]));
        assert_eq!(rc.agreeing(&pset(&[1, 2])), 1);
        assert_eq!(g.counters.proposals_in, 1);
    }

    #[test]
    fn connection_table_bindings() {
        let mut t = ConnectionTable::default();
        let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
        assert_eq!(t.group_of(conn), None);
        t.pending.insert(
            conn,
            PendingConnect {
                client_processors: vec![ProcessorId(1)],
                domain_addr: McastAddr(9),
                next_retry: SimTime(0),
            },
        );
        t.bind(conn, GroupId(5));
        assert_eq!(t.group_of(conn), Some(GroupId(5)));
        assert!(t.pending.is_empty(), "binding clears the pending entry");
        assert_eq!(t.conns_on(GroupId(5)), vec![conn]);
    }

    #[test]
    fn promised_connections_clear_on_bind() {
        let mut t = ConnectionTable::default();
        let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
        t.promised.insert(conn, GroupId(9));
        assert_eq!(t.group_of(conn), None, "promised is not bound");
        t.bind(conn, GroupId(9));
        assert!(t.promised.is_empty());
        assert_eq!(t.group_of(conn), Some(GroupId(9)));
    }

    #[test]
    fn server_registration_primary_is_min_id() {
        let reg = ServerRegistration {
            processors: vec![ProcessorId(7), ProcessorId(3), ProcessorId(9)],
            pool: vec![(GroupId(1), McastAddr(1))],
        };
        assert_eq!(reg.primary(), Some(ProcessorId(3)));
    }
}
