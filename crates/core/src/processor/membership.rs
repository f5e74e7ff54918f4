//! PGMP orchestration: suspicion reports, membership proposals, and the
//! reconfiguration protocol (§7.2) that re-establishes virtual synchrony.
//!
//! The membership *state* lives in [`PgmpGroup`](crate::pgmp::PgmpGroup);
//! this module is the shell glue that turns what it decides into sends,
//! flushes and events, and coordinates the cross-layer steps a completed
//! reconfiguration requires (ROMP flush, RMP retention trimming).

use super::*;

/// A view change, as [`GroupState::change_view`] applies it. The three
/// differ in what they leave behind.
pub(super) enum ViewChange<'a> {
    /// An AddProcessor reached its position: the member joins.
    Join(ProcessorId),
    /// A RemoveProcessor reached its position: the member leaves, its
    /// stream cut at our contiguous cursor, and a tombstone of what we held
    /// of it stays behind.
    Leave(ProcessorId),
    /// A reconfiguration completed: the removed go, each one's stream cut
    /// at its flush target, and every survivor's silence is counted
    /// afresh.
    Convict(&'a BTreeSet<ProcessorId>, &'a BTreeMap<ProcessorId, u64>),
}

impl GroupState {
    /// The one place a view changes: every layer's per-member state for the
    /// members that join or leave, then the membership and its timestamp
    /// `ts`. The caller emits the view.
    pub(super) fn change_view(&mut self, now: SimTime, ts: Timestamp, change: ViewChange) {
        match change {
            ViewChange::Join(p) => {
                // The added id may be a crashed member rejoining (§7.1
                // restart): its new incarnation allocates sequence numbers
                // from 1 again. Start its log afresh — the old incarnation's
                // cursor would reject the fresh stream as stale duplicates,
                // and its retained (source, seq) slots would shadow the new
                // incarnation's messages.
                self.rmp.seed_window(p, 1);
                self.romp.ordering_mut().add_member(p, ts);
                self.pgmp.membership.insert(p);
                self.pgmp.stamp(p, now);
            }
            ViewChange::Leave(p) => {
                // Ordering this remove required our horizon for the leaver
                // to pass the remove's timestamp; tombstone that proof
                // before the row drops, so a laggard that missed the
                // leaver's final heartbeats can be rescued
                // (`maybe_rescue_laggard`).
                let ord = self.romp.ordering();
                let horizon = ord.horizon_of(p).unwrap_or(ts);
                let ack = ord.reported_ack_of(p).unwrap_or_default();
                let contiguous = self.rmp.contiguous_of(p);
                self.rmp.drop_beyond(p, contiguous);
                self.departed.push_back((p, contiguous, horizon, ack));
                if self.departed.len() > 8 {
                    self.departed.pop_front();
                }
                self.remove(p);
            }
            ViewChange::Convict(removed, targets) => {
                for &p in removed {
                    self.remove(p);
                    if let Some(&t) = targets.get(&p) {
                        self.rmp.drop_beyond(p, t);
                    }
                }
                for p in self.pgmp.membership.clone() {
                    self.pgmp.stamp(p, now);
                }
            }
        }
        self.pgmp.membership_ts = ts;
        debug_assert!(
            self.romp
                .ordering()
                .members()
                .eq(self.pgmp.membership.iter().copied()),
            "ordering's members are not the view"
        );
    }

    /// `p` leaves the view: its ordering row stops gating, its fault
    /// detector row goes, and nobody's suspicion of it or by it counts.
    fn remove(&mut self, p: ProcessorId) {
        self.romp.ordering_mut().remove_member(p);
        self.pgmp.forget(p);
        self.pgmp.membership.remove(&p);
        self.pgmp.suspicion.retain_members(&self.pgmp.membership);
    }
}

impl Processor {
    /// A peer's (or our own) Suspect message reached source order.
    pub(super) fn on_suspect_report(
        &mut self,
        now: SimTime,
        gid: GroupId,
        reporter: ProcessorId,
        suspects: BTreeSet<ProcessorId>,
    ) {
        let g = self.groups.get_mut(&gid).expect("group exists");
        let required = self.cfg.suspect_quorum.required(g.pgmp.membership.len());
        let convicted = g.pgmp.suspect_report(reporter, suspects, required);
        if self.tap.measuring() && required > 0 {
            // Near-miss signal: the unconvicted member closest to the
            // conviction quorum, in permille (1000‰ = convicted).
            let margin = g
                .pgmp
                .membership
                .iter()
                .map(|&q| g.pgmp.suspicion.suspicion_count(q, &g.pgmp.membership))
                .filter(|&votes| votes < required)
                .map(|votes| (votes * 1000 / required) as i64)
                .max();
            if let Some(permille) = margin {
                self.tap.emit(now, Event::ConvictionMargin { permille });
            }
        }
        if !convicted.is_empty() {
            self.convict(now, &convicted);
        }
    }

    /// §2: "The protocol removes a processor that has been convicted of
    /// being faulty from all processor groups of which it is a member."
    pub(super) fn convict(&mut self, now: SimTime, convicted: &[ProcessorId]) {
        let affected: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, g)| convicted.iter().any(|c| g.pgmp.membership.contains(c)))
            .map(|(gid, _)| *gid)
            .collect();
        for gid in affected {
            let removals: BTreeSet<ProcessorId> = {
                let g = self.groups.get(&gid).expect("listed");
                convicted
                    .iter()
                    .copied()
                    .filter(|c| g.pgmp.membership.contains(c))
                    .collect()
            };
            self.begin_or_extend_reconfig(now, gid, removals);
        }
    }

    pub(super) fn begin_or_extend_reconfig(
        &mut self,
        now: SimTime,
        gid: GroupId,
        removals: BTreeSet<ProcessorId>,
    ) {
        let started = Event::ReconfigStarted {
            group: gid,
            removals: removals.len(),
        };
        let g = self.groups.get_mut(&gid).expect("group exists");
        g.pgmp.begin_or_extend_reconfig(removals, now);
        self.tap.emit(now, started);
        self.announce_membership(now, gid);
        self.maybe_complete_reconfig(now, gid);
    }

    /// Multicast our Membership proposal if it changed (§7.2).
    fn announce_membership(&mut self, now: SimTime, gid: GroupId) {
        let body = {
            let g = self.groups.get_mut(&gid).expect("group exists");
            let Some(rc) = &mut g.pgmp.reconfig else {
                return;
            };
            let proposed = rc.proposed(&g.pgmp.membership);
            if rc.announced.as_ref() == Some(&proposed) {
                return;
            }
            rc.announced = Some(proposed.clone());
            FtmpBody::Membership {
                membership_ts: g.pgmp.membership_ts,
                membership: g.pgmp.membership.iter().copied().collect(),
                seqs: g.contiguous_seqs().into_iter().collect(),
                new_membership: proposed.into_iter().collect(),
            }
        };
        let seq = self.send_reliable(now, gid, body);
        if let Some(g) = self.groups.get_mut(&gid) {
            g.pgmp.last_announce_seq = Some(seq);
        }
    }

    /// A peer's Membership proposal reached source order.
    pub(super) fn on_membership_proposal(
        &mut self,
        now: SimTime,
        gid: GroupId,
        from: ProcessorId,
        proposed: BTreeSet<ProcessorId>,
        seqs: Vec<(ProcessorId, u64)>,
    ) {
        {
            let g = self.groups.get_mut(&gid).expect("group exists");
            if !g.pgmp.proposal(from, proposed, &seqs, now) {
                return;
            }
            // Make the peer's reception evidence visible to RMP so NACKs
            // recover anything it has that we lack.
            for (src, seq) in &seqs {
                g.rmp.note_header(*src, SeqNum(*seq));
            }
        }
        self.announce_membership(now, gid);
        self.maybe_complete_reconfig(now, gid);
    }

    pub(super) fn maybe_complete_reconfig(&mut self, now: SimTime, gid: GroupId) {
        let (proposed, targets) = {
            let Some(g) = self.groups.get(&gid) else {
                return;
            };
            let Some(rc) = &g.pgmp.reconfig else {
                return;
            };
            let proposed = rc.proposed(&g.pgmp.membership);
            if !proposed.contains(&self.id) {
                // The survivors excluded us; leave.
                self.leave_group(gid);
                return;
            }
            if !rc.complete(&proposed, &g.all_contiguous_seqs()) {
                return;
            }
            (proposed, rc.targets())
        };
        // Virtual synchrony established: flush, install, resume.
        let (removed, delivered, membership, membership_ts) = {
            let g = self.groups.get_mut(&gid).expect("group exists");
            let rc = g.pgmp.reconfig.take().expect("checked");
            let delivered = g.romp.flush_with_targets(&targets, &rc.removed);
            let flushed_ts = delivered.last().map_or(Timestamp(0), |m| m.ts);
            let ts = flushed_ts.max(g.pgmp.membership_ts);
            let ts = Timestamp(ts.max(g.romp.ordering().last_delivered().0).0 + 1);
            g.change_view(now, ts, ViewChange::Convict(&rc.removed, &targets));
            debug_assert_eq!(g.pgmp.membership, proposed);
            let removed: Vec<ProcessorId> = rc.removed.into_iter().collect();
            let membership = g.pgmp.membership.clone();
            if let Some(seq) = g.pgmp.last_announce_seq {
                // The zero-copy exclusion notice: a shared handle on the
                // retained announcement's retransmission form.
                g.pgmp.membership_notice = g.rmp.retx_bytes(self.id, seq.0);
            }
            g.pgmp.counters.reconfigurations += 1;
            (removed, delivered, membership, g.pgmp.membership_ts)
        };
        // Emission order matters to the conformance oracles: convictions
        // are *decided* before the flush (the flush is their consequence),
        // so FaultReport goes out first — a checker learns the removals
        // before it sees the survivors deliver past the removed members'
        // discarded tails. The flush deliveries still precede the
        // MembershipChange: they belong to the old view (§7.2).
        for processor in removed {
            let group = gid;
            self.tap.emit(now, Event::Convicted { group, processor });
            self.sink
                .event(ProtocolEvent::FaultReport { group, processor });
        }
        for m in delivered {
            self.handle_ordered(now, gid, m);
        }
        install_view(
            &mut self.tap,
            &mut self.sink,
            now,
            gid,
            &membership,
            membership_ts,
        );
        self.flush_pending(now, gid);
        self.try_deliver(now, gid);
    }
}
