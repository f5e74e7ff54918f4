//! PGMP orchestration: suspicion reports, membership proposals, and the
//! reconfiguration protocol (§7.2) that re-establishes virtual synchrony.
//!
//! The membership *state* lives in [`PgmpGroup`](crate::pgmp::PgmpGroup);
//! this module is the shell glue that turns what it decides into sends,
//! flushes and events, and coordinates the cross-layer steps a completed
//! reconfiguration requires (ROMP flush, RMP retention trimming).

use super::*;

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
                seqs: g.seq_vector(),
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
                g.rmp.handle(RmpInput::HeaderSeq {
                    source: *src,
                    seq: SeqNum(*seq),
                });
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
            let removed: Vec<ProcessorId> = rc.removed.iter().copied().collect();
            for r in &removed {
                g.romp.ordering_mut().remove_member(*r);
                g.pgmp.last_heard.remove(r);
                g.pgmp.my_suspects.remove(r);
                g.pgmp.arrivals.remove(r);
                g.pgmp.ack_progress.remove(r);
                if let Some(t) = targets.get(r) {
                    g.rmp.retention_mut().drop_beyond(*r, *t);
                }
            }
            g.pgmp.membership = proposed;
            let flushed_ts = delivered.last().map(|m| m.ts).unwrap_or(Timestamp(0));
            g.pgmp.membership_ts = Timestamp(
                flushed_ts
                    .0
                    .max(g.pgmp.membership_ts.0)
                    .max(g.romp.ordering().last_delivered().0 .0)
                    + 1,
            );
            let membership = g.pgmp.membership.clone();
            g.pgmp.suspicion.retain_members(&membership);
            for p in &membership {
                g.pgmp.last_heard.insert(*p, now);
            }
            if let Some(seq) = g.pgmp.last_announce_seq {
                // The zero-copy exclusion notice: a shared handle on the
                // retained announcement's retransmission form.
                g.pgmp.membership_notice = g.rmp.retention_mut().retx_bytes(self.id, seq.0);
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
