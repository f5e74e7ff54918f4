//! Timer-driven duties, fanned out from [`Processor::tick`]: heartbeats,
//! NACK solicitation (RMP), the fault detector (PGMP), handshake retries and
//! the provisional-join watchdog.
//!
//! Every resend here is a `Bytes` handle prepared when the message was first
//! sent — ticking never re-encodes.
//!
//! A sweep runs every duty, but each returns early when it has nothing to
//! do: no overlay, no pending retry, no window with a gap, no member that
//! can be overdue, no ack-stall input that moved (DESIGN.md §4 "The busy
//! tick"). Under `debug_assertions` every such skip asserts that the full
//! duty would have done nothing.

use super::*;
use crate::adaptive;
use crate::pgmp::{AckProgress, Peer};

/// One microsecond: a duty acts once strictly more than its timeout passed.
const TICK: SimDuration = SimDuration::from_micros(1);

/// The earliest time any duty of a sweep could next act (DESIGN.md §4
/// "Adaptive timers"). Each duty lowers it as it goes; it starts at the
/// end of time, where it stays if nothing is scheduled at all.
#[derive(Debug)]
pub(super) struct NextDue(pub(super) SimTime);

impl Default for NextDue {
    fn default() -> Self {
        NextDue(SimTime(u64::MAX))
    }
}

impl NextDue {
    /// A duty could act at `at`.
    pub(super) fn at(&mut self, at: SimTime) {
        self.0 = self.0.min(at);
    }

    /// A duty acts once strictly more than `d` has passed since `t`.
    fn past(&mut self, t: SimTime, d: SimDuration) {
        self.at(t + d + TICK);
    }
}

/// What the fault detector's two scans read when they last ran. A scan is
/// skipped while its gate holds; the first scan of a new group always runs.
#[derive(Debug, Default)]
pub(super) struct DetectorGate {
    /// No member but this one can be overdue before this time: the earliest
    /// `last_heard` of the others at the last silence scan (that scan's own
    /// time if there was none), plus `fail_timeout`, plus 1 µs.
    /// `last_heard` only rises and a new entry is stamped with the time it
    /// is made, so the bound stays a lower one until the next scan.
    silent_from: SimTime,
    /// The ack-stall scan's inputs when it last ran: `ack_version`, our own
    /// ack, the view's timestamp and the number of members we suspect.
    ack_inputs: Option<(u64, Timestamp, Timestamp, usize)>,
    /// The earliest time a lagging, unsuspected member's stall runs out, as
    /// of that scan.
    ack_due: SimTime,
}

/// How often each gated duty skipped (test builds only).
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Skips {
    pub(super) solicits: u64,
    pub(super) retries: u64,
    pub(super) connect_retries: u64,
    pub(super) nacks: u64,
    pub(super) silence: u64,
    pub(super) ack_stall: u64,
}

/// One pass of the ack-progress detector over the `peers`' rows (see
/// [`Processor::tick_fault_detector`]): the members whose stall ran out,
/// and the earliest time another one's will.
fn ack_stall_pass(
    peers: &mut BTreeMap<ProcessorId, Peer>,
    acks: impl Iterator<Item = (ProcessorId, Timestamp)>,
    own_ack: Timestamp,
    me: ProcessorId,
    stall: SimDuration,
    now: SimTime,
) -> (Vec<ProcessorId>, SimTime) {
    let mut out = Vec::new();
    let mut due = SimTime(u64::MAX);
    for (p, ack) in acks {
        // Every member has a row from the moment it enters the view.
        let Some(peer) = peers.get_mut(&p).filter(|_| p != me) else {
            continue;
        };
        let entry = peer.ack_progress.get_or_insert(AckProgress {
            ack,
            since: now,
            caught_up: false,
        });
        if entry.caught_up {
            entry.since = now;
        }
        entry.caught_up = ack >= own_ack;
        if ack > entry.ack || entry.caught_up {
            entry.ack = ack;
            entry.since = now;
        }
        if entry.caught_up || peer.suspected {
            continue;
        }
        if now.saturating_since(entry.since) > stall {
            out.push(p);
        } else {
            due = due.min(entry.since + stall + TICK);
        }
    }
    (out, due)
}

impl GroupState {
    /// The ack-progress detector. Skipped while none of its inputs moved
    /// since it last ran and no lagging entry's stall can have run out:
    /// it would then only restamp `since` on entries level with our
    /// frontier, and the first pass after any change restamps them again
    /// before anything reads them. `ack_ts()` is read either way: it
    /// records `last_ack_floor`.
    fn ack_stalls(
        &mut self,
        me: ProcessorId,
        stall: SimDuration,
        now: SimTime,
        forced: bool,
        next: &mut NextDue,
    ) -> Option<Vec<ProcessorId>> {
        let ord = self.romp.ordering();
        let own_ack = ord.ack_ts();
        let inputs = (
            ord.ack_version(),
            own_ack,
            self.pgmp.membership_ts,
            self.pgmp.suspects().count(),
        );
        let gate = &mut self.detector;
        if !forced && gate.ack_inputs == Some(inputs) && now < gate.ack_due {
            #[cfg(debug_assertions)]
            {
                let mut probe = self.pgmp.peers.clone();
                let acks = ord.reported_acks();
                let (out, due) = ack_stall_pass(&mut probe, acks, own_ack, me, stall, now);
                debug_assert!(
                    out.is_empty() && due == gate.ack_due,
                    "a skipped ack-stall scan would act"
                );
            }
            next.at(gate.ack_due);
            return None;
        }
        let acks = ord.reported_acks();
        let (out, due) = ack_stall_pass(&mut self.pgmp.peers, acks, own_ack, me, stall, now);
        gate.ack_inputs = Some(inputs);
        gate.ack_due = due;
        next.at(due);
        Some(out)
    }

    /// The silence detector: every unsuspected member not heard for its
    /// adaptive fail timeout. Skipped before the gate's bound, where no
    /// member can be overdue: `fail_timeout_for` never returns less than
    /// `fail_timeout`. While skipped it lowers the deadline to the bound,
    /// which is never later than the scan's own per-member deadlines.
    fn silent_members(
        &mut self,
        me: ProcessorId,
        cfg: &ProtocolConfig,
        now: SimTime,
        forced: bool,
        next: &mut NextDue,
    ) -> Option<Vec<ProcessorId>> {
        let pgmp = &self.pgmp;
        if !forced && now < self.detector.silent_from {
            debug_assert!(
                pgmp.membership.iter().all(|&p| {
                    p == me
                        || pgmp.peers.get(&p).is_none_or(|peer| {
                            let timeout = adaptive::fail_timeout_for(cfg, &peer.arrivals);
                            peer.suspected || now.saturating_since(peer.last_heard) <= timeout
                        })
                }),
                "a skipped silence scan would act"
            );
            next.at(self.detector.silent_from);
            return None;
        }
        let mut earliest = now;
        let silent = pgmp
            .membership
            .iter()
            .copied()
            .filter(|&p| {
                let Some(peer) = pgmp.peers.get(&p).filter(|_| p != me) else {
                    return false;
                };
                let t = peer.last_heard;
                earliest = earliest.min(t);
                if peer.suspected {
                    return false;
                }
                // Per-peer timeout: the configured constant is stretched to
                // cover the peer's observed interarrival envelope, so a
                // latency spike widens suspicion instead of convicting a
                // healthy member.
                let timeout = adaptive::fail_timeout_for(cfg, &peer.arrivals);
                next.past(t, timeout);
                now.saturating_since(t) > timeout
            })
            .collect();
        self.detector.silent_from = earliest + cfg.fail_timeout + TICK;
        Some(silent)
    }
}

impl Processor {
    pub(super) fn tick_heartbeats(
        &mut self,
        now: SimTime,
        list: &mut SweepList,
        next: &mut NextDue,
    ) {
        // With packing on, a heartbeat that would carry no news is deferred
        // (DESIGN.md §5). Every condition below is a safety gate: the
        // ordering queue must be empty and the retention store drained —
        // retention holds *every* reliable message (any source) until the
        // whole group reported acks past it, so an empty store means our ack
        // timestamp, however the Lamport clock moves it, cannot advance
        // stability for anyone. A peer's piggybacked ack vector must also
        // have arrived recently, proving ack state still circulates without
        // us beaconing. The deferral never exceeds half the fault-detector
        // timeout, so liveness and suspicion behaviour are untouched.
        let hold_flat = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() / 2);
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let Some(g) = self.groups.get(&gid) else {
                continue;
            };
            let Some(due) = self.heartbeat_due(g, now) else {
                next.at(self.heartbeat_next(g, now));
                continue;
            };
            // Tree mode divides the cap by the worst-case relay distance: a
            // quiet leaf's liveness reaches a leaf in another subtree only
            // through relayed digests (leaf → root → leaf, 2 × depth hops),
            // and every interior hop may itself defer by the same cap, so a
            // flat fail_timeout/2 here would compound to 2·depth·cap of
            // staleness and convict healthy members. Dividing keeps the
            // end-to-end staleness bound at fail_timeout/2 regardless of
            // tree depth (the regression test holds a quiet leaf at 64
            // members).
            let tree_depth = g.overlay.as_ref().map(|o| o.tree.depth());
            let hold = match tree_depth {
                None => hold_flat,
                Some(d) => SimDuration::from_micros(
                    (hold_flat.as_micros() / (2 * d as u64).max(1))
                        .max(self.cfg.heartbeat_interval.as_micros()),
                ),
            };
            let defer = self.cfg.packing.enabled
                && now.saturating_since(g.last_sent) < hold
                && g.romp.ordering().queue_len() == 0
                && g.rmp.retained_len() == 0
                && g.vector_seen_at
                    .is_some_and(|t| now.saturating_since(t) < hold);
            if defer {
                let Some(g) = self.groups.get_mut(&gid) else {
                    continue;
                };
                // Deferred until our silence or the peers' vector grows
                // stale; only a packet or a send can end it sooner.
                next.at(g.last_sent + hold);
                if let Some(seen) = g.vector_seen_at {
                    next.at(seen + hold);
                }
                if !g.hb_deferred_since_send {
                    g.hb_deferred_since_send = true;
                    self.stats.heartbeats_suppressed += 1;
                }
            } else if tree_depth.is_some() {
                self.send_overlay_digest(now, gid, DigestDest::Neighborhood);
            } else {
                self.send_heartbeat(now, gid, due);
            }
        }
    }

    /// Tree-mode starvation fallback (DESIGN.md §13). A strict tree gives
    /// every pair of members exactly one dissemination path, and churn can
    /// sever it: a voluntarily-leaving interior node takes its subtree's
    /// only upstream with it, and any node whose rebuilt parent is itself
    /// wedged starves in turn — neither can ever order the view change that
    /// would heal the tree, because ordering needs fresh horizon evidence
    /// the tree no longer carries to them. When this node detects it is
    /// starving — ordering queue stalled, or some unsuspected member quiet,
    /// past half the fault-detector timeout — it broadcasts a solicit digest
    /// on the flat group address; every member answers with its own digest
    /// there (see `handle_overlay_digest`), and one round of answers carries
    /// every live member's fresh header past any severed tree edge. Costs
    /// nothing in steady state and nothing in flat mode, where no group has
    /// an overlay.
    pub(super) fn tick_overlay_solicits(&mut self, now: SimTime, list: &mut SweepList) {
        if self.cfg.overlay == OverlayPolicy::Flat && !self.forced() {
            debug_assert!(self.groups.values().all(|g| g.overlay.is_none()));
            #[cfg(test)]
            {
                self.skips.solicits += 1;
            }
            return;
        }
        let hold = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() / 2);
        let mut due = Vec::new();
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let Some(g) = self.groups.get(&gid) else {
                continue;
            };
            let quiet = g.overlay.is_none() || now.saturating_since(g.last_solicit_sent) < hold;
            if quiet {
                continue;
            }
            let stalled =
                g.romp.ordering().queue_len() > 0 && now.saturating_since(g.last_progress) >= hold;
            // Only unsuspected peers count: once suspicion fires the fault
            // path owns the peer, and solicitation's job is to stop liveness
            // gaps from *becoming* suspicion.
            let starving = g.pgmp.membership.iter().any(|&p| {
                p != self.id
                    && g.pgmp.peers.get(&p).is_some_and(|peer| {
                        !peer.suspected && now.saturating_since(peer.last_heard) >= hold
                    })
            });
            if stalled || starving {
                due.push(gid);
            }
        }
        for gid in due {
            if let Some(g) = self.groups.get_mut(&gid) {
                g.last_solicit_sent = now;
            }
            self.send_overlay_digest(now, gid, DigestDest::Solicit);
        }
    }

    pub(super) fn tick_nacks(&mut self, now: SimTime, list: &mut SweepList, next: &mut NextDue) {
        let max_span = MAX_NACK_SPAN;
        let forced = self.forced();
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let requests = {
                let Some(g) = self.groups.get_mut(&gid) else {
                    continue;
                };
                if !forced && !g.rmp.nacks_pending() {
                    #[cfg(test)]
                    {
                        self.skips.nacks += 1;
                    }
                    continue;
                }
                // The jitter window tracks SRTT and re-issues back off
                // exponentially per unanswered attempt, up to fail_timeout.
                // The jitter is this member's for this gap episode: its
                // source, its first missing seq and the attempt.
                let jitter_max = adaptive::nack_jitter_max(&g.rtt).as_micros().max(1);
                let cfg = &self.cfg;
                let rtt = g.rtt;
                let me = draw::pair(self.id.0, gid.0);
                g.rmp.nack_requests(
                    now,
                    max_span,
                    |src, seq, attempt| {
                        let key = [draw::NACK_JITTER, me, draw::pair(src.0, attempt), seq];
                        let x = draw(cfg.seed, &key);
                        SimDuration::from_micros(draw::gen_range(x, 0, jitter_max))
                    },
                    |attempts| adaptive::nack_retry_after(cfg, &rtt, attempts),
                    &mut next.0,
                )
            };
            for (src, ranges) in requests {
                for (a, b) in ranges {
                    self.stats.nacks_sent += 1;
                    if self.tap.measuring() {
                        // The window just incremented its attempt counter
                        // for this issue, so reading it back reports the
                        // episode's ordinal (1 = first request).
                        let attempts = self
                            .groups
                            .get(&gid)
                            .map_or(0, |g| g.rmp.nack_attempts_of(src));
                        let nack = Event::Nack {
                            group: gid,
                            source: src,
                            start: a,
                            stop: b,
                            attempts,
                        };
                        self.tap.emit(now, nack);
                    }
                    // Tree mode routes the first attempts at the overlay
                    // neighborhood and escalates persistent gaps to the
                    // whole group; flat mode always multicasts group-wide.
                    let dest = self.overlay_nack_dest(now, gid, src);
                    self.send_unreliable_to(
                        now,
                        gid,
                        dest,
                        FtmpBody::RetransmitRequest {
                            missing_from: src,
                            start_seq: a,
                            stop_seq: b,
                        },
                    );
                }
            }
        }
    }

    /// The fault detector, per group: members silent past their fail
    /// timeout, members whose ack has stalled, and the periodic
    /// re-announcement of standing suspicions. The first two scans are
    /// gated (see [`GroupState::silent_members`] and
    /// [`GroupState::ack_stalls`]).
    pub(super) fn tick_fault_detector(
        &mut self,
        now: SimTime,
        list: &mut SweepList,
        next: &mut NextDue,
    ) {
        let forced = self.forced();
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let Some(g) = self.groups.get_mut(&gid) else {
                continue;
            };
            // Ack-progress detector: a member still heartbeating (so the
            // silence timeout below never fires) whose reported ack sits
            // below our own reception frontier and has not moved for
            // `ack_stall_timeout` cannot be recovering data — persistent
            // one-way loss towards it swallows originals and NACK repairs
            // alike. Left in place it stalls stability and pins retention
            // group-wide, so it is suspected like any silent member.
            let stalled = g.ack_stalls(self.id, self.cfg.ack_stall_timeout, now, forced, next);
            let silent = g.silent_members(self.id, &self.cfg, now, forced, next);
            #[cfg(test)]
            {
                self.skips.ack_stall += u64::from(stalled.is_none());
                self.skips.silence += u64::from(silent.is_none());
            }
            let mut newly = silent.unwrap_or_default();
            for p in stalled.into_iter().flatten() {
                if !newly.contains(&p) {
                    newly.push(p);
                }
            }
            // Standing suspicions are re-announced periodically so a peer
            // that discarded an earlier report (stale epoch, or a quorum
            // that was one vote short) still converges.
            let resend_due = g.pgmp.suspects().next().is_some() && {
                let half = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() / 2);
                next.past(g.pgmp.last_suspect_sent, half);
                now.saturating_since(g.pgmp.last_suspect_sent) > half
            };
            if newly.is_empty() && !resend_due {
                continue;
            }
            for p in &newly {
                if let Some(peer) = g.pgmp.peers.get_mut(p) {
                    peer.suspected = true;
                }
            }
            g.pgmp.last_suspect_sent = now;
            let body = FtmpBody::Suspect {
                membership_ts: g.pgmp.membership_ts,
                suspects: g.pgmp.suspects().collect(),
            };
            for &suspect in &newly {
                let group = gid;
                self.tap.emit(now, Event::Suspected { group, suspect });
            }
            // Reliable: occupies a sequence slot and reaches everyone; our
            // own copy feeds the suspicion matrix via self-delivery.
            self.send_reliable(now, gid, body);
        }
    }

    pub(super) fn tick_retries(&mut self, now: SimTime, list: &mut SweepList, next: &mut NextDue) {
        let forced = self.forced();
        // Client ConnectRequest retries.
        if self.conns.pending.is_empty() && !forced {
            #[cfg(test)]
            {
                self.skips.connect_retries += 1;
            }
        } else {
            let retries: Vec<(ConnectionId, Vec<ProcessorId>, McastAddr)> = self
                .conns
                .pending
                .iter()
                .filter(|(_, p)| {
                    next.at(p.next_retry);
                    now >= p.next_retry
                })
                .map(|(c, p)| (*c, p.client_processors.clone(), p.domain_addr))
                .collect();
            for (conn, procs, addr) in retries {
                if let Some(p) = self.conns.pending.get_mut(&conn) {
                    p.next_retry = now + CONNECT_RETRY;
                }
                self.send_connect_request(now, conn, &procs, addr);
            }
        }
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let Some(g) = self.groups.get_mut(&gid) else {
                continue;
            };
            if g.pgmp.sponsor_joins.is_empty() && g.pgmp.connect_retx.is_none() && !forced {
                #[cfg(test)]
                {
                    self.skips.retries += 1;
                }
                continue;
            }
            // Sponsor AddProcessor retransmissions until the joiner is heard.
            let mut resend: Vec<(McastAddr, Bytes)> = Vec::new();
            let heard: Vec<ProcessorId> = g
                .pgmp
                .sponsor_joins
                .keys()
                .copied()
                .filter(|j| g.pgmp.heard_any.contains(j))
                .collect();
            for j in heard {
                g.pgmp.sponsor_joins.remove(&j);
            }
            let addr = g.addr;
            for sj in g.pgmp.sponsor_joins.values_mut() {
                if now >= sj.next_retry {
                    sj.next_retry = now + JOIN_RETRY;
                    resend.push((addr, sj.retx.clone()));
                }
                next.at(sj.next_retry);
            }
            // Primary Connect retransmissions until all members heard.
            let all_heard = g.pgmp.connect_retx.is_some()
                && g.pgmp
                    .membership
                    .iter()
                    .all(|p| *p == self.id || g.pgmp.heard_any.contains(p));
            if all_heard {
                g.pgmp.connect_retx = None;
            } else if let Some(cr) = &mut g.pgmp.connect_retx {
                if now >= cr.next_retry {
                    cr.next_retry = now + JOIN_RETRY;
                    // Wire order matches the pre-packing shell exactly: the
                    // domain-address copy leaves first, then the queued
                    // group-address resends.
                    if let Some(da) = cr.domain_addr {
                        resend.insert(0, (da, cr.retx.clone()));
                    }
                    resend.push((addr, cr.retx.clone()));
                }
                next.at(cr.next_retry);
            }
            for (to, bytes) in resend {
                self.send_wire(now, to, bytes);
            }
        }
    }

    /// A provisional join that never commits (the sponsor died before our
    /// AddProcessor was ordered and no member adopted us) must not wedge the
    /// processor forever. One field test per group.
    pub(super) fn tick_provisional_joins(
        &mut self,
        now: SimTime,
        list: &mut SweepList,
        next: &mut NextDue,
    ) {
        let limit = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() * 4);
        let mut at = 0;
        while let Some(gid) = self.walk(list, &mut at) {
            let orphaned = self.groups.get(&gid).is_some_and(|g| {
                g.pgmp.provisional_since.is_some_and(|t| {
                    next.past(t, limit);
                    now.saturating_since(t) > limit
                })
            });
            if orphaned {
                self.leave_group(gid);
            }
        }
    }
}
