//! Timer-driven duties, fanned out from [`Processor::tick`]: heartbeats,
//! NACK solicitation (RMP), the fault detector (PGMP), handshake retries and
//! the provisional-join watchdog.
//!
//! Every resend here is a `Bytes` handle prepared when the message was first
//! sent — ticking never re-encodes.

use super::*;
use crate::adaptive;
use crate::pgmp::AckProgress;

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
        self.at(t + d + SimDuration::from_micros(1));
    }
}

impl Processor {
    pub(super) fn tick_heartbeats(&mut self, now: SimTime, next: &mut NextDue) {
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
        let mut cur = None;
        while let Some(gid) = self.next_group(cur) {
            cur = Some(gid);
            let g = &self.groups[&gid];
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
            let tree_depth = self
                .groups
                .get(&gid)
                .and_then(|g| g.overlay.as_ref())
                .map(|o| o.tree.depth());
            let hold = match tree_depth {
                None => hold_flat,
                Some(d) => SimDuration::from_micros(
                    (hold_flat.as_micros() / (2 * d as u64).max(1))
                        .max(self.cfg.heartbeat_interval.as_micros()),
                ),
            };
            let defer = self.cfg.packing.enabled && {
                let g = self.groups.get(&gid).expect("listed");
                now.saturating_since(g.last_sent) < hold
                    && g.romp.ordering().queue_len() == 0
                    && g.rmp.retention().is_empty()
                    && g.vector_seen_at
                        .is_some_and(|t| now.saturating_since(t) < hold)
            };
            if defer {
                let g = self.groups.get_mut(&gid).expect("listed");
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
    /// nothing in steady state and nothing in flat mode.
    pub(super) fn tick_overlay_solicits(&mut self, now: SimTime) {
        let hold = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() / 2);
        let due: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, g)| {
                g.overlay.is_some() && now.saturating_since(g.last_solicit_sent) >= hold
            })
            .filter(|(_, g)| {
                let stalled = g.romp.ordering().queue_len() > 0
                    && now.saturating_since(g.last_progress) >= hold;
                // Only unsuspected peers count: once suspicion fires the
                // fault path owns the peer, and solicitation's job is to
                // stop liveness gaps from *becoming* suspicion.
                let starving = g.pgmp.membership.iter().any(|&p| {
                    p != self.id
                        && !g.pgmp.my_suspects.contains(&p)
                        && g.pgmp
                            .last_heard
                            .get(&p)
                            .is_some_and(|&t| now.saturating_since(t) >= hold)
                });
                stalled || starving
            })
            .map(|(gid, _)| *gid)
            .collect();
        for gid in due {
            if let Some(g) = self.groups.get_mut(&gid) {
                g.last_solicit_sent = now;
            }
            self.send_overlay_digest(now, gid, DigestDest::Solicit);
        }
    }

    pub(super) fn tick_nacks(&mut self, now: SimTime, next: &mut NextDue) {
        let max_span = MAX_NACK_SPAN;
        let mut cur = None;
        while let Some(gid) = self.next_group(cur) {
            cur = Some(gid);
            let requests = {
                let g = self.groups.get_mut(&gid).expect("listed");
                // The jitter window tracks SRTT and re-issues back off
                // exponentially per unanswered attempt, up to fail_timeout.
                let jitter_max = adaptive::nack_jitter_max(&g.rtt).as_micros().max(1);
                let cfg = &self.cfg;
                let rtt = g.rtt;
                let rng = &mut self.rng;
                let mut draws = 0;
                let requests = g.rmp.nack_requests(
                    now,
                    max_span,
                    || {
                        draws += 1;
                        SimDuration::from_micros(rng.gen_range(0..=jitter_max))
                    },
                    |attempts| adaptive::nack_retry_after(cfg, &rtt, attempts),
                    &mut next.0,
                );
                g.nack_draws = (draws, jitter_max);
                requests
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

    pub(super) fn tick_fault_detector(&mut self, now: SimTime, next: &mut NextDue) {
        // The last tick before this one, swept or idle: the refresh every
        // idle tick owed a caught-up member's ack progress.
        let last_tick = self.last_tick;
        let mut cur = None;
        while let Some(gid) = self.next_group(cur) {
            cur = Some(gid);
            // Ack-progress detector: a member still heartbeating (so the
            // silence timeout below never fires) whose reported ack sits
            // below our own reception frontier and has not moved for
            // `ack_stall_timeout` cannot be recovering data — persistent
            // one-way loss towards it swallows originals and NACK repairs
            // alike. Left in place it stalls stability and pins retention
            // group-wide, so it is suspected like any silent member.
            let stalled: Vec<ProcessorId> = {
                let g = self.groups.get_mut(&gid).expect("listed");
                let own_ack = g.romp.ordering().ack_ts();
                let mut out = Vec::new();
                for (p, ack) in g.romp.ordering().reported_acks() {
                    if p == self.id {
                        continue;
                    }
                    let entry = g.pgmp.ack_progress.entry(p).or_insert(AckProgress {
                        ack,
                        since: now,
                        caught_up: false,
                    });
                    if entry.caught_up {
                        entry.since = last_tick;
                    }
                    entry.caught_up = ack >= own_ack;
                    if ack > entry.ack || entry.caught_up {
                        entry.ack = ack;
                        entry.since = now;
                    } else if !g.pgmp.my_suspects.contains(&p) {
                        if now.saturating_since(entry.since) > self.cfg.ack_stall_timeout {
                            out.push(p);
                        } else {
                            next.past(entry.since, self.cfg.ack_stall_timeout);
                        }
                    }
                }
                out
            };
            let (newly, resend_due): (Vec<ProcessorId>, bool) = {
                let g = self.groups.get(&gid).expect("listed");
                let mut newly = g
                    .pgmp
                    .membership
                    .iter()
                    .copied()
                    .filter(|&p| {
                        if p == self.id || g.pgmp.my_suspects.contains(&p) {
                            return false;
                        }
                        // Per-peer timeout: the configured constant is
                        // stretched to cover the peer's observed
                        // interarrival envelope, so a latency spike widens
                        // suspicion instead of convicting a healthy member.
                        let timeout = adaptive::fail_timeout_for(&self.cfg, &g.pgmp.arrivals_of(p));
                        let Some(&t) = g.pgmp.last_heard.get(&p) else {
                            return false;
                        };
                        next.past(t, timeout);
                        now.saturating_since(t) > timeout
                    })
                    .collect::<Vec<ProcessorId>>();
                for p in stalled {
                    if !newly.contains(&p) {
                        newly.push(p);
                    }
                }
                // Standing suspicions are re-announced periodically so a
                // peer that discarded an earlier report (stale epoch, or a
                // quorum that was one vote short) still converges.
                let resend_due = !g.pgmp.my_suspects.is_empty() && {
                    let half = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() / 2);
                    next.past(g.pgmp.last_suspect_sent, half);
                    now.saturating_since(g.pgmp.last_suspect_sent) > half
                };
                (newly, resend_due)
            };
            if newly.is_empty() && !resend_due {
                continue;
            }
            let body = {
                let g = self.groups.get_mut(&gid).expect("listed");
                g.pgmp.my_suspects.extend(newly.iter().copied());
                g.pgmp.last_suspect_sent = now;
                FtmpBody::Suspect {
                    membership_ts: g.pgmp.membership_ts,
                    suspects: g.pgmp.my_suspects.iter().copied().collect(),
                }
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

    pub(super) fn tick_retries(&mut self, now: SimTime, next: &mut NextDue) {
        // Client ConnectRequest retries.
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
        // Sponsor AddProcessor retransmissions until the joiner is heard.
        let mut cur = None;
        while let Some(gid) = self.next_group(cur) {
            cur = Some(gid);
            let g = self.groups.get_mut(&gid).expect("listed");
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
    /// processor forever.
    pub(super) fn tick_provisional_joins(&mut self, now: SimTime, next: &mut NextDue) {
        let limit = SimDuration::from_micros(self.cfg.fail_timeout.as_micros() * 4);
        let orphaned: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, g)| {
                g.pgmp.provisional_since.is_some_and(|t| {
                    next.past(t, limit);
                    now.saturating_since(t) > limit
                })
            })
            .map(|(gid, _)| *gid)
            .collect();
        for gid in orphaned {
            self.leave_group(gid);
        }
    }
}
