//! What happens when a message reaches its total-order position: GIOP
//! delivery (with joiner floor suppression), connection binding and
//! re-addressing, and the membership operations AddProcessor /
//! RemoveProcessor taking effect at their ordered position.

use super::*;

impl Processor {
    /// A message reached its total-order position.
    pub(super) fn handle_ordered(&mut self, now: SimTime, gid: GroupId, m: FtmpMessage) {
        // The delivery rule and the membership-change flush both end here,
        // so this is the one place that sees every ordered message.
        let ordered = Event::Ordered {
            group: gid,
            key: (m.ts, m.source),
            seq: m.seq.0,
        };
        self.tap.emit(now, ordered);
        match m.body {
            FtmpBody::Regular {
                conn,
                request_num,
                ref giop,
            } => {
                if self
                    .groups
                    .get(&gid)
                    .and_then(|g| g.pgmp.app_floor)
                    .is_some_and(|floor| (m.ts, m.source) <= floor)
                {
                    // Pre-join traffic at a joiner: covered by the state
                    // snapshot, ordered here only to reach the join point.
                } else if self.conns.group_of(conn) == Some(gid) {
                    self.stats.deliveries += 1;
                    let d = Delivery {
                        group: gid,
                        conn,
                        request_num,
                        source: m.source,
                        seq: m.seq,
                        ts: m.ts,
                        giop: giop.clone(),
                    };
                    self.tap.emit(now, Event::Delivered(&d));
                    self.sink.deliver(d);
                } else if m.source == self.id {
                    // The connection was re-addressed under this message
                    // (§7): retransmit on the new binding.
                    let giop = giop.clone();
                    let _ = self.multicast_request(now, conn, request_num, giop);
                }
            }
            FtmpBody::Connect {
                conn,
                group: target,
                mcast_addr,
                ref membership,
                ..
            } => {
                if target == gid {
                    // Connection sharing this (existing) group.
                    self.conns.bind(conn, gid);
                    self.sink
                        .event(ProtocolEvent::ConnectionEstablished { conn, group: gid });
                } else {
                    // Re-addressing: migrate the connection to a new group.
                    let members: BTreeSet<ProcessorId> = membership.iter().copied().collect();
                    if members.contains(&self.id) && !self.groups.contains_key(&target) {
                        let romp = RompLayer::new(members.iter().copied(), Timestamp(0));
                        let mut gs = GroupState::new(
                            self.id,
                            McastAddr(mcast_addr),
                            members,
                            m.ts,
                            romp,
                            now,
                            self.cfg.flow_control,
                        );
                        gs.pgmp.gate = Some(m.ts);
                        self.groups.insert(target, gs);
                        self.sink.push(Action::Join(McastAddr(mcast_addr)));
                    }
                    if self.groups.contains_key(&target) {
                        self.conns.bind(conn, target);
                        self.sink.event(ProtocolEvent::ConnectionEstablished {
                            conn,
                            group: target,
                        });
                    }
                }
            }
            FtmpBody::AddProcessor { new_member, .. } => {
                // The group may be gone if an earlier message in the same
                // ordered batch removed us; the remaining batch is moot.
                let Some(g) = self.groups.get_mut(&gid) else {
                    return;
                };
                if new_member == self.id && g.pgmp.provisional_since.take().is_some() {
                    // Our own AddProcessor reached its total-order position:
                    // the group committed the join. The membership timestamp
                    // is the AddProcessor's `ts`, so this view's identity
                    // matches the MembershipChange the existing members
                    // install for the same operation.
                    let installed = Event::ViewInstalled {
                        group: gid,
                        members: &g.pgmp.membership,
                        ts: g.pgmp.membership_ts,
                    };
                    self.tap.emit(now, installed);
                    self.sink.event(ProtocolEvent::JoinedGroup { group: gid });
                    self.flush_pending(now, gid);
                    return;
                }
                if new_member != self.id && g.pgmp.membership.insert(new_member) {
                    g.pgmp.membership_ts = m.ts;
                    // The added id may be a crashed member rejoining (§7.1
                    // restart): its new incarnation allocates sequence
                    // numbers from 1 again. Reset our receive window — the
                    // old incarnation's window would reject the fresh
                    // stream as stale duplicates — and drop any retention
                    // left from the old stream, whose (source, seq) keys
                    // would shadow the new incarnation's messages.
                    g.rmp.seed_window(new_member, 1);
                    g.rmp.retention_mut().drop_beyond(new_member, 0);
                    g.romp.ordering_mut().add_member(new_member, m.ts);
                    g.pgmp.last_heard.insert(new_member, now);
                    let (members, ts) = (&g.pgmp.membership, g.pgmp.membership_ts);
                    install_view(&mut self.tap, &mut self.sink, now, gid, members, ts);
                }
            }
            FtmpBody::RemoveProcessor { member } => {
                if member == self.id {
                    self.leave_group(gid);
                } else {
                    let Some(g) = self.groups.get_mut(&gid) else {
                        return;
                    };
                    if g.pgmp.membership.remove(&member) {
                        // Ordering this remove required our horizon for the
                        // leaver to pass the remove's timestamp; tombstone
                        // that proof before the slot drops, so a laggard
                        // that missed the leaver's final heartbeats can be
                        // rescued (`maybe_rescue_laggard`).
                        let horizon = g.romp.ordering().horizon_of(member).unwrap_or(m.ts);
                        let ack = g
                            .romp
                            .ordering()
                            .reported_acks()
                            .find(|&(p, _)| p == member)
                            .map(|(_, a)| a)
                            .unwrap_or(Timestamp::ZERO);
                        g.departed
                            .push_back((member, g.rmp.contiguous_of(member), horizon, ack));
                        if g.departed.len() > 8 {
                            g.departed.pop_front();
                        }
                        g.pgmp.membership_ts = m.ts;
                        g.romp.ordering_mut().remove_member(member);
                        g.pgmp.last_heard.remove(&member);
                        g.pgmp.my_suspects.remove(&member);
                        g.pgmp.arrivals.remove(&member);
                        g.pgmp.suspicion.retain_members(&g.pgmp.membership);
                        let (members, ts) = (&g.pgmp.membership, g.pgmp.membership_ts);
                        install_view(&mut self.tap, &mut self.sink, now, gid, members, ts);
                    }
                }
            }
            _ => unreachable!("only ordered types reach handle_ordered"),
        }
    }

    pub(super) fn leave_group(&mut self, gid: GroupId) {
        if let Some(g) = self.groups.remove(&gid) {
            self.departed.merge(&g.layer_counters());
            self.sink.push(Action::Leave(g.addr));
            if let Some(o) = g.overlay {
                for a in o.subscribed {
                    self.sink.push(Action::Leave(a));
                }
            }
            self.sink.event(ProtocolEvent::LeftGroup { group: gid });
        }
    }

    /// Transmit the sends queued behind a Connect gate or a reconfiguration,
    /// in order, for as long as the group is unblocked and the send window
    /// open. A closed window parks the rest (`multicast_request` would
    /// refuse them, and a refused pop is a lost message); the window's
    /// reopening flushes again.
    pub(super) fn flush_pending(&mut self, now: SimTime, gid: GroupId) {
        loop {
            let Some(g) = self.groups.get_mut(&gid) else {
                return;
            };
            if g.blocked() || !g.romp.window().is_open() {
                return;
            }
            let Some((conn, request_num, giop)) = g.pending_ordered.pop_front() else {
                return;
            };
            let _ = self.multicast_request(now, conn, request_num, giop);
        }
    }
}
