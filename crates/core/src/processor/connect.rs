//! PGMP connection establishment (§7) and processor addition (§7.1): the
//! ConnectRequest/Connect handshake run by the server-side primary, plus the
//! outsider paths that let a processor join a group it is not yet in.
//!
//! All resend state is kept as encoded wire bytes ([`bytes::Bytes`] handles
//! into the retention store) so retries never re-encode.

use super::*;
use crate::pgmp::ConnectRetx;

impl Processor {
    pub(super) fn handle_connect_request(&mut self, now: SimTime, msg: &FtmpMessage) {
        let FtmpBody::ConnectRequest {
            conn,
            ref client_processors,
        } = msg.body
        else {
            return;
        };
        let Some(reg) = self.conns.servers.get(&conn.server) else {
            return;
        };
        if reg.primary() != Some(self.id) {
            return;
        }
        if let Some(group) = self
            .conns
            .group_of(conn)
            .or(self.conns.promised.get(&conn).copied())
        {
            // Already established or in progress: nudge the Connect
            // retransmission instead of allocating again (§7: "the server
            // should ignore such requests" — but a lost Connect must still
            // be recoverable, which the retransmission loop provides).
            let _ = group;
            return;
        }
        let domain_addr = self.conns.server_domain_addrs.get(&conn.server).copied();
        let union: BTreeSet<ProcessorId> = reg
            .processors
            .iter()
            .chain(client_processors.iter())
            .copied()
            .collect();
        // Reuse an instantiated pool group with exactly this membership
        // (several logical connections share one processor group, §7).
        let reuse = reg.pool.iter().copied().find(|(gid, _)| {
            self.groups
                .get(gid)
                .is_some_and(|g| g.pgmp.membership == union)
        });
        if let Some((gid, _)) = reuse {
            self.conns.promised.insert(conn, gid);
            let g = self.groups.get(&gid).expect("instantiated");
            let body = FtmpBody::Connect {
                conn,
                group: gid,
                mcast_addr: g.addr.0,
                membership_ts: g.pgmp.membership_ts,
                membership: g.pgmp.membership.iter().copied().collect(),
            };
            self.send_reliable(now, gid, body);
            return;
        }
        // Allocate a fresh pool entry.
        let fresh = reg.pool.iter().copied().find(|(gid, _)| {
            !self.groups.contains_key(gid) && !self.conns.promised.values().any(|g| g == gid)
        });
        let Some((gid, addr)) = fresh else {
            return; // pool exhausted; the client will keep retrying
        };
        self.conns.promised.insert(conn, gid);
        let gs = GroupState::new(
            self.id,
            addr,
            union,
            Timestamp(0),
            now,
            self.cfg.flow_control,
        );
        self.insert_group(gid, gs);
        self.sink.push(Action::Join(addr));
        let body = {
            let g = self.groups.get(&gid).expect("just inserted");
            FtmpBody::Connect {
                conn,
                group: gid,
                mcast_addr: addr.0,
                membership_ts: Timestamp(0),
                membership: g.pgmp.membership.iter().copied().collect(),
            }
        };
        let seq = self.send_reliable(now, gid, body);
        let g = self.groups.get_mut(&gid).expect("just inserted");
        g.pgmp.gate = Some(self.clock.current());
        // Shared handles into the retention store: the original form for the
        // initial domain-address copy, the retransmission form for retries.
        let wire = g.rmp.wire_bytes(self.id, seq.0).expect("just retained");
        let retx = g.rmp.retx_bytes(self.id, seq.0).expect("just retained");
        g.pgmp.connect_retx = Some(ConnectRetx {
            retx,
            domain_addr,
            next_retry: now + JOIN_RETRY,
        });
        // The new group's other members are not subscribed yet: the Connect
        // must also travel on the domain address they all listen to.
        if let Some(da) = domain_addr {
            self.send_wire(now, da, wire);
        }
    }

    /// A Connect arrived for a group we are not in (via the domain address).
    pub(super) fn handle_connect_as_outsider(
        &mut self,
        now: SimTime,
        msg: FtmpMessage,
        wire: Bytes,
    ) {
        let FtmpBody::Connect {
            conn,
            group: gid,
            mcast_addr,
            ref membership,
            ..
        } = msg.body
        else {
            return;
        };
        let members: BTreeSet<ProcessorId> = membership.iter().copied().collect();
        if !members.contains(&self.id) {
            return;
        }
        self.clock.observe(msg.ts);
        let mut gs = GroupState::new(
            self.id,
            McastAddr(mcast_addr),
            members,
            Timestamp(0),
            now,
            self.cfg.flow_control,
        );
        gs.pgmp.gate = Some(msg.ts);
        self.insert_group(gid, gs);
        self.sink.push(Action::Join(McastAddr(mcast_addr)));
        self.conns.pending.remove(&conn);
        self.conns.promised.insert(conn, gid);
        // Run the Connect itself through the normal reliable path so the
        // primary's stream state (seq 1) is accounted for and the binding
        // happens at the message's ordered position.
        self.handle_reliable(now, msg, wire, false);
    }

    /// An AddProcessor naming us arrived while we awaited a join (§7.1).
    pub(super) fn handle_add_as_joiner(&mut self, now: SimTime, msg: FtmpMessage, wire: Bytes) {
        let FtmpBody::AddProcessor {
            ref membership,
            ref seqs,
            new_member,
            ..
        } = msg.body
        else {
            return;
        };
        debug_assert_eq!(new_member, self.id);
        let gid = msg.group;
        let Some(addr) = self.expecting_joins.remove(&gid) else {
            return; // not expecting this join
        };
        self.clock.observe(msg.ts);
        let mut members: BTreeSet<ProcessorId> = membership.iter().copied().collect();
        members.insert(self.id);
        // The cited cut is the sponsor's ordered prefix; everything after it
        // must be received and *ordered by us too* — including membership
        // operations positioned before the AddProcessor itself (they carry
        // the snapshot membership forward to the join position). Horizons
        // therefore start at zero and ordering runs normally; only Regular
        // deliveries at or below the join position are suppressed, because
        // the application state snapshot covers them.
        let mut gs = GroupState::new(self.id, addr, members, msg.ts, now, self.cfg.flow_control);
        gs.pgmp.app_floor = Some((msg.ts, msg.source));
        gs.pgmp.provisional_since = Some(now);
        for (src, cited) in seqs {
            gs.rmp.seed_window(*src, cited + 1);
        }
        self.insert_group(gid, gs);
        // Consume the AddProcessor itself through the normal path (it is the
        // sponsor's next message after its cited sequence number).
        self.handle_reliable(now, msg, wire, false);
    }
}
