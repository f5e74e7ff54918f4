//! A complete replicated-CORBA endpoint for the simulator: FTMP processor
//! below, ORB above, moved between by [`Driver::turn`] (DESIGN.md §11).

use crate::conn::Connection;
use crate::endpoint::{Completion, InvocationResult, OrbEndpoint, OutboundMsg};
use bytes::Bytes;
use ftmp_core::{
    ConnectionId, Delivery, Driver, GroupId, Host, Processor, ProtocolEvent, RequestNum, SendError,
};
use ftmp_net::{McastAddr, Outbox, Packet, SimNode, SimTime};
use ftmp_telemetry::HistogramSnapshot;
use std::collections::VecDeque;

/// Outbound GIOP messages parked while the processor reports backpressure.
/// Past this, further work is shed with a typed CORBA `TRANSIENT` exception
/// instead of growing the queue without bound.
const DEFERRED_CAP: usize = 64;

/// Repository id completing a shed invocation — the standard CORBA "try
/// again later" system exception.
const TRANSIENT_REPO_ID: &str = "IDL:omg.org/CORBA/TRANSIENT:1.0";

/// An [`ftmp_net::SimNode`] hosting an FTMP [`Processor`] and an
/// [`OrbEndpoint`]. Deliveries flow up into the ORB; the ORB's outbound
/// GIOP messages flow down as Regular multicasts; completions and protocol
/// events queue for the harness.
pub struct OrbNode {
    driver: Driver,
    up: Upper,
}

/// Everything above the engine: the ORB and what queues for the harness.
struct Upper {
    /// The processor's id, as the simulator knows it.
    src: u32,
    orb: OrbEndpoint,
    events: VecDeque<ProtocolEvent>,
    completions: VecDeque<Completion>,
    /// Outbound messages awaiting `Action::SendReady` (bounded).
    deferred: VecDeque<OutboundMsg>,
    /// True between `Action::Backpressure` and `Action::SendReady`.
    blocked: bool,
    /// Invocations shed with `TRANSIENT` because the deferred queue was full.
    shed: u64,
    /// Reusable pump scratch: outbound GIOP messages for this iteration.
    send_scratch: Vec<OutboundMsg>,
    /// Invocations are clocked from `invoke` to completion (off by default).
    /// The node holds the switch because it is the one with a clock.
    latency_on: bool,
}

impl Host<Outbox> for Upper {
    fn send(&mut self, out: &mut Outbox, addr: McastAddr, payload: Bytes) {
        out.send(Packet::new(self.src, addr, payload));
    }
    fn join(&mut self, out: &mut Outbox, addr: McastAddr) {
        out.join(addr);
    }
    fn leave(&mut self, out: &mut Outbox, addr: McastAddr) {
        out.leave(addr);
    }
    fn deliver(&mut self, _now: SimTime, d: Delivery) {
        self.orb.on_delivery(&d);
    }
    fn event(&mut self, _now: SimTime, e: ProtocolEvent) {
        if let ProtocolEvent::MembershipChange { members, .. } = &e {
            // Warm-passive groups repoint their primary (and replay pending
            // requests) at the membership change, like every other survivor.
            self.orb.note_membership_all(members);
        }
        self.events.push_back(e);
    }
    /// Deferred work is retried on the pump's next iteration.
    fn window(&mut self, _group: GroupId, closed: bool) {
        self.blocked = closed;
    }
}

impl Upper {
    /// Park an outbound message, or shed it with a typed `TRANSIENT`
    /// completion when the parking lot is full.
    fn defer_or_shed(&mut self, ob: OutboundMsg) {
        if self.deferred.len() < DEFERRED_CAP {
            self.deferred.push_back(ob);
        } else {
            self.shed += 1;
            self.orb.conn_mut(ob.conn).retire(ob.request_num);
            self.completions.push_back(Completion {
                conn: ob.conn,
                request_num: ob.request_num,
                result: InvocationResult::Exception(TRANSIENT_REPO_ID.to_string()),
            });
        }
    }

    /// ORB → FTMP: deferred work first (FIFO across backpressure episodes),
    /// then fresh outbound — but only submit while the window is open, so a
    /// closed window parks instead of spinning. Returns whether there was
    /// anything to submit.
    fn submit(&mut self, engine: &mut Processor, now: SimTime) -> bool {
        let mut to_send = std::mem::take(&mut self.send_scratch);
        if !self.blocked {
            to_send.extend(self.deferred.drain(..));
        }
        self.orb.drain_outbound_into(&mut to_send);
        let had_outbound = !to_send.is_empty();
        for ob in to_send.drain(..) {
            if self.blocked {
                self.defer_or_shed(ob);
                continue;
            }
            if let Err(SendError::Backpressured) =
                engine.multicast_request(now, ob.conn, ob.request_num, ob.giop.clone())
            {
                self.blocked = true;
                self.defer_or_shed(ob);
            }
        }
        self.send_scratch = to_send;
        had_outbound
    }
}

impl OrbNode {
    /// Combine a processor and an ORB endpoint.
    pub fn new(proc: Processor, orb: OrbEndpoint) -> Self {
        OrbNode {
            up: Upper {
                src: proc.id().0,
                orb,
                events: VecDeque::new(),
                completions: VecDeque::new(),
                deferred: VecDeque::new(),
                blocked: false,
                shed: 0,
                send_scratch: Vec::new(),
                latency_on: false,
            },
            driver: Driver::new(proc),
        }
    }

    /// Start recording invocation-to-completion latency per connection.
    /// Purely observational: enabling it changes no wire behaviour. The
    /// histograms live next to the rest of each connection's state.
    pub fn enable_latency_telemetry(&mut self) {
        self.up.latency_on = true;
    }

    /// Snapshot of the request-latency histogram for one connection, if
    /// latency telemetry is enabled and the connection completed anything.
    pub fn request_latency(&self, conn: ConnectionId) -> Option<HistogramSnapshot> {
        self.up
            .orb
            .conns
            .get(&conn)
            .and_then(Connection::latency_snapshot)
    }

    /// All per-connection request-latency snapshots recorded so far.
    pub fn request_latencies(
        &self,
    ) -> impl Iterator<Item = (ConnectionId, HistogramSnapshot)> + '_ {
        self.up
            .orb
            .conns
            .iter()
            .filter_map(|(id, c)| Some((*id, c.latency_snapshot()?)))
    }

    /// The FTMP engine.
    pub fn proc(&self) -> &Processor {
        &self.driver.engine
    }

    /// Mutable FTMP engine (drive through [`ftmp_net::SimNet::with_node`]).
    pub fn proc_mut(&mut self) -> &mut Processor {
        &mut self.driver.engine
    }

    /// The ORB endpoint.
    pub fn orb(&self) -> &OrbEndpoint {
        &self.up.orb
    }

    /// Mutable ORB endpoint.
    pub fn orb_mut(&mut self) -> &mut OrbEndpoint {
        &mut self.up.orb
    }

    /// Invoke an operation and pump the resulting request onto the wire.
    /// Returns the request number to match against completions.
    pub fn invoke(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        out: &mut Outbox,
    ) -> RequestNum {
        let num = self.up.orb.invoke(conn, object_key, operation, args);
        if self.up.latency_on {
            self.up.orb.conn_mut(conn).start_clock(num, now);
        }
        self.pump(now, out);
        num
    }

    /// Drain completed invocations.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.up.completions.drain(..).collect()
    }

    /// Drain protocol events.
    pub fn take_events(&mut self) -> Vec<ProtocolEvent> {
        self.up.events.drain(..).collect()
    }

    /// Outbound messages currently parked behind backpressure.
    pub fn deferred_len(&self) -> usize {
        self.up.deferred.len()
    }

    /// Invocations shed with `TRANSIENT` since construction.
    pub fn shed_count(&self) -> u64 {
        self.up.shed
    }

    /// True between `Action::Backpressure` and `Action::SendReady`.
    pub fn is_backpressured(&self) -> bool {
        self.up.blocked
    }

    /// Move data between the layers and the network until quiescent.
    ///
    /// Each iteration is one [`Driver::turn`] whose feed submits every ready
    /// outbound message, so the Packer flushes once per iteration, not once
    /// per message; a steady-state pump allocates nothing.
    pub fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        self.pump_fed(now, out, None, false);
    }

    /// [`pump`](Self::pump), whose first turn also takes in `arrived` and
    /// ticks if `tick_due`.
    fn pump_fed(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
        mut arrived: Option<&Packet>,
        mut tick_due: bool,
    ) {
        loop {
            let mut had_outbound = false;
            let tick = std::mem::take(&mut tick_due);
            let acted = self
                .driver
                .turn(now, tick, &mut self.up, out, |engine, up| {
                    if let Some(pkt) = arrived.take() {
                        engine.handle_packet(now, pkt);
                    }
                    had_outbound = up.submit(engine, now);
                });
            if !acted && !had_outbound {
                break;
            }
        }
        let up = &mut self.up;
        for c in up.orb.drain_completions() {
            if up.latency_on {
                up.orb
                    .conn_mut(c.conn)
                    .record_completion(c.request_num, now);
            }
            up.completions.push_back(c);
        }
    }
}

impl SimNode for OrbNode {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        self.pump_fed(now, out, Some(pkt), false);
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.pump_fed(now, out, None, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{decode_i64_result, encode_i64_arg, BankAccount};
    use crate::InvocationResult;
    use ftmp_core::pgmp::ServerRegistration;
    use ftmp_core::{ClockMode, ConnectionId, GroupId, ObjectGroupId, ProcessorId, ProtocolConfig};
    use ftmp_net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet};

    const DOMAIN_ADDR: McastAddr = McastAddr(500);
    const GROUP_ADDR: McastAddr = McastAddr(600);

    fn og_client() -> ObjectGroupId {
        ObjectGroupId::new(1, 1)
    }
    fn og_server() -> ObjectGroupId {
        ObjectGroupId::new(2, 7)
    }
    fn conn() -> ConnectionId {
        ConnectionId::new(og_client(), og_server())
    }

    /// 2 client processors + 3 server replicas, connected through the full
    /// ConnectRequest/Connect handshake.
    fn build(seed: u64, loss: LossModel) -> SimNet<OrbNode> {
        build_with(seed, loss, ProtocolConfig::with_seed(seed))
    }

    fn build_with(seed: u64, loss: LossModel, cfg: ProtocolConfig) -> SimNet<OrbNode> {
        let sim_cfg = SimConfig::with_seed(seed).loss(loss);
        let mut net = SimNet::new(sim_cfg);
        net.set_classifier(ftmp_core::wire::classify);
        let clients = [ProcessorId(1), ProcessorId(2)];
        let servers = [ProcessorId(3), ProcessorId(4), ProcessorId(5)];
        for id in 1..=5u32 {
            let mut proc =
                ftmp_core::Processor::new(ProcessorId(id), cfg.clone(), ClockMode::Lamport);
            let mut orb = OrbEndpoint::new();
            if id <= 2 {
                orb.register_client(conn());
            } else {
                orb.host_replica(
                    og_server(),
                    b"bank".to_vec(),
                    Box::new(BankAccount::with_balance(1_000)),
                );
                proc.register_server(
                    og_server(),
                    ServerRegistration {
                        processors: servers.to_vec(),
                        pool: vec![(GroupId(10), GROUP_ADDR)],
                    },
                    DOMAIN_ADDR,
                );
            }
            let node = OrbNode::new(proc, orb);
            net.add_node(id, node);
            // Apply the initial actions (servers join the domain address).
            net.with_node(id, |n, now, out| n.pump(now, out));
        }
        // Clients open the connection.
        for id in 1..=2u32 {
            net.with_node(id, |n, now, out| {
                n.proc_mut()
                    .open_connection(now, conn(), clients.to_vec(), DOMAIN_ADDR);
                n.pump(now, out);
            });
        }
        net
    }

    fn wait_connected(net: &mut SimNet<OrbNode>) {
        for _ in 0..200 {
            net.run_for(SimDuration::from_millis(5));
            let all = (1..=5u32).all(|id| {
                net.node(id)
                    .unwrap()
                    .proc()
                    .connection_group(conn())
                    .is_some()
            });
            if all {
                return;
            }
        }
        panic!("connection never established on all endpoints");
    }

    #[test]
    fn second_connection_shares_the_processor_group() {
        // §7: "these mechanisms allow several logical connections to share
        // the same physical connection, the same processor group and the
        // same IP Multicast address."
        let mut net = build(29, LossModel::None);
        wait_connected(&mut net);
        let g1 = net
            .node(1)
            .unwrap()
            .proc()
            .connection_group(conn())
            .unwrap();
        // A second object-group pair between the same processor sets.
        let conn2 = ConnectionId::new(ObjectGroupId::new(1, 9), og_server());
        for id in 1..=2u32 {
            net.with_node(id, move |n, now, out| {
                n.orb_mut().register_client(conn2);
                n.proc_mut().open_connection(
                    now,
                    conn2,
                    vec![ProcessorId(1), ProcessorId(2)],
                    DOMAIN_ADDR,
                );
                n.pump(now, out);
            });
        }
        net.run_for(SimDuration::from_millis(200));
        for id in 1..=5u32 {
            let g2 = net.node(id).unwrap().proc().connection_group(conn2);
            assert_eq!(g2, Some(g1), "P{id}: conn2 shares conn1's group");
        }
        // Both connections carry traffic independently.
        net.with_node(1, |n, now, out| {
            n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(1), out);
        });
        net.with_node(1, move |n, now, out| {
            n.invoke(now, conn2, b"bank", "deposit", &encode_i64_arg(2), out);
        });
        net.run_for(SimDuration::from_millis(200));
        let done = net.node_mut(1).unwrap().take_completions();
        assert_eq!(done.len(), 2);
        let conns: std::collections::BTreeSet<ConnectionId> = done.iter().map(|c| c.conn).collect();
        assert!(conns.contains(&conn()) && conns.contains(&conn2));
    }

    #[test]
    fn end_to_end_connection_and_invocation() {
        let mut net = build(21, LossModel::None);
        wait_connected(&mut net);
        // Both client replicas issue the same invocation (active replication).
        for id in 1..=2u32 {
            net.with_node(id, |n, now, out| {
                n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(250), out);
            });
        }
        net.run_for(SimDuration::from_millis(200));
        // Every server replica applied the deposit exactly once.
        for id in 3..=5u32 {
            let node = net.node(id).unwrap();
            let servant = node.orb().servant(og_server()).unwrap();
            let snap = servant.snapshot();
            let balance = ftmp_cdr::CdrReader::new(&snap, ftmp_cdr::ByteOrder::Big)
                .read_i64()
                .unwrap();
            assert_eq!(balance, 1_250, "server P{id} balance");
        }
        // Each client replica completed exactly one invocation.
        for id in 1..=2u32 {
            let done = net.node_mut(id).unwrap().take_completions();
            assert_eq!(done.len(), 1, "client P{id} completions");
            match &done[0].result {
                InvocationResult::Ok(bytes) => {
                    assert_eq!(decode_i64_result(bytes), Some(1_250));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Duplicate suppression did real work: 2 client replicas → 1 extra
        // request copy suppressed at each server.
        for id in 3..=5u32 {
            let (req_sup, _) = net.node(id).unwrap().orb().suppression_counts();
            assert_eq!(req_sup, 1, "server P{id} suppressed the twin request");
        }
    }

    #[test]
    fn invocations_survive_packet_loss() {
        let mut net = build(22, LossModel::Iid { p: 0.15 });
        wait_connected(&mut net);
        for round in 0..5u64 {
            for id in 1..=2u32 {
                net.with_node(id, |n, now, out| {
                    n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(10), out);
                });
            }
            let _ = round;
            net.run_for(SimDuration::from_millis(50));
        }
        net.run_for(SimDuration::from_millis(500));
        for id in 3..=5u32 {
            let snap = net
                .node(id)
                .unwrap()
                .orb()
                .servant(og_server())
                .unwrap()
                .snapshot();
            let balance = ftmp_cdr::CdrReader::new(&snap, ftmp_cdr::ByteOrder::Big)
                .read_i64()
                .unwrap();
            assert_eq!(balance, 1_050, "5 rounds × 10 applied once each");
        }
        for id in 1..=2u32 {
            let done = net.node_mut(id).unwrap().take_completions();
            assert_eq!(done.len(), 5);
        }
        assert!(net.stats().lost > 0);
    }

    #[test]
    fn backpressure_defers_then_sheds_with_transient() {
        let cfg = ftmp_core::ProtocolConfig::with_seed(31)
            .flow_control(ftmp_core::FlowControl::window(4, 1));
        let mut net = build_with(31, LossModel::None, cfg);
        wait_connected(&mut net);
        // Let the Connect gate lift (§7: no ordered send until every member
        // was heard past the Connect): sends behind it queue in the engine
        // without touching the window this test is about.
        net.run_for(SimDuration::from_millis(10));
        // Flood far past the send window and the deferred queue from one
        // client in a single instant.
        const FLOOD: usize = 100;
        net.with_node(1, |n, now, out| {
            for _ in 0..FLOOD {
                n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(1), out);
            }
        });
        let node = net.node(1).unwrap();
        assert!(node.is_backpressured(), "window closed under the flood");
        assert!(node.deferred_len() > 0, "work parked rather than dropped");
        assert!(node.shed_count() > 0, "overflow shed, not queued unbounded");
        let shed = node.shed_count() as usize;
        let stats = node.proc().stats();
        assert!(stats.backpressure_closes >= 1);
        // Let acks circulate: the window reopens and parked work drains.
        net.run_for(SimDuration::from_millis(5_000));
        let node = net.node_mut(1).unwrap();
        assert_eq!(node.deferred_len(), 0, "deferred queue fully drained");
        let done = node.take_completions();
        assert_eq!(done.len(), FLOOD, "every invocation completed one way");
        assert_eq!(
            node.orb().pending_count(),
            0,
            "a shed invocation is no longer awaited"
        );
        let transients = done
            .iter()
            .filter(|c| {
                matches!(&c.result, InvocationResult::Exception(e)
                    if e == "IDL:omg.org/CORBA/TRANSIENT:1.0")
            })
            .count();
        assert_eq!(transients, shed, "shed invocations completed as TRANSIENT");
        assert!(
            done.iter()
                .any(|c| matches!(&c.result, InvocationResult::Ok(_))),
            "non-shed invocations completed normally"
        );
    }

    /// The flood that lands *behind* the Connect gate, which is where a
    /// client that invokes the moment it is connected now finds itself
    /// (connections establish before the gate lifts). The engine queues
    /// gated sends without charging the window, so nothing is refused up
    /// front; what matters is that the gate's lifting drains that queue
    /// through the window — closing it, parking the rest, resuming on every
    /// reopening — and loses none of it.
    #[test]
    fn flood_behind_the_connect_gate_drains_through_the_window() {
        let cfg = ftmp_core::ProtocolConfig::with_seed(31)
            .flow_control(ftmp_core::FlowControl::window(4, 1));
        let mut net = build_with(31, LossModel::None, cfg);
        wait_connected(&mut net);
        const FLOOD: usize = 100;
        net.with_node(1, |n, now, out| {
            for _ in 0..FLOOD {
                n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(1), out);
            }
        });
        let node = net.node(1).unwrap();
        assert!(
            !node.is_backpressured() && node.deferred_len() == 0 && node.shed_count() == 0,
            "gated sends queue in the engine, ahead of flow control"
        );
        assert_eq!(node.proc().stats().backpressure_closes, 0);
        net.run_for(SimDuration::from_millis(5_000));
        let node = net.node_mut(1).unwrap();
        let stats = node.proc().stats();
        assert!(
            stats.backpressure_closes >= 1 && stats.backpressure_opens >= 1,
            "the drain ran into the window and was resumed by its reopening"
        );
        assert!(!node.is_backpressured(), "window open again once drained");
        let done = node.take_completions();
        assert_eq!(done.len(), FLOOD, "nothing queued behind the gate is lost");
        assert!(
            done.iter()
                .all(|c| matches!(&c.result, InvocationResult::Ok(_))),
            "accepted sends are never shed"
        );
        for id in 3..=5u32 {
            let snap = net
                .node(id)
                .unwrap()
                .orb()
                .servant(og_server())
                .unwrap()
                .snapshot();
            let balance = ftmp_cdr::CdrReader::new(&snap, ftmp_cdr::ByteOrder::Big)
                .read_i64()
                .unwrap();
            assert_eq!(
                balance,
                1_000 + FLOOD as i64,
                "server P{id} applied each once"
            );
        }
    }

    #[test]
    fn request_latency_telemetry_records_per_connection() {
        let mut net = build(27, LossModel::None);
        wait_connected(&mut net);
        net.with_node(1, |n, _, _| n.enable_latency_telemetry());
        for _ in 0..3 {
            net.with_node(1, |n, now, out| {
                n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(5), out);
            });
            net.run_for(SimDuration::from_millis(100));
        }
        let node = net.node_mut(1).unwrap();
        assert_eq!(node.take_completions().len(), 3);
        let snap = node.request_latency(conn()).expect("histogram recorded");
        assert_eq!(snap.count, 3, "one sample per completed invocation");
        assert!(snap.p50 > 0, "invocations take non-zero virtual time");
        assert!(snap.max >= snap.p50);
        let all: Vec<_> = node.request_latencies().collect();
        assert_eq!(all.len(), 1, "exactly the one active connection");
        // Telemetry stays off (and free) elsewhere.
        assert!(net.node(2).unwrap().request_latency(conn()).is_none());
    }

    /// Every way out of an invocation that gets no reply stops its clock.
    #[test]
    fn no_start_time_survives_a_shed_a_cancel_or_a_close() {
        let clocks = |net: &SimNet<OrbNode>| {
            let orb = net.node(1).unwrap().orb();
            let running = orb.conns[&conn()].clocks_running();
            (running, orb.pending_count())
        };
        let cfg = ftmp_core::ProtocolConfig::with_seed(33)
            .flow_control(ftmp_core::FlowControl::window(4, 1));
        let mut net = build_with(33, LossModel::None, cfg);
        wait_connected(&mut net);
        net.run_for(SimDuration::from_millis(10));
        net.with_node(1, |n, now, out| {
            n.enable_latency_telemetry();
            for _ in 0..100 {
                n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(1), out);
            }
        });
        assert!(net.node(1).unwrap().shed_count() > 0, "the flood was shed");
        net.run_for(SimDuration::from_millis(5_000));
        assert_eq!(net.node_mut(1).unwrap().take_completions().len(), 100);
        assert_eq!(clocks(&net), (0, 0), "shed or answered, none is clocked");
        // No server hosts this key, so these two are never answered.
        let mut nums = Vec::new();
        net.with_node(1, |n, now, out| {
            for _ in 0..2 {
                nums.push(n.invoke(now, conn(), b"nobody", "deposit", &[], out));
            }
        });
        assert_eq!(clocks(&net), (2, 2));
        net.with_node(1, |n, now, out| {
            n.orb_mut().cancel(conn(), nums[0]);
            n.pump(now, out);
        });
        assert_eq!(clocks(&net), (1, 1), "a cancel stops the clock");
        net.with_node(2, |n, now, out| {
            n.orb_mut().close(conn());
            n.pump(now, out);
        });
        net.run_for(SimDuration::from_millis(500));
        assert!(net.node(1).unwrap().orb().is_closed(conn()));
        assert_eq!(clocks(&net), (0, 0), "an ordered close stops the rest");
    }

    #[test]
    fn server_replica_crash_preserves_service() {
        let mut net = build(23, LossModel::None);
        wait_connected(&mut net);
        net.with_node(1, |n, now, out| {
            n.invoke(now, conn(), b"bank", "deposit", &encode_i64_arg(100), out);
        });
        net.run_for(SimDuration::from_millis(100));
        // Crash one server replica; survivors reconfigure and keep serving.
        net.crash(5);
        net.run_for(SimDuration::from_millis(800));
        net.with_node(1, |n, now, out| {
            n.invoke(now, conn(), b"bank", "withdraw", &encode_i64_arg(50), out);
        });
        net.run_for(SimDuration::from_millis(400));
        let done = net.node_mut(1).unwrap().take_completions();
        assert_eq!(
            done.len(),
            2,
            "both invocations completed despite the crash"
        );
        for id in 3..=4u32 {
            let snap = net
                .node(id)
                .unwrap()
                .orb()
                .servant(og_server())
                .unwrap()
                .snapshot();
            let balance = ftmp_cdr::CdrReader::new(&snap, ftmp_cdr::ByteOrder::Big)
                .read_i64()
                .unwrap();
            assert_eq!(balance, 1_050);
        }
        // The fault was reported upward.
        let events = net.node_mut(3).unwrap().take_events();
        assert!(events.iter().any(|e| matches!(
            e,
            ftmp_core::ProtocolEvent::FaultReport { processor, .. }
            if *processor == ProcessorId(5)
        )));
    }
}
