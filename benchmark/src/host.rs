//! `TimedNode`: the benchmark's own simulator host for a `Processor`,
//! optionally with an `OrbEndpoint` above it and a durable log beside it.
//!
//! It does what `SimProcessor` and `OrbNode` do — forward packets and ticks
//! to the engine, apply its actions, feed deliveries up — but from outside
//! the engine crates, so that every call across a layer boundary can be
//! timed (traced pass) and every ordered delivery can be checked and its
//! latency taken (both passes) without touching engine code.

use crate::measure::{fold_delivery, LatencyHist};
use crate::trace::{Kind, MsgId, TraceSink};
use bytes::Bytes;
use ftmp_core::durable::DeliveryLog;
use ftmp_core::wire::{self, FtmpHeader, FtmpMsgType};
use ftmp_core::{
    Action, ConnectionId, Delivery, GroupId, Processor, ProcessorId, ProtocolEvent, RequestNum,
    SendOutcome, Timestamp,
};
use ftmp_net::{Outbox, Packet, SimNode, SimTime};
use ftmp_orb::{InvocationResult, OrbEndpoint, OutboundMsg};
use ftmp_store::DurableLog;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// State the hosts of one world share with the load generator.
pub struct Probe {
    pub sink: Arc<TraceSink>,
    /// Virtual send time in µs by `[source][seq]`; 0 = not sampled.
    send_times: RefCell<Vec<Vec<u64>>>,
    /// While set, sends are stamped (the measured window is open).
    pub stamping: Cell<bool>,
    /// Invocations completed at the first client (closed-loop progress).
    pub completed: Cell<u64>,
}

impl Probe {
    pub fn new(tracing: bool) -> Rc<Probe> {
        Rc::new(Probe {
            sink: Arc::new(TraceSink::new(tracing)),
            send_times: RefCell::new(Vec::new()),
            stamping: Cell::new(false),
            completed: Cell::new(0),
        })
    }

    fn stamp(&self, id: MsgId, now: SimTime) {
        if !self.stamping.get() {
            return;
        }
        let mut rows = self.send_times.borrow_mut();
        let (src, seq) = (id.0 as usize, id.1 as usize);
        if rows.len() <= src {
            rows.resize_with(src + 1, Vec::new);
        }
        let row = &mut rows[src];
        if row.len() <= seq {
            row.resize(seq + 1024, 0);
        }
        // Virtual time 0 would read as "not sampled"; nothing is sent then.
        row[seq] = now.as_micros();
    }

    fn sent_at(&self, id: MsgId) -> Option<u64> {
        let rows = self.send_times.borrow();
        let t = *rows.get(id.0 as usize)?.get(id.1 as usize)?;
        (t != 0).then_some(t)
    }
}

/// What a host saw; read by the workload when the run ends.
#[derive(Default)]
pub struct Tally {
    pub delivered: u64,
    /// [`fold_delivery`] over every delivery, in order.
    pub order_hash: u64,
    /// send → ordered delivery here, virtual µs, window messages only.
    pub order_lat: LatencyHist,
    pub events: Vec<(SimTime, ProtocolEvent)>,
    /// Virtual time of the first delivery at or after `watch_from`.
    pub first_delivery: Option<SimTime>,
    /// When the watched message (see [`TimedNode::watch`]) was delivered.
    pub watch_delivered: Option<SimTime>,
}

/// The closed-loop client half of an ORB host: invokes `add(1)` again each
/// time an invocation completes, until `remaining` runs out.
pub struct ClientLoop {
    pub conn: ConnectionId,
    pub object_key: Vec<u8>,
    pub remaining: u64,
    /// Request numbers above this are measured (the rest are warm-up).
    pub measure_above: u64,
    /// This client reports progress to [`Probe::completed`].
    pub reports: bool,
    pub completed: u64,
    pub failed: u64,
    started_us: Vec<u64>,
    pub invoke_lat: LatencyHist,
    /// The same latencies, virtual µs, of the slice being measured; kept by
    /// the reporting client and taken at each slice boundary.
    pub slice_lat: Vec<u32>,
}

impl ClientLoop {
    pub fn new(conn: ConnectionId, object_key: &[u8], reports: bool) -> ClientLoop {
        ClientLoop {
            conn,
            object_key: object_key.to_vec(),
            remaining: 0,
            measure_above: 0,
            reports,
            completed: 0,
            failed: 0,
            started_us: Vec::new(),
            invoke_lat: LatencyHist::default(),
            slice_lat: Vec::new(),
        }
    }
}

struct OrbSide {
    orb: OrbEndpoint,
    outbound: Vec<OutboundMsg>,
    client: Option<ClientLoop>,
}

/// One simulated processor.
pub struct TimedNode {
    id: u32,
    proc: Processor,
    orb: Option<OrbSide>,
    probe: Rc<Probe>,
    actions: Vec<Action>,
    watch: Option<MsgId>,
    watch_from: Option<SimTime>,
    last_sent: Option<MsgId>,
    pub tally: Tally,
}

impl TimedNode {
    pub fn new(proc: Processor, probe: Rc<Probe>) -> TimedNode {
        TimedNode {
            id: proc.id().0,
            proc,
            orb: None,
            probe,
            actions: Vec::new(),
            watch: None,
            watch_from: None,
            last_sent: None,
            tally: Tally::default(),
        }
    }

    pub fn with_orb(mut self, orb: OrbEndpoint, client: Option<ClientLoop>) -> TimedNode {
        self.orb = Some(OrbSide {
            orb,
            outbound: Vec::new(),
            client,
        });
        self
    }

    pub fn proc(&self) -> &Processor {
        &self.proc
    }

    pub fn proc_mut(&mut self) -> &mut Processor {
        &mut self.proc
    }

    pub fn orb(&self) -> Option<&OrbEndpoint> {
        self.orb.as_ref().map(|o| &o.orb)
    }

    pub fn client(&self) -> Option<&ClientLoop> {
        self.orb.as_ref().and_then(|o| o.client.as_ref())
    }

    pub fn client_mut(&mut self) -> Option<&mut ClientLoop> {
        self.orb.as_mut().and_then(|o| o.client.as_mut())
    }

    /// Note when `msg` is delivered here.
    pub fn watch(&mut self, msg: MsgId) {
        self.watch = Some(msg);
        self.tally.watch_delivered = None;
    }

    /// Note the first delivery made at or after `from`.
    pub fn watch_first_delivery(&mut self, from: SimTime) {
        self.watch_from = Some(from);
        self.tally.first_delivery = None;
    }

    /// Load-generator entry: multicast one message and transmit the result.
    /// Returns the id it was sent under, if it went out now.
    pub fn call_send(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        req: RequestNum,
        body: Bytes,
        out: &mut Outbox,
    ) -> Option<MsgId> {
        let turn = self.probe.sink.begin(Kind::NodeCall, self.id, now);
        let id = self.send(now, conn, req, body);
        self.pump(now, out);
        self.probe.sink.end(turn, id);
        id
    }

    /// Load-generator entry: start `n` invocations on this client.
    pub fn call_invoke(&mut self, now: SimTime, n: u64, out: &mut Outbox) {
        let turn = self.probe.sink.begin(Kind::NodeCall, self.id, now);
        for _ in 0..n {
            self.invoke_next(now);
        }
        self.pump(now, out);
        self.probe.sink.end(turn, None);
    }

    fn send(
        &mut self,
        now: SimTime,
        conn: ConnectionId,
        req: RequestNum,
        body: Bytes,
    ) -> Option<MsgId> {
        let tok = self.probe.sink.begin(Kind::Send, self.id, now);
        let id = match self.proc.multicast_request(now, conn, req, body) {
            Ok(SendOutcome::Sent { seq, .. }) => {
                let id = (self.id, seq.0);
                self.probe.stamp(id, now);
                Some(id)
            }
            // Parked behind a reconfiguration (sent when it lifts), or
            // refused: the delivery count shows which.
            Ok(SendOutcome::Queued) | Err(_) => None,
        };
        self.probe.sink.end(tok, id);
        if id.is_some() {
            self.last_sent = id;
        }
        id
    }

    /// One closed-loop invocation: marshal the request and multicast it.
    fn invoke_next(&mut self, now: SimTime) {
        let tok = {
            let Some(side) = self.orb.as_mut() else {
                return;
            };
            let Some(client) = side.client.as_mut() else {
                return;
            };
            if client.remaining == 0 {
                return;
            }
            client.remaining -= 1;
            let tok = self.probe.sink.begin(Kind::OrbInvoke, self.id, now);
            let num = side.orb.invoke(
                client.conn,
                &client.object_key,
                "add",
                &ftmp_orb::servant::encode_i64_arg(1),
            );
            let slot = num.0 as usize;
            if client.started_us.len() <= slot {
                client.started_us.resize(slot + 1024, 0);
            }
            client.started_us[slot] = now.as_micros();
            tok
        };
        self.flush_outbound(now);
        self.probe.sink.end(tok, self.last_sent);
    }

    /// ORB → FTMP: multicast what the endpoint queued, as one batch.
    fn flush_outbound(&mut self, now: SimTime) -> bool {
        let Some(side) = self.orb.as_mut() else {
            return false;
        };
        let mut outbound = std::mem::take(&mut side.outbound);
        side.orb.drain_outbound_into(&mut outbound);
        let any = !outbound.is_empty();
        if any {
            self.proc.begin_batch();
            for ob in outbound.drain(..) {
                self.send(now, ob.conn, ob.request_num, ob.giop);
            }
            self.proc.end_batch(now);
        }
        if let Some(side) = self.orb.as_mut() {
            side.outbound = outbound;
        }
        any
    }

    /// Completed invocations: record, then keep the loop closed.
    fn settle_completions(&mut self, now: SimTime) {
        let Some(side) = self.orb.as_mut() else {
            return;
        };
        let done = side.orb.drain_completions();
        if done.is_empty() {
            return;
        }
        let Some(client) = side.client.as_mut() else {
            return;
        };
        for c in &done {
            client.completed += 1;
            if !matches!(c.result, InvocationResult::Ok(_)) {
                client.failed += 1;
            }
            let num = c.request_num.0;
            if num > client.measure_above {
                if let Some(&t0) = client.started_us.get(num as usize) {
                    let us = now.as_micros().saturating_sub(t0);
                    client.invoke_lat.record(us);
                    if client.reports {
                        client.slice_lat.push(u32::try_from(us).unwrap_or(u32::MAX));
                    }
                }
            }
        }
        if client.reports {
            self.probe.completed.set(client.completed);
        }
        for _ in 0..done.len() {
            self.invoke_next(now);
        }
    }

    /// Move data between the layers and the network until quiescent: the
    /// loop `OrbNode::pump` runs, or its single pass for a bare processor.
    pub fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        loop {
            self.settle_completions(now);
            let had_outbound = self.flush_outbound(now);
            let tok = self.probe.sink.begin(Kind::Drain, self.id, now);
            let mut actions = std::mem::take(&mut self.actions);
            self.proc.drain_actions_into(&mut actions);
            let idle = actions.is_empty() && !had_outbound;
            for action in actions.drain(..) {
                match action {
                    Action::Send { addr, payload } => {
                        out.send(Packet::new(self.id, addr, payload));
                    }
                    Action::Join(addr) => out.join(addr),
                    Action::Leave(addr) => out.leave(addr),
                    Action::Deliver(d) => self.deliver(now, &d),
                    Action::Event(e) => {
                        if let (Some(side), ProtocolEvent::MembershipChange { members, .. }) =
                            (self.orb.as_mut(), &e)
                        {
                            side.orb.note_membership_all(members);
                        }
                        self.tally.events.push((now, e));
                    }
                    // Flow control is off in every workload's config.
                    Action::Backpressure(_) | Action::SendReady(_) => {}
                }
            }
            self.actions = actions;
            self.probe.sink.end(tok, None);
            if idle || self.orb.is_none() {
                break;
            }
        }
    }

    fn deliver(&mut self, now: SimTime, d: &Delivery) {
        let id = (d.source.0, d.seq.0);
        let t = &mut self.tally;
        t.delivered += 1;
        t.order_hash = fold_delivery(t.order_hash, d);
        if let Some(sent) = self.probe.sent_at(id) {
            t.order_lat.record(now.as_micros().saturating_sub(sent));
        }
        if self.watch == Some(id) && t.watch_delivered.is_none() {
            t.watch_delivered = Some(now);
        }
        if t.first_delivery.is_none() && self.watch_from.is_some_and(|from| now >= from) {
            t.first_delivery = Some(now);
        }
        self.probe.sink.instant(Kind::Deliver, self.id, now, id);
        if let Some(side) = self.orb.as_mut() {
            let tok = self.probe.sink.begin(Kind::OrbOnDelivery, self.id, now);
            side.orb.on_delivery(d);
            self.probe.sink.end(tok, Some(id));
        }
    }
}

/// The first sampled Regular message a datagram carries, else its first
/// message: the id its `handle_packet` span is filed under. Traced pass only.
fn datagram_msg(payload: &Bytes) -> Option<MsgId> {
    let id_of = |bytes: &[u8]| {
        FtmpHeader::decode(bytes)
            .ok()
            .filter(|(h, _)| h.msg_type == FtmpMsgType::Regular)
            .map(|(h, _)| (h.source.0, h.seq.0))
    };
    if !wire::is_packed(payload) {
        return id_of(payload);
    }
    let (slices, _) = wire::unpack(payload).ok()?;
    let mut ids = slices.iter().filter_map(|s| id_of(s));
    let first = ids.next()?;
    Some(
        std::iter::once(first)
            .chain(ids)
            .find(|&id| crate::trace::sampled(id))
            .unwrap_or(first),
    )
}

impl SimNode for TimedNode {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        let probe = Rc::clone(&self.probe);
        let sink = &probe.sink;
        let msg = sink.on().then(|| datagram_msg(&pkt.payload)).flatten();
        let turn = sink.begin(Kind::NodeOnPacket, self.id, now);
        let tok = sink.begin(Kind::HandlePacket, self.id, now);
        self.proc.handle_packet(now, pkt);
        sink.end(tok, msg);
        self.pump(now, out);
        sink.end(turn, None);
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        let probe = Rc::clone(&self.probe);
        let sink = &probe.sink;
        let turn = sink.begin(Kind::NodeOnTick, self.id, now);
        let tok = sink.begin(Kind::Tick, self.id, now);
        self.proc.tick(now);
        sink.end(tok, None);
        self.pump(now, out);
        sink.end(turn, None);
    }
}

/// A `DurableLog` the workload keeps a handle on after handing the engine
/// its `DeliveryLog`: appends are timed (traced pass), and the workload can
/// still `sync` it and read its counters when the run ends.
pub struct LogHandle {
    pub log: Mutex<DurableLog>,
    pub appends: AtomicU64,
}

pub struct TimedLog {
    handle: Arc<LogHandle>,
    sink: Arc<TraceSink>,
    node: u32,
}

impl TimedLog {
    pub fn open(
        dir: &std::path::Path,
        node: u32,
        sink: Arc<TraceSink>,
    ) -> std::io::Result<(TimedLog, Arc<LogHandle>)> {
        let log = DurableLog::open(dir, ftmp_store::LogConfig::default())?;
        let handle = Arc::new(LogHandle {
            log: Mutex::new(log),
            appends: AtomicU64::new(0),
        });
        Ok((
            TimedLog {
                handle: Arc::clone(&handle),
                sink,
                node,
            },
            handle,
        ))
    }

    fn timed(&mut self, msg: Option<MsgId>, f: impl FnOnce(&mut DurableLog)) {
        // The engine passes no clock to its log; the span carries none.
        let tok = self.sink.begin(Kind::StoreAppend, self.node, SimTime::ZERO);
        f(&mut self.handle.log.lock().expect("no holder of the log panics"));
        self.sink.end(tok, msg);
        self.handle.appends.fetch_add(1, Ordering::Relaxed);
    }
}

impl DeliveryLog for TimedLog {
    fn on_delivery(&mut self, d: &Delivery) {
        self.timed(Some((d.source.0, d.seq.0)), |log| log.on_delivery(d));
    }

    fn on_view_change(&mut self, group: GroupId, members: &[ProcessorId], ts: Timestamp) {
        self.timed(None, |log| log.on_view_change(group, members, ts));
    }
}
