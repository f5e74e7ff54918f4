//! TCP-like reliable unicast request/response — the unreplicated IIOP
//! baseline for experiment E8.
//!
//! CORBA's IIOP runs over TCP: reliable, source-ordered, point-to-point.
//! This module models that channel with cumulative acks and
//! timeout-retransmission over the lossy simulator, so the E8 comparison
//! (replicated FTMP invocation vs plain IIOP invocation) prices both sides'
//! loss recovery fairly.

use bytes::{BufMut, Bytes, BytesMut};
use ftmp_net::{McastAddr, NodeId, Outbox, Packet, SimDuration, SimNode, SimTime};
use std::collections::BTreeMap;

const TAG_SEG: u8 = 20;
const TAG_ACK: u8 = 21;

fn encode_seg(src: NodeId, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(13 + payload.len());
    buf.put_u8(TAG_SEG);
    buf.put_u32(src);
    buf.put_u64(seq);
    buf.put_slice(payload);
    buf.freeze()
}

fn encode_ack(src: NodeId, cumulative: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(13);
    buf.put_u8(TAG_ACK);
    buf.put_u32(src);
    buf.put_u64(cumulative);
    buf.freeze()
}

/// One direction of a reliable byte... message stream: send window with
/// cumulative acks and timeout retransmission, in-order receive.
#[derive(Debug)]
struct ReliableChannel {
    peer_addr: McastAddr,
    next_send: u64,
    unacked: BTreeMap<u64, (Bytes, SimTime)>,
    rto: SimDuration,
    next_expected: u64,
    reorder: BTreeMap<u64, Bytes>,
}

impl ReliableChannel {
    fn new(peer_addr: McastAddr, rto: SimDuration) -> Self {
        ReliableChannel {
            peer_addr,
            next_send: 1,
            unacked: BTreeMap::new(),
            rto,
            next_expected: 1,
            reorder: BTreeMap::new(),
        }
    }

    fn send(&mut self, me: NodeId, now: SimTime, payload: Bytes, out: &mut Outbox) -> u64 {
        let seq = self.next_send;
        self.next_send += 1;
        out.send(Packet::new(
            me,
            self.peer_addr,
            encode_seg(me, seq, &payload),
        ));
        self.unacked.insert(seq, (payload, now));
        seq
    }

    fn on_ack(&mut self, cumulative: u64) {
        self.unacked.retain(|seq, _| *seq > cumulative);
    }

    /// Returns in-order payloads released by this segment.
    fn on_segment(&mut self, seq: u64, payload: Bytes) -> Vec<Bytes> {
        if seq >= self.next_expected {
            self.reorder.entry(seq).or_insert(payload);
        }
        let mut out = Vec::new();
        while let Some(p) = self.reorder.remove(&self.next_expected) {
            out.push(p);
            self.next_expected += 1;
        }
        out
    }

    fn cumulative(&self) -> u64 {
        self.next_expected - 1
    }

    fn retransmit_due(&mut self, me: NodeId, now: SimTime, out: &mut Outbox) {
        for (seq, (payload, sent)) in self.unacked.iter_mut() {
            if now.saturating_since(*sent) >= self.rto {
                *sent = now;
                out.send(Packet::new(
                    me,
                    self.peer_addr,
                    encode_seg(me, *seq, payload),
                ));
            }
        }
    }
}

/// The unreplicated IIOP client: sends requests, matches responses by
/// request sequence number.
pub struct UnicastClient {
    id: NodeId,
    my_addr: McastAddr,
    chan: ReliableChannel,
    completed: Vec<(u64, Bytes)>,
}

impl UnicastClient {
    /// A client at `my_addr` talking to the server at `server_addr`.
    pub fn new(id: NodeId, my_addr: McastAddr, server_addr: McastAddr) -> Self {
        UnicastClient {
            id,
            my_addr,
            chan: ReliableChannel::new(server_addr, SimDuration::from_millis(5)),
            completed: Vec::new(),
        }
    }

    /// The client's own address (subscribe it in the simulator).
    pub fn my_addr(&self) -> McastAddr {
        self.my_addr
    }

    /// Send a request; returns its sequence number.
    pub fn request(&mut self, now: SimTime, payload: Bytes, out: &mut Outbox) -> u64 {
        self.chan.send(self.id, now, payload, out)
    }

    /// Drain completed (request seq, response payload) pairs.
    pub fn take_completed(&mut self) -> Vec<(u64, Bytes)> {
        std::mem::take(&mut self.completed)
    }
}

impl SimNode for UnicastClient {
    fn on_packet(&mut self, _now: SimTime, pkt: &Packet, out: &mut Outbox) {
        let b = &pkt.payload;
        if b.len() < 13 {
            return;
        }
        let tag = b[0];
        let seq = u64::from_be_bytes(b[5..13].try_into().expect("checked"));
        match tag {
            TAG_ACK => self.chan.on_ack(seq),
            TAG_SEG => {
                // Server responses arrive on our channel: seq here is the
                // server's response counter, aligned 1:1 with requests.
                for payload in self.chan.on_segment(seq, Bytes::copy_from_slice(&b[13..])) {
                    let n = self.completed.len() as u64 + 1;
                    self.completed.push((n, payload));
                }
                out.send(Packet::new(
                    self.id,
                    self.chan.peer_addr,
                    encode_ack(self.id, self.chan.cumulative()),
                ));
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.chan.retransmit_due(self.id, now, out);
    }
}

/// The unreplicated IIOP server: echoes each request through a handler.
pub struct UnicastServer {
    id: NodeId,
    my_addr: McastAddr,
    chan: ReliableChannel,
    handler: fn(&[u8]) -> Vec<u8>,
    served: u64,
}

impl UnicastServer {
    /// A server at `my_addr` answering the client at `client_addr`.
    pub fn new(
        id: NodeId,
        my_addr: McastAddr,
        client_addr: McastAddr,
        handler: fn(&[u8]) -> Vec<u8>,
    ) -> Self {
        UnicastServer {
            id,
            my_addr,
            chan: ReliableChannel::new(client_addr, SimDuration::from_millis(5)),
            handler,
            served: 0,
        }
    }

    /// The server's own address.
    pub fn my_addr(&self) -> McastAddr {
        self.my_addr
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl SimNode for UnicastServer {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        let b = &pkt.payload;
        if b.len() < 13 {
            return;
        }
        let tag = b[0];
        let seq = u64::from_be_bytes(b[5..13].try_into().expect("checked"));
        match tag {
            TAG_ACK => self.chan.on_ack(seq),
            TAG_SEG => {
                let released = self.chan.on_segment(seq, Bytes::copy_from_slice(&b[13..]));
                // Ack received data on the reverse path.
                out.send(Packet::new(
                    self.id,
                    self.chan.peer_addr,
                    encode_ack(self.id, self.chan.cumulative()),
                ));
                for req in released {
                    self.served += 1;
                    let resp = (self.handler)(&req);
                    self.chan.send(self.id, now, Bytes::from(resp), out);
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.chan.retransmit_due(self.id, now, out);
    }
}

/// A client/server pair wrapped as one heterogeneous enum so both fit one
/// simulator instance.
pub enum UnicastEndpoint {
    /// The client role.
    Client(UnicastClient),
    /// The server role.
    Server(UnicastServer),
}

impl SimNode for UnicastEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        match self {
            UnicastEndpoint::Client(c) => c.on_packet(now, pkt, out),
            UnicastEndpoint::Server(s) => s.on_packet(now, pkt, out),
        }
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        match self {
            UnicastEndpoint::Client(c) => c.on_tick(now, out),
            UnicastEndpoint::Server(s) => s.on_tick(now, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_net::{LossModel, SimConfig, SimNet};

    fn echo(req: &[u8]) -> Vec<u8> {
        let mut v = req.to_vec();
        v.push(0xEE);
        v
    }

    fn build(seed: u64, loss: LossModel) -> SimNet<UnicastEndpoint> {
        let (ca, sa) = (McastAddr(10), McastAddr(11));
        let mut net = SimNet::new(SimConfig::with_seed(seed).loss(loss));
        net.add_node(1, UnicastEndpoint::Client(UnicastClient::new(1, ca, sa)));
        net.add_node(
            2,
            UnicastEndpoint::Server(UnicastServer::new(2, sa, ca, echo)),
        );
        net.subscribe(1, ca);
        net.subscribe(2, sa);
        net
    }

    fn client(net: &mut SimNet<UnicastEndpoint>) -> &mut UnicastClient {
        match net.node_mut(1).unwrap() {
            UnicastEndpoint::Client(c) => c,
            _ => unreachable!(),
        }
    }

    #[test]
    fn request_response_round_trip() {
        let mut net = build(1, LossModel::None);
        net.with_node(1, |n, now, out| {
            if let UnicastEndpoint::Client(c) = n {
                c.request(now, Bytes::from_static(b"hi"), out);
            }
        });
        net.run_for(SimDuration::from_millis(20));
        let done = client(&mut net).take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.as_ref(), b"hi\xEE");
    }

    #[test]
    fn ordered_responses_over_many_requests() {
        let mut net = build(2, LossModel::None);
        for i in 0..10u8 {
            net.with_node(1, |n, now, out| {
                if let UnicastEndpoint::Client(c) = n {
                    c.request(now, Bytes::from(vec![i]), out);
                }
            });
            net.run_for(SimDuration::from_millis(2));
        }
        net.run_for(SimDuration::from_millis(50));
        let done = client(&mut net).take_completed();
        assert_eq!(done.len(), 10);
        for (i, (_, resp)) in done.iter().enumerate() {
            assert_eq!(resp.as_ref(), &[i as u8, 0xEE]);
        }
    }

    #[test]
    fn survives_heavy_loss_via_retransmission() {
        let mut net = build(3, LossModel::Iid { p: 0.3 });
        for i in 0..10u8 {
            net.with_node(1, |n, now, out| {
                if let UnicastEndpoint::Client(c) = n {
                    c.request(now, Bytes::from(vec![i]), out);
                }
            });
            net.run_for(SimDuration::from_millis(5));
        }
        net.run_for(SimDuration::from_millis(500));
        let done = client(&mut net).take_completed();
        assert_eq!(done.len(), 10, "all requests eventually answered");
        assert!(net.stats().lost > 0);
    }
}
