//! The one engine turn every host runs (DESIGN.md §11).
//!
//! A host's whole job is to move datagrams into a [`Processor`] and its
//! [`Action`]s out. [`Driver::turn`] is the one place that says in what
//! order that happens:
//!
//! 1. open the batch window, so everything the turn sends is coalesced
//!    against one Packer budget (DESIGN.md §5);
//! 2. **feed**: the host hands the engine what arrived — datagrams,
//!    application sends, membership commands;
//! 3. tick, if the host says the tick is due;
//! 4. close the window, flushing every due Packer queue;
//! 5. take the turn's actions — the delivery log's turn boundary
//!    (DESIGN.md §12): the log has handed on every delivery before the
//!    host sees the first of them;
//! 6. dispatch them to the [`Host`] in the order the protocol produced
//!    them, so a subscription change takes effect between the sends around
//!    it, and tell it they are all out ([`Host::flush`]);
//! 7. hand on the observations the turn recorded, if the engine records
//!    them.
//!
//! The three hosts — the simulator's [`SimProcessor`], the ORB's `OrbNode`
//! and the socket runtime's `Node` — each hold a `Driver` and supply a
//! [`Host`] of a couple of dozen lines; none of them drains or batches the
//! engine itself.
//!
//! [`SimProcessor`]: crate::sim_adapter::SimProcessor

use crate::actions::{Action, Delivery, ProtocolEvent};
use crate::ids::GroupId;
use crate::observe::Observation;
use crate::processor::Processor;
use bytes::Bytes;
use ftmp_net::{McastAddr, SimTime};

/// Where a turn's actions go: the network below and the application above.
/// `N` is the handle on the network a host is lent for the length of one
/// call — the simulator's `Outbox`, the runtime's transport — which the
/// turn passes on to the three methods that need it.
pub trait Host<N: ?Sized> {
    /// Transmit a datagram.
    fn send(&mut self, net: &mut N, addr: McastAddr, payload: Bytes);
    /// Subscribe to a multicast address.
    fn join(&mut self, net: &mut N, addr: McastAddr);
    /// Unsubscribe from a multicast address.
    fn leave(&mut self, net: &mut N, addr: McastAddr);
    /// An ordered delivery, stamped with the turn's time.
    fn deliver(&mut self, now: SimTime, delivery: Delivery);
    /// A protocol event, stamped with the turn's time.
    fn event(&mut self, now: SimTime, event: ProtocolEvent);
    /// Every action of the turn has been dispatched: a host that gathers
    /// its sends lets them go now, before the turn's observations, which
    /// can be slow to record, are handed on.
    fn flush(&mut self, _net: &mut N) {}
    /// A flow-control window edge of `group`: `closed` on
    /// [`Action::Backpressure`], reopened on [`Action::SendReady`]. Hosts
    /// that never fill the window ignore it.
    fn window(&mut self, _group: GroupId, _closed: bool) {}
    /// One recorded observation; none unless the engine records them
    /// ([`Processor::enable_observations`]).
    fn observe(&mut self, _now: SimTime, _obs: Observation) {}
}

/// A [`Processor`] plus the scratch a turn drains it through; both vectors
/// keep their capacity, so a steady-state turn allocates nothing.
pub struct Driver {
    /// The engine. Calls made on it between turns queue what they produce;
    /// it leaves with the next turn.
    pub engine: Processor,
    actions: Vec<Action>,
    observations: Vec<Observation>,
}

impl Driver {
    /// Wrap an engine.
    pub fn new(engine: Processor) -> Self {
        Driver {
            engine,
            actions: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Run one turn at `now` (the module docs give the order). `feed` gets
    /// the host as well as the engine, because what a host submits can
    /// depend on state its dispatch half maintains (the ORB's window flag).
    /// Returns whether any action was dispatched: a host that pumps until
    /// quiescent stops on `false`.
    pub fn turn<N: ?Sized, H: Host<N>>(
        &mut self,
        now: SimTime,
        tick_due: bool,
        host: &mut H,
        net: &mut N,
        feed: impl FnOnce(&mut Processor, &mut H),
    ) -> bool {
        self.engine.begin_batch();
        feed(&mut self.engine, host);
        if tick_due {
            self.engine.tick(now);
        }
        self.engine.end_batch(now);
        self.engine.drain_actions_into(&mut self.actions);
        let acted = !self.actions.is_empty();
        for action in self.actions.drain(..) {
            match action {
                Action::Send { addr, payload } => host.send(net, addr, payload),
                Action::Join(addr) => host.join(net, addr),
                Action::Leave(addr) => host.leave(net, addr),
                Action::Deliver(d) => host.deliver(now, d),
                Action::Event(e) => host.event(now, e),
                Action::Backpressure(g) => host.window(g, true),
                Action::SendReady(g) => host.window(g, false),
            }
        }
        host.flush(net);
        self.engine.drain_observations_into(&mut self.observations);
        for obs in self.observations.drain(..) {
            host.observe(now, obs);
        }
        acted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::config::ProtocolConfig;
    use crate::durable::DeliveryLog;
    use crate::ids::{ConnectionId, ObjectGroupId, ProcessorId, RequestNum, Timestamp};
    use ftmp_net::Packet;
    use std::sync::{Arc, Mutex};

    const GROUP: GroupId = GroupId(1);
    const ADDR: McastAddr = McastAddr(100);

    fn conn() -> ConnectionId {
        ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
    }

    fn engine(id: u32) -> Processor {
        let mut p = Processor::new(
            ProcessorId(id),
            ProtocolConfig::with_seed(5),
            ClockMode::Lamport,
        );
        p.create_group(SimTime::ZERO, GROUP, ADDR, [ProcessorId(1), ProcessorId(2)]);
        p.bind_connection(conn(), GROUP);
        p
    }

    /// Everything a turn can hand a host or a log, in one comparable type.
    #[derive(Debug, Clone, PartialEq)]
    enum Rec {
        Send(McastAddr, Bytes),
        Join(McastAddr),
        Leave(McastAddr),
        Deliver(Delivery),
        Event(ProtocolEvent),
        Window(GroupId, bool),
        AllOut,
        Observed,
        Logged,
        Flushed,
    }

    impl From<Action> for Rec {
        fn from(a: Action) -> Rec {
            match a {
                Action::Send { addr, payload } => Rec::Send(addr, payload),
                Action::Join(a) => Rec::Join(a),
                Action::Leave(a) => Rec::Leave(a),
                Action::Deliver(d) => Rec::Deliver(d),
                Action::Event(e) => Rec::Event(e),
                Action::Backpressure(g) => Rec::Window(g, true),
                Action::SendReady(g) => Rec::Window(g, false),
            }
        }
    }

    type Tape = Arc<Mutex<Vec<Rec>>>;

    /// A host and a delivery log writing to one tape, so their calls
    /// interleave in the order they were made.
    struct Recorder(Tape);

    impl Recorder {
        fn push(&self, r: Rec) {
            self.0.lock().unwrap().push(r);
        }
    }

    impl Host<()> for Recorder {
        fn send(&mut self, _: &mut (), addr: McastAddr, payload: Bytes) {
            self.push(Rec::Send(addr, payload));
        }
        fn join(&mut self, _: &mut (), addr: McastAddr) {
            self.push(Rec::Join(addr));
        }
        fn leave(&mut self, _: &mut (), addr: McastAddr) {
            self.push(Rec::Leave(addr));
        }
        fn deliver(&mut self, _now: SimTime, d: Delivery) {
            self.push(Rec::Deliver(d));
        }
        fn event(&mut self, _now: SimTime, e: ProtocolEvent) {
            self.push(Rec::Event(e));
        }
        fn window(&mut self, g: GroupId, closed: bool) {
            self.push(Rec::Window(g, closed));
        }
        fn flush(&mut self, _: &mut ()) {
            self.push(Rec::AllOut);
        }
        fn observe(&mut self, _now: SimTime, _obs: Observation) {
            self.push(Rec::Observed);
        }
    }

    impl DeliveryLog for Recorder {
        fn on_delivery(&mut self, _d: &Delivery) {
            self.push(Rec::Logged);
        }
        fn on_view_change(&mut self, _g: GroupId, _m: &[ProcessorId], _ts: Timestamp) {}
        fn flush(&mut self) {
            self.push(Rec::Flushed);
        }
    }

    /// Three requests from P1 and the heartbeats that let P2 order them:
    /// the datagrams of one busy turn at P2, and the time it happens.
    fn traffic() -> (Vec<Packet>, SimTime) {
        let mut peer = engine(1);
        let mut now = SimTime::ZERO;
        let mut wire = Vec::new();
        for k in 1..=3u64 {
            peer.multicast_request(now, conn(), RequestNum(k), Bytes::from(vec![k as u8; 40]))
                .unwrap();
        }
        for _ in 0..3 {
            now = SimTime(now.0 + 10_000);
            peer.tick(now);
            for a in peer.drain_actions() {
                if let Action::Send { addr, payload } = a {
                    wire.push(Packet::new(1, addr, payload));
                }
            }
        }
        (wire, now)
    }

    fn feed_all(engine: &mut Processor, now: SimTime, wire: &[Packet]) {
        for pkt in wire {
            engine.handle_packet(now, pkt);
        }
    }

    #[test]
    fn actions_reach_the_host_in_drain_order() {
        let (wire, now) = traffic();
        let mut by_hand = engine(2);
        by_hand.begin_batch();
        feed_all(&mut by_hand, now, &wire);
        by_hand.tick(now);
        by_hand.end_batch(now);
        let want: Vec<Rec> = by_hand.drain_actions().into_iter().map(Rec::from).collect();
        assert!(matches!(want[0], Rec::Join(ADDR)), "founding comes first");
        assert!(want.iter().any(|r| matches!(r, Rec::Send(..))));
        assert_eq!(
            want.iter().filter(|r| matches!(r, Rec::Deliver(_))).count(),
            3
        );

        let tape = Tape::default();
        let mut driver = Driver::new(engine(2));
        let acted = driver.turn(now, true, &mut Recorder(tape.clone()), &mut (), |e, _| {
            feed_all(e, now, &wire)
        });
        assert!(acted);
        let tape = tape.lock().unwrap();
        assert_eq!(tape[..want.len()], want);
        assert_eq!(tape[want.len()..], [Rec::AllOut], "and then the flush");
    }

    #[test]
    fn the_host_is_told_to_flush_before_it_is_handed_observations() {
        let (wire, now) = traffic();
        let tape = Tape::default();
        let mut driver = Driver::new(engine(2));
        driver.engine.enable_observations();
        driver.turn(now, true, &mut Recorder(tape.clone()), &mut (), |e, _| {
            feed_all(e, now, &wire)
        });
        let tape = tape.lock().unwrap();
        let all_out = tape.iter().position(|r| *r == Rec::AllOut).unwrap();
        assert!(tape[..all_out].iter().all(|r| *r != Rec::Observed));
        assert!(tape.len() > all_out + 1, "the turn recorded observations");
        assert!(tape[all_out + 1..].iter().all(|r| *r == Rec::Observed));
    }

    #[test]
    fn the_log_is_flushed_before_the_first_delivery_of_a_turn() {
        let (wire, now) = traffic();
        let tape = Tape::default();
        let mut driver = Driver::new(engine(2));
        driver
            .engine
            .set_delivery_log(Box::new(Recorder(tape.clone())));
        driver.turn(now, true, &mut Recorder(tape.clone()), &mut (), |e, _| {
            feed_all(e, now, &wire)
        });
        let tape = tape.lock().unwrap();
        let at = |want: fn(&Rec) -> bool| tape.iter().position(want).expect("on the tape");
        let flushed = at(|r| *r == Rec::Flushed);
        assert_eq!(
            tape[..flushed]
                .iter()
                .filter(|r| **r == Rec::Logged)
                .count(),
            3,
            "the log saw every delivery of the turn before the flush"
        );
        assert!(
            tape[..flushed].iter().all(|r| matches!(r, Rec::Logged)),
            "and the host nothing at all"
        );
        assert!(flushed < at(|r| matches!(r, Rec::Deliver(_))));
    }

    #[test]
    fn scratch_capacity_survives_and_an_empty_turn_says_so() {
        let (wire, now) = traffic();
        let mut driver = Driver::new(engine(2));
        let mut host = Recorder(Tape::default());
        assert!(driver.turn(now, false, &mut host, &mut (), |e, _| feed_all(
            e, now, &wire
        )));
        let cap = driver.actions.capacity();
        assert!(cap > 0, "the turn went through the scratch");
        let before = host.0.lock().unwrap().len();
        assert!(
            !driver.turn(now, false, &mut host, &mut (), |_, _| {}),
            "nothing fed, nothing due: nothing done"
        );
        assert_eq!(host.0.lock().unwrap()[before..], [Rec::AllOut]);
        assert!(driver.actions.is_empty());
        assert_eq!(driver.actions.capacity(), cap);
    }
}
