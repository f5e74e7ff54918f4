//! The engine's one host: a [`Node`] owning one [`Processor`] and its feed,
//! worked in turns (DESIGN.md §11).
//!
//! A host's whole job is to move datagrams into the engine and its
//! [`Action`]s out. [`Node::turn`] is the one place that says in what order
//! that happens:
//!
//! 1. open the batch window, so everything the turn sends is coalesced
//!    against one Packer budget (DESIGN.md §5);
//! 2. **feed** the engine what the intake holds — datagrams and
//!    [`Command`]s (publishes, membership changes) — in arrival order;
//! 3. if a tick is due, tick;
//! 4. close the window, flushing every due Packer queue;
//! 5. take the turn's actions — the delivery log's turn boundary
//!    (DESIGN.md §12): the log has handed on every delivery before the
//!    host sees the first of them;
//! 6. dispatch them in the order the protocol produced them: deliveries and
//!    events go to the [`Host`] as they come, sends are gathered and leave
//!    for the [`Link`] in one [`Link::send_batch`] once all are dispatched —
//!    except that a subscription change splits the batch where it occurred,
//!    so it takes effect between the sends around it;
//! 7. hand on the observations the turn recorded, if the engine records
//!    them, in one [`Host::observe`] call (a trace writer's one `write` a
//!    turn).
//!
//! A node has no thread and no clock: time is a parameter of every turn,
//! so it is as deterministic as the engine inside it. Where its datagrams
//! go (the [`Link`]) and where its upcalls go (the [`Host`]) are the host
//! program's business. The socket runtime (`ftmp-runtime`) hands it a
//! transport and channels from a parking thread; on the simulator it is a
//! [`SimNode`] whose sends go to the [`Outbox`] ([`SimLink`]) and whose
//! upcalls wait in a [`Mailbox`]; the ORB's `OrbNode` puts an ORB above it.
//! The feed and the batching are the code below for all of them.

use crate::actions::{Action, Delivery, ProtocolEvent};
use crate::ids::{ConnectionId, GroupId, ProcessorId, RequestNum};
use crate::observe::Observation;
use crate::processor::{Processor, SendError, SendOutcome};
use bytes::Bytes;
use ftmp_net::{McastAddr, Outbox, Packet, SimNode, SimTime};
use std::collections::VecDeque;
use std::vec::Drain;

/// The network below a node: the simulator's [`Outbox`] ([`SimLink`]), the
/// runtime's transport.
pub trait Link {
    /// Transmit one run of the turn's datagrams, in order.
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]);
    /// Subscribe to a multicast address.
    fn join(&mut self, addr: McastAddr);
    /// Unsubscribe from a multicast address.
    fn leave(&mut self, addr: McastAddr);
}

/// Where a node's upcalls go: the application above.
pub trait Host {
    /// An ordered delivery, stamped with the turn's time.
    fn deliver(&mut self, now: SimTime, delivery: Delivery);
    /// A protocol event, stamped with the turn's time.
    fn event(&mut self, now: SimTime, event: ProtocolEvent);
    /// A flow-control window edge of `group`: `closed` on
    /// [`Action::Backpressure`], reopened on [`Action::SendReady`]. Hosts
    /// that never fill the window ignore it.
    fn window(&mut self, _group: GroupId, _closed: bool) {}
    /// The observations the turn recorded, in recording order, at the end
    /// of every turn; there are none unless the engine records them
    /// ([`Processor::enable_observations`]). What the host does not take
    /// is dropped.
    fn observe(&mut self, _now: SimTime, _observations: Drain<'_, Observation>) {}
    /// What became of a [`Command::Publish`], as the turn fed it.
    fn published(&mut self, _request: RequestNum, _outcome: Result<SendOutcome, SendError>) {}
}

/// The simulator as a node's [`Link`]: the [`Outbox`] of one call on the
/// node `src`.
pub struct SimLink<'a> {
    /// The sending node, as the simulator knows it.
    pub src: u32,
    /// Where the call's sends and subscription changes go.
    pub out: &'a mut Outbox,
}

impl Link for SimLink<'_> {
    fn send_batch(&mut self, frames: &[(McastAddr, Bytes)]) {
        for (addr, payload) in frames {
            self.out.send(Packet::new(self.src, *addr, payload.clone()));
        }
    }
    fn join(&mut self, addr: McastAddr) {
        self.out.join(addr);
    }
    fn leave(&mut self, addr: McastAddr) {
        self.out.leave(addr);
    }
}

/// One received datagram, already filtered to a subscribed group.
#[derive(Debug, Clone)]
pub struct RxDatagram {
    /// Destination group (from the frame header).
    pub addr: McastAddr,
    /// FTMP payload.
    pub payload: Bytes,
}

/// One entry of a node's intake: what its next turn takes in.
pub enum Inbox {
    /// The subscribed frames of one socket read, or one send's self-copies.
    Datagrams(Vec<RxDatagram>),
    /// A control command from the node's owner.
    Command(Command),
}

/// Control-plane commands a node takes in.
pub enum Command {
    /// Multicast an ordered request on a bound connection.
    Publish {
        /// The logical connection.
        conn: ConnectionId,
        /// ORB request number (duplicate-suppression key with `conn`).
        request: RequestNum,
        /// Request body.
        giop: Bytes,
    },
    /// Sponsor `ProcessorId` into the group (§7.1): first joins and
    /// post-crash re-adds. The engine does the retrying
    /// ([`Processor::add_processor`]): an id the group still lists — an
    /// incarnation not yet convicted — is added once a settled view no
    /// longer lists it, unless the listed incarnation is heard first.
    AddMember(ProcessorId),
    /// Voluntarily remove a member (or self-leave).
    RemoveMember(ProcessorId),
    /// Begin orderly shutdown; the node only notes it ([`Node::stopping`]).
    Stop,
}

/// One engine, its intake and its [`Host`] `U`, plus the scratch a turn
/// drains the engine through; the vectors keep their capacity, so a
/// steady-state turn allocates nothing.
pub struct Node<U = Mailbox> {
    engine: Processor,
    /// Where the upcalls go; the owner reads and adjusts it between turns.
    pub host: U,
    /// What the next turn takes in; the owner adds to it between turns.
    pub intake: Vec<Inbox>,
    /// The group membership commands act on.
    group: GroupId,
    stopping: bool,
    actions: Vec<Action>,
    frames: Vec<(McastAddr, Bytes)>,
    observations: Vec<Observation>,
    /// The last datagram batch a turn emptied, for the next arrival.
    spare: Vec<RxDatagram>,
}

impl<U: Host> Node<U> {
    /// Host `engine`, built by the caller with the clock the host wants.
    /// Membership commands act on `group`. What building the engine queued
    /// (founding a group subscribes to it) leaves with the first turn.
    pub fn new(engine: Processor, group: GroupId, host: U) -> Self {
        Node {
            engine,
            host,
            intake: Vec::new(),
            group,
            stopping: false,
            actions: Vec::new(),
            frames: Vec::new(),
            observations: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The engine, for inspection.
    pub fn engine(&self) -> &Processor {
        &self.engine
    }

    /// The engine, for the FT infrastructure's calls (connections, logs,
    /// telemetry); what they queue leaves with the next turn.
    pub fn engine_mut(&mut self) -> &mut Processor {
        &mut self.engine
    }

    /// A [`Command::Stop`] has been taken in.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// One turn at `now`, ticking if `tick_due` (the module docs give the
    /// order); the intake is left empty. Returns whether any action was
    /// dispatched: a host that pumps until quiescent stops on `false`.
    pub fn turn<L: Link + ?Sized>(&mut self, now: SimTime, tick_due: bool, link: &mut L) -> bool {
        self.engine.begin_batch();
        let mut intake = std::mem::take(&mut self.intake);
        let id = self.engine.id().0;
        for entry in intake.drain(..) {
            match entry {
                Inbox::Datagrams(mut batch) => {
                    for d in batch.drain(..) {
                        let pkt = Packet::new(id, d.addr, d.payload);
                        self.engine.handle_packet(now, &pkt);
                    }
                    self.spare = batch;
                }
                Inbox::Command(cmd) => self.take(now, cmd),
            }
        }
        self.intake = intake;
        if tick_due {
            self.engine.tick(now);
        }
        self.engine.end_batch(now);
        self.engine.drain_actions_into(&mut self.actions);
        let acted = !self.actions.is_empty();
        for action in self.actions.drain(..) {
            match action {
                Action::Send { addr, payload } => self.frames.push((addr, payload)),
                Action::Join(addr) => {
                    send_batch(link, &mut self.frames);
                    link.join(addr);
                }
                Action::Leave(addr) => {
                    send_batch(link, &mut self.frames);
                    link.leave(addr);
                }
                Action::Deliver(d) => self.host.deliver(now, d),
                Action::Event(e) => self.host.event(now, e),
                Action::Backpressure(g) => self.host.window(g, true),
                Action::SendReady(g) => self.host.window(g, false),
            }
        }
        // Every send leaves before the turn's observations, which can be
        // slow to record, are handed on.
        send_batch(link, &mut self.frames);
        self.engine.drain_observations_into(&mut self.observations);
        self.host.observe(now, self.observations.drain(..));
        acted
    }

    /// Feed one command to the engine.
    fn take(&mut self, now: SimTime, cmd: Command) {
        let (engine, group) = (&mut self.engine, self.group);
        match cmd {
            Command::Publish {
                conn,
                request,
                giop,
            } => {
                let outcome = engine.multicast_request(now, conn, request, giop);
                self.host.published(request, outcome);
            }
            Command::AddMember(member) => engine.add_processor(now, group, member),
            Command::RemoveMember(member) => engine.remove_processor(now, group, member),
            Command::Stop => self.stopping = true,
        }
    }

    /// Queue `pkt` for the next turn, in the batch buffer the last turn
    /// emptied: a simulator arrival taken in without an allocation.
    pub fn take_datagram(&mut self, pkt: &Packet) {
        let mut batch = std::mem::take(&mut self.spare);
        batch.push(RxDatagram {
            addr: pkt.dst,
            payload: pkt.payload.clone(),
        });
        self.intake.push(Inbox::Datagrams(batch));
    }

    /// A turn on the simulator at `now` with nothing new to take in: what
    /// calls on the engine queued leaves now.
    pub fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        self.sim_turn(now, false, out);
    }

    /// Take `cmd` in with a turn of its own on the simulator at `now`.
    pub fn command(&mut self, now: SimTime, cmd: Command, out: &mut Outbox) {
        self.intake.push(Inbox::Command(cmd));
        self.pump(now, out);
    }

    fn sim_turn(&mut self, now: SimTime, tick_due: bool, out: &mut Outbox) {
        let src = self.engine.id().0;
        self.turn(now, tick_due, &mut SimLink { src, out });
    }
}

/// Hand the sends gathered so far to `link` as one batch.
fn send_batch<L: Link + ?Sized>(link: &mut L, frames: &mut Vec<(McastAddr, Bytes)>) {
    if !frames.is_empty() {
        link.send_batch(frames);
        frames.clear();
    }
}

impl<U: Host> SimNode for Node<U> {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        self.take_datagram(pkt);
        self.sim_turn(now, false, out);
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        self.sim_turn(now, true, out);
    }
}

/// A conformance observer: virtual time plus the observation (DESIGN.md
/// §9). The observing processor is fixed when it is attached.
pub type Observer = Box<dyn FnMut(SimTime, Observation)>;

/// What a simulator-hosted node hands up, held until the harness takes it.
#[derive(Default)]
pub struct Mailbox {
    /// Ordered deliveries, stamped with the turn that made them.
    pub deliveries: VecDeque<(SimTime, Delivery)>,
    /// Protocol events, stamped likewise.
    pub events: VecDeque<(SimTime, ProtocolEvent)>,
    /// What became of the last publish.
    pub published: Option<Result<SendOutcome, SendError>>,
    observer: Option<Observer>,
}

impl Host for Mailbox {
    fn deliver(&mut self, now: SimTime, d: Delivery) {
        self.deliveries.push_back((now, d));
    }
    fn event(&mut self, now: SimTime, e: ProtocolEvent) {
        self.events.push_back((now, e));
    }
    fn observe(&mut self, now: SimTime, observations: Drain<'_, Observation>) {
        if let Some(cb) = self.observer.as_mut() {
            observations.for_each(|obs| cb(now, obs));
        }
    }
    fn published(&mut self, _request: RequestNum, outcome: Result<SendOutcome, SendError>) {
        self.published = Some(outcome);
    }
}

impl Node {
    /// Host `engine` on the simulator, its upcalls held in a [`Mailbox`].
    pub fn sim(engine: Processor, group: GroupId) -> Self {
        Node::new(engine, group, Mailbox::default())
    }

    /// Attach a conformance observer and enable the engine's observation
    /// recording. Every observation the engine records is forwarded to `f`,
    /// stamped with the virtual time of the turn that drained it, in the
    /// order the engine performed the transitions.
    pub fn set_observer(&mut self, f: impl FnMut(SimTime, Observation) + 'static) {
        self.engine.enable_observations();
        self.host.observer = Some(Box::new(f));
    }

    /// Drain the ordered deliveries held so far.
    pub fn take_deliveries(&mut self) -> Vec<(SimTime, Delivery)> {
        self.host.deliveries.drain(..).collect()
    }

    /// Drain the protocol events held so far.
    pub fn take_events(&mut self) -> Vec<(SimTime, ProtocolEvent)> {
        self.host.events.drain(..).collect()
    }
}

#[cfg(test)]
mod tests;
