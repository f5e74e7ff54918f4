//! What the steady-state receive path allocates: a warmed-up three-member
//! group receives a packed container of Regulars with its ack-vector
//! trailer, or one bare Regular, through `Processor::handle_packet` and
//! `drain_actions_into`. Neither allocates: the slices share the datagram,
//! the retention store and the ordering queue reuse their room, and the
//! trailer is decoded into the entry list the last one left. Some of the
//! packets counted release deliveries, so delivery is counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ftmp_core::wire;
use ftmp_core::{
    Action, ClockMode, ConnectionId, GroupId, ObjectGroupId, PackPolicy, Packing, Processor,
    ProcessorId, ProtocolConfig, RequestNum,
};
use ftmp_net::{McastAddr, Packet, SimTime};

/// The system allocator, counting this thread's allocations (a `realloc`
/// counts as one).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);
/// Requests each member sends per round; packed, they share one container.
const BATCH: u64 = 4;
const WARM_ROUNDS: u64 = 300;
const MEASURED_ROUNDS: u64 = 20;

/// One counted receive: the packet, what its `handle_packet` and
/// `drain_actions_into` allocated, and the deliveries they released.
struct Counted {
    pkt: Packet,
    allocs: usize,
    deliveries: usize,
}

struct Group {
    procs: Vec<Processor>,
    conn: ConnectionId,
    actions: Vec<Action>,
    next_request: u64,
}

impl Group {
    fn new(packing: bool) -> Group {
        let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
        let members: Vec<ProcessorId> = (1..=3).map(ProcessorId).collect();
        let mut cfg = ProtocolConfig::with_seed(11);
        if packing {
            cfg.packing = Packing::with(1400, PackPolicy::Immediate);
        }
        let mut procs: Vec<Processor> = members
            .iter()
            .map(|&id| Processor::new(id, cfg.clone(), ClockMode::Lamport))
            .collect();
        for p in &mut procs {
            p.create_group(SimTime::ZERO, GROUP, ADDR, members.clone());
            p.bind_connection(conn, GROUP);
        }
        let mut g = Group {
            procs,
            conn,
            actions: Vec::with_capacity(1024),
            next_request: 1,
        };
        g.settle(SimTime::ZERO);
        g
    }

    /// Member `from` publishes `BATCH` requests in one batch; its sends.
    fn publish(&mut self, now: SimTime, from: usize) -> Vec<Packet> {
        let p = &mut self.procs[from];
        p.begin_batch();
        for _ in 0..BATCH {
            let body = Bytes::from_static(&[0xAB; 64]);
            p.multicast_request(now, self.conn, RequestNum(self.next_request), body)
                .expect("connected and inside the window");
            self.next_request += 1;
        }
        p.end_batch(now);
        self.sends_of(from)
    }

    fn sends_of(&mut self, i: usize) -> Vec<Packet> {
        self.actions.clear();
        self.procs[i].drain_actions_into(&mut self.actions);
        self.actions
            .drain(..)
            .filter_map(|a| match a {
                Action::Send { addr, payload } => Some(Packet::new(i as u32 + 1, addr, payload)),
                _ => None,
            })
            .collect()
    }

    /// Fan every member's sends out to every member, loopback included,
    /// until quiet.
    fn settle(&mut self, now: SimTime) {
        loop {
            let wave: Vec<Packet> = (0..self.procs.len())
                .flat_map(|i| self.sends_of(i))
                .collect();
            if wave.is_empty() {
                return;
            }
            self.fan_out(now, &wave, None);
        }
    }

    fn fan_out(
        &mut self,
        now: SimTime,
        wave: &[Packet],
        mut watch: Option<(usize, &mut Vec<Counted>)>,
    ) -> Vec<Packet> {
        let mut provoked = Vec::new();
        for pkt in wave {
            for (i, p) in self.procs.iter_mut().enumerate() {
                match &mut watch {
                    Some((w, counts)) if *w == i && pkt.src != i as u32 + 1 => {
                        let before = ALLOCS.with(Cell::get);
                        p.handle_packet(now, pkt);
                        p.drain_actions_into(&mut self.actions);
                        let allocs = ALLOCS.with(Cell::get) - before;
                        counts.push(Counted {
                            pkt: pkt.clone(),
                            allocs,
                            deliveries: self
                                .actions
                                .iter()
                                .filter(|a| matches!(a, Action::Deliver(_)))
                                .count(),
                        });
                        provoked.extend(self.actions.drain(..).filter_map(|a| match a {
                            Action::Send { addr, payload } => {
                                Some(Packet::new(i as u32 + 1, addr, payload))
                            }
                            _ => None,
                        }));
                    }
                    _ => p.handle_packet(now, pkt),
                }
            }
        }
        provoked
    }

    /// One round at `now`: every member publishes a batch, the group
    /// settles, every member ticks, the group settles again.
    fn round(&mut self, now: SimTime, watch: Option<(usize, &mut Vec<Counted>)>) {
        let mut wave = Vec::new();
        for i in 0..self.procs.len() {
            wave.extend(self.publish(now, i));
        }
        let provoked = self.fan_out(now, &wave, watch);
        self.fan_out(now, &provoked, None);
        self.settle(now);
        for p in &mut self.procs {
            p.tick(now);
        }
        self.settle(now);
    }
}

/// Member 1's counted receives of the other members' sends in
/// `MEASURED_ROUNDS` rounds after `WARM_ROUNDS` rounds, one a millisecond.
fn measure(packing: bool) -> Vec<Counted> {
    let mut g = Group::new(packing);
    for r in 1..=WARM_ROUNDS {
        g.round(SimTime(r * 1_000), None);
    }
    let mut counts = Vec::new();
    for r in WARM_ROUNDS + 1..=WARM_ROUNDS + MEASURED_ROUNDS {
        g.round(SimTime(r * 1_000), Some((0, &mut counts)));
    }
    assert_eq!(
        counts.len() as u64,
        MEASURED_ROUNDS * 2 * if packing { 1 } else { BATCH },
        "one datagram per peer and round packed, one per request bare"
    );
    assert!(
        counts.iter().any(|c| c.deliveries > 0),
        "the counted receives release deliveries"
    );
    counts
}

#[test]
fn a_packed_container_with_a_trailer_is_received_without_allocating() {
    for c in measure(true) {
        let (msgs, trailer) = wire::unpack(&c.pkt.payload).expect("a container");
        assert_eq!(msgs.len() as u64, BATCH);
        assert!(trailer.is_some(), "data carries the ack-vector trailer");
        assert_eq!(c.allocs, 0, "{} deliveries", c.deliveries);
    }
}

#[test]
fn a_bare_regular_is_received_without_allocating() {
    for c in measure(false) {
        assert!(!wire::is_packed(&c.pkt.payload));
        assert_eq!(c.allocs, 0, "{} deliveries", c.deliveries);
    }
}
