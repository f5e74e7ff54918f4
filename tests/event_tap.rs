//! Integration: the instrumentation tap (DESIGN.md §9) is one stream read
//! three ways — observations, telemetry, the durable delivery log — and
//! none of them can be told apart from "off" on the wire.
//!
//! Every constant below was measured at the commit *before* the three
//! per-consumer taps were folded into one, against the public API only, so
//! the pins hold the refactor to bit-identical observable behaviour:
//!
//! 1. all three consumers on at once still reproduce the golden wire hash
//!    (each alone is pinned in `ftmp-core` and `durable_recovery.rs`);
//! 2. the rendered observation stream of every member on a lossy run with
//!    a crash, a conviction and a view change;
//! 3. the metrics snapshot and flight recorder of every member on a
//!    lossy run without a conviction;
//! 4. the metrics view counts what a membership-change flush delivers.
//!
//! Since the telemetry registry stopped re-counting what the engine counts
//! (DESIGN.md §10) the snapshot is read through the one view,
//! `Processor::register_metrics`; pin 3 is still taken over the document the
//! older commit rendered — its keys, in its order — so it holds every one of
//! those keys to the value it had (`parent_shaped_json`).

use ftmp::check::FtmpWorld;
use ftmp::core::{
    ClockMode, Delivery, DeliveryLog, GroupId, Observation, OverlayPolicy, PackPolicy, Packing,
    Processor, ProcessorId, ProtocolConfig, Timestamp,
};
use ftmp::net::{LossModel, SimConfig, SimDuration};
use ftmp::telemetry::{Registry, Snapshot};
use ftmp_check::trace_hash;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The hash `ftmp-core`'s golden test pins for the burst scenario.
const GOLDEN: u64 = 0x40E7_EDBA_EE0B_E021;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A delivery log that only counts (and is `Send`, as the trait demands).
#[derive(Default)]
struct Counts {
    deliveries: AtomicU64,
    views: AtomicU64,
}
struct CountingLog(Arc<Counts>);
impl DeliveryLog for CountingLog {
    fn on_delivery(&mut self, _d: &Delivery) {
        self.0.deliveries.fetch_add(1, Ordering::Relaxed);
    }
    fn on_view_change(&mut self, _g: GroupId, _m: &[ProcessorId], _ts: Timestamp) {
        self.0.views.fetch_add(1, Ordering::Relaxed);
    }
}

/// An observation as the pins below render it: its kind, then its fields
/// as `key=value` (a connection `c=cd.cg-sd.sg`, a member list `m=1,2`).
fn render(o: &Observation) -> String {
    match o {
        Observation::Delivered {
            group,
            conn: c,
            request,
            source,
            seq,
            ts,
        } => format!(
            "Delivered g={} c={}.{}-{}.{} r={} s={} q={} t={}",
            group.0,
            c.client.domain.0,
            c.client.group,
            c.server.domain.0,
            c.server.group,
            request.0,
            source.0,
            seq.0,
            ts.0
        ),
        Observation::ViewInstalled { group, members, ts } => {
            let m: Vec<String> = members.iter().map(|p| p.0.to_string()).collect();
            format!("ViewInstalled g={} t={} m={}", group.0, ts.0, m.join(","))
        }
        Observation::Sent { group, seq, ts } => {
            format!("Sent g={} q={} t={}", group.0, seq.0, ts.0)
        }
        Observation::Acked { group, member, ts } => {
            format!("Acked g={} p={} t={}", group.0, member.0, ts.0)
        }
        Observation::Retained {
            group,
            source,
            seq,
            ts,
        } => format!(
            "Retained g={} s={} q={} t={}",
            group.0, source.0, seq.0, ts.0
        ),
        Observation::Reclaimed {
            group,
            stable_ts,
            count,
        } => format!("Reclaimed g={} t={} n={}", group.0, stable_ts.0, count),
        Observation::Suspected { group, suspect } => {
            format!("Suspected g={} p={}", group.0, suspect.0)
        }
        Observation::Convicted { group, convicted } => {
            format!("Convicted g={} p={}", group.0, convicted.0)
        }
    }
}

/// Every member records its observations as `P<id> <at µs> <rendering>`.
fn record_observations(w: &mut FtmpWorld) -> Rc<RefCell<Vec<String>>> {
    let lines: Rc<RefCell<Vec<String>>> = Rc::default();
    for id in 1..=w.n {
        let sink = Rc::clone(&lines);
        w.net.with_node(id, move |node, _, _| {
            node.set_observer(move |at, o| {
                sink.borrow_mut()
                    .push(format!("P{id} {} {}", at.as_micros(), render(&o)));
            });
        });
    }
    lines
}

fn attach_counting_logs(w: &mut FtmpWorld) -> Arc<Counts> {
    let counts: Arc<Counts> = Arc::default();
    for id in 1..=w.n {
        let c = Arc::clone(&counts);
        w.net.with_node(id, move |node, _, _| {
            node.engine_mut().set_delivery_log(Box::new(CountingLog(c)));
        });
    }
    counts
}

#[test]
fn all_taps_on_reproduces_the_golden_wire_trace() {
    // The golden scenario: three members each burst three 32-byte
    // multicasts in the same instant, then 100 ms of protocol time.
    let mut w = FtmpWorld::new(
        3,
        SimConfig::with_seed(7),
        ProtocolConfig::with_seed(7),
        ClockMode::Lamport,
    );
    let lines = record_observations(&mut w);
    w.enable_telemetry();
    let counts = attach_counting_logs(&mut w);
    w.net.enable_trace(1 << 16);
    for id in 1..=3u32 {
        for _ in 0..3 {
            w.send(id, 32);
        }
    }
    w.run_ms(100);
    assert_eq!(
        trace_hash(w.net.trace().expect("trace enabled")),
        GOLDEN,
        "observations + telemetry + a delivery log together perturbed the wire"
    );
    // All three consumers really were fed.
    assert_eq!(counts.deliveries.load(Ordering::Relaxed), 27);
    let delivered = lines
        .borrow()
        .iter()
        .filter(|l| l.contains(" Delivered "))
        .count();
    assert_eq!(delivered, 27, "nine deliveries observed at each member");
    for id in 1..=3u32 {
        let snap = view(w.net.node(id).unwrap().engine());
        assert_eq!(snap.counter("deliveries"), Some(9));
    }
}

/// Four members, 8 % loss; the highest id crashes mid-traffic and the
/// survivors keep sending through suspicion, conviction and the view change.
fn lossy_crash_run(seed: u64) -> FtmpWorld {
    let sim = SimConfig::with_seed(seed).loss(LossModel::Iid { p: 0.08 });
    FtmpWorld::new(4, sim, ProtocolConfig::with_seed(seed), ClockMode::Lamport)
}

fn drive_crash(w: &mut FtmpWorld) {
    for step in 0..21u64 {
        w.send((step % 4) as u32 + 1, 64);
        w.run_ms(1);
    }
    w.net.crash(4);
    for step in 0..40u64 {
        w.send((step % 3) as u32 + 1, 64);
        w.run_ms(5);
    }
    w.run_ms(1_000);
}

fn hash_lines(lines: &[String]) -> (usize, u64) {
    let mut h = FNV_SEED;
    for l in lines {
        fnv(&mut h, l.as_bytes());
        fnv(&mut h, b"\n");
    }
    (lines.len(), h)
}

/// One member's whole metrics view.
fn view(engine: &Processor) -> Snapshot {
    let mut reg = Registry::new();
    engine.register_metrics(&mut reg);
    reg.snapshot()
}

/// The snapshot document as the commit that measured the pins rendered it:
/// the telemetry registry then also held the eight counters and two gauges
/// named here, registered in this order. Those are filled from today's view
/// (`view_changes` is still the registry's own and keeps its slot), the
/// registry supplies the rest, and the view's `ftmp_*` keys, which that
/// document never had, stay out.
fn parent_shaped_json(engine: &Processor) -> String {
    let view = view(engine);
    let mut doc = Registry::new();
    for name in [
        "nacks_sent",
        "retransmissions_answered",
        "rtt_samples",
        "window_closes",
        "convictions",
        "view_changes",
        "deliveries",
        "packed_datagrams",
    ] {
        let id = doc.counter(name);
        if name != "view_changes" {
            doc.inc(id, view.counter(name).expect(name));
        }
    }
    for name in ["srtt_us", "rttvar_us"] {
        let id = doc.gauge(name);
        doc.set(id, view.gauge(name).expect(name));
    }
    doc.merge(engine.telemetry().expect("enabled").registry());
    doc.snapshot().to_json()
}

/// FNV over every member's metrics snapshot JSON and flight dump, plus
/// the JSON itself for the failure message.
fn hash_telemetry(w: &FtmpWorld) -> (u64, String) {
    let mut h = FNV_SEED;
    let mut rendered = String::new();
    for id in 1..=w.n {
        let engine = w.net.node(id).unwrap().engine();
        let json = parent_shaped_json(engine);
        fnv(&mut h, json.as_bytes());
        fnv(&mut h, engine.flight_dump().expect("enabled").as_bytes());
        rendered.push_str(&json);
        rendered.push('\n');
    }
    (h, rendered)
}

/// The two halves of [`hash_telemetry`] apart: FNV over every member's
/// metrics document (counts and histograms: no order inside) and FNV over
/// every member's flight dump (a ring in emission order); then the documents
/// themselves for the failure message.
fn hash_documents_and_flights(w: &FtmpWorld) -> (u64, u64, String) {
    let (mut docs, mut flights) = (FNV_SEED, FNV_SEED);
    let mut rendered = String::new();
    for id in 1..=w.n {
        let engine = w.net.node(id).unwrap().engine();
        let json = parent_shaped_json(engine);
        fnv(&mut docs, json.as_bytes());
        fnv(
            &mut flights,
            engine.flight_dump().expect("enabled").as_bytes(),
        );
        rendered.push_str(&json);
        rendered.push('\n');
    }
    (docs, flights, rendered)
}

/// FNV of every member's deliveries as `P<id> s=<source> q=<seq>`, in the
/// order that member made them.
fn hash_delivery_order(lines: &[String]) -> u64 {
    let mut h = FNV_SEED;
    for l in lines.iter().filter(|l| l.contains(" Delivered ")) {
        let f: Vec<&str> = l.split(' ').collect();
        // P<id> <at> Delivered g= c= r= s= q= t=
        for part in [f[0], f[6], f[7]] {
            assert!(part.starts_with(['P', 's', 'q']), "line shape: {l}");
            fnv(&mut h, part.as_bytes());
            fnv(&mut h, b" ");
        }
    }
    h
}

/// Line count and FNV of every member's rendered observation lines, in
/// emission order.
///
/// Re-pinned when NACK jitter became drawn per gap episode (DESIGN.md §4):
/// the random stream no longer advances on every tick, so this lossy run's
/// NACK times, and the repairs behind them, move. Re-pinned again, same
/// line count, when a Heartbeat overtaken by the message it cites became
/// held until that message arrives: the horizons it carries advance then.
/// Re-pinned again, same line count, when a processor stopped drawing the
/// any-holder coin for its own looped-back RetransmitRequests: the random
/// stream moves, and the repairs with it. Re-pinned when every random draw became a keyed hash of what it decides (`ftmp_net::draw`): every
/// loss, latency, jitter and coin of this run is drawn afresh (2184 lines,
/// against 2210). Re-pinned when the first request for a gap moved one
/// tick earlier and an answered repair re-armed the gap: the repairs move,
/// and with them each link's datagram ordinals (2194 lines).
const OBSERVATION_STREAM: (usize, u64) = (2194, 0x039C_6CE3_DA87_3B06);

#[test]
fn observation_stream_is_pinned_through_crash_conviction_and_view_change() {
    let mut w = lossy_crash_run(11);
    let lines = record_observations(&mut w);
    drive_crash(&mut w);
    let lines = lines.borrow();
    for kind in ["Suspected", "Convicted", "ViewInstalled", "Reclaimed"] {
        assert!(
            lines.iter().any(|l| l.contains(kind)),
            "the run exercises {kind}"
        );
    }
    let got = hash_lines(&lines);
    assert_eq!(
        got, OBSERVATION_STREAM,
        "the observation stream moved: got ({}, {:#018X})",
        got.0, got.1
    );
}

/// Re-pinned when horizon on demand gained its prompt budget (DESIGN.md
/// §4): prompts paid inside the half interval change this run's Heartbeats,
/// so its ordering delays and, through the random stream, its NACKs move.
///
/// Re-pinned when NACK jitter became drawn per gap episode: the random
/// stream no longer advances on every tick, so the NACKs move again.
///
/// Re-pinned when a processor stopped drawing the any-holder coin for its
/// own looped-back RetransmitRequests: the random stream moves again.
///
/// Re-pinned when every random draw became a keyed hash of what it decides (`ftmp_net::draw`): every loss, latency, jitter and coin is
/// drawn afresh.
///
/// Re-pinned when the first request for a gap moved one tick earlier and an
/// answered repair re-armed the gap: the NACKs move, and with them each
/// link's datagram ordinals.
const TELEMETRY_SNAPSHOT: u64 = 0x9993_97E0_4D30_1048;

#[test]
fn telemetry_snapshot_is_pinned_on_a_lossy_run() {
    let sim = SimConfig::with_seed(23).loss(LossModel::Iid { p: 0.05 });
    let mut w = FtmpWorld::new(4, sim, ProtocolConfig::with_seed(23), ClockMode::Lamport);
    w.enable_telemetry();
    for step in 0..120u64 {
        w.send((step % 4) as u32 + 1, 64);
        w.run_ms(1);
    }
    w.run_ms(300);
    for id in 1..=4u32 {
        let snap = view(w.net.node(id).unwrap().engine());
        assert_eq!(snap.counter("convictions"), Some(0), "no conviction here");
        // P2 sends no NACK in this run since the first request moved a
        // tick earlier; the other three each repair a loss.
        if id != 2 {
            assert!(
                snap.counter("nacks_sent").unwrap() > 0,
                "P{id}: loss was repaired"
            );
            assert!(
                snap.histogram("rmp_recovery_us").unwrap().count > 0,
                "P{id}"
            );
        }
        assert!(snap.histogram("stability_lag_us").unwrap().count > 0);
    }
    let (h, rendered) = hash_telemetry(&w);
    assert_eq!(
        h, TELEMETRY_SNAPSHOT,
        "the telemetry snapshot moved: got {h:#018X}\n{rendered}"
    );
}

/// The same pins on the paths the default configuration never takes: packed
/// containers with piggybacked ack vectors, and the k-ary overlay's digests,
/// neighborhood repair and rebuilds (eight members, 5 % loss, no
/// conviction). Pinned in halves, so a move says which half moved.
///
/// What no reordering of one container's processing can move: the eight
/// metrics documents, the observation lines *sorted*, and each member's
/// delivery sequence. All three were measured at the commit before a packed
/// container's housekeeping (delivery rule, reclamation, gate, send window)
/// moved from once per message to once per same-group run, and hold across
/// it. All five were re-pinned when NACK jitter became drawn per gap
/// episode: the random stream no longer advances on every tick, so this
/// lossy run's repairs, and what they carry, move. All five again when
/// header evidence that arrives during a gap became held until the gap
/// fills: a digest entry for a member whose stream has a gap now advances
/// its horizon once the gap fills, so deliveries and repairs move. All
/// five again when every random draw became a keyed hash of what it decides (`ftmp_net::draw`): every loss, latency, jitter and coin is drawn
/// afresh. All five again when the first request for a gap moved one tick
/// earlier and an answered repair re-armed the gap: the repairs move, and
/// with them each link's datagram ordinals.
const PACKED_TREE_DOCUMENTS: u64 = 0x60BE_409B_F26F_C643;
const PACKED_TREE_SORTED_LINES: u64 = 0x7F72_96BF_C01E_D24B;
const PACKED_TREE_DELIVERY_ORDER: u64 = 0x6279_F157_2C2B_CB0B;
/// What it does move, re-pinned with that change: the observation lines in
/// emission order (same count, same lines) and the flight-recorder rings.
/// Inside one container every message is now admitted (`Retained`, `Acked`)
/// before anything is delivered or reclaimed (`Delivered`, `Reclaimed`).
/// Both re-pinned again with the three above, for the per-episode NACK
/// jitter: 20578 lines, against 19923; and for the held header evidence,
/// with the same line count; for keyed draws: 19916 lines, against
/// 20578; and for the first request a tick earlier: 19937 lines.
const PACKED_TREE_STREAM: (usize, u64) = (19937, 0x16FC_C2F0_AD6F_1A9B);
const PACKED_TREE_FLIGHTS: u64 = 0x7528_F0D2_2F84_E1EE;

#[test]
fn packed_tree_run_pins_both_streams() {
    let proto = ProtocolConfig::with_seed(31)
        .packing(Packing::with(
            1400,
            PackPolicy::Deadline(SimDuration::from_micros(500)),
        ))
        .overlay(OverlayPolicy::Tree { arity: 2 });
    let sim = SimConfig::with_seed(31).loss(LossModel::Iid { p: 0.05 });
    let mut w = FtmpWorld::new(8, sim, proto, ClockMode::Lamport);
    let lines = record_observations(&mut w);
    w.enable_telemetry();
    for step in 0..64u64 {
        w.send((step % 8) as u32 + 1, 64);
        w.send((step % 8) as u32 + 1, 64);
        w.run_ms(2);
    }
    w.run_ms(500);
    let mut digests = 0;
    for id in 1..=8u32 {
        let snap = view(w.net.node(id).unwrap().engine());
        assert_eq!(snap.counter("deliveries"), Some(128));
        assert_eq!(snap.counter("convictions"), Some(0));
        assert!(snap.counter("packed_datagrams").unwrap() > 0);
        digests += snap.counter("overlay_digests_sent").unwrap();
    }
    assert!(digests > 0, "tree mode beacons digests");
    let (documents, flights, rendered) = hash_documents_and_flights(&w);
    let mut lines = lines.borrow().clone();
    let stream = hash_lines(&lines);
    let delivery_order = hash_delivery_order(&lines);
    lines.sort_unstable();
    let sorted = hash_lines(&lines).1;
    assert_eq!(
        (documents, sorted, delivery_order),
        (
            PACKED_TREE_DOCUMENTS,
            PACKED_TREE_SORTED_LINES,
            PACKED_TREE_DELIVERY_ORDER
        ),
        "an order-free half moved: got documents {documents:#018X}, sorted lines \
         {sorted:#018X}, delivery order {delivery_order:#018X}\n{rendered}"
    );
    assert_eq!(
        (stream, flights),
        (PACKED_TREE_STREAM, PACKED_TREE_FLIGHTS),
        "an emission-order half moved: got stream ({}, {:#018X}), flights {flights:#018X}",
        stream.0,
        stream.1
    );
}

/// Regression: messages delivered by a membership-change flush pass
/// through `handle_ordered` but not through `try_deliver`, and telemetry's
/// ordered hook used to sit in the latter — so the flush's deliveries were
/// missing from `deliveries`, `ordering_delay_us` and the stability FIFO,
/// and their correlation entries lingered until eviction.
#[test]
fn telemetry_counts_flush_deliveries() {
    let mut w = lossy_crash_run(11);
    w.enable_telemetry();
    drive_crash(&mut w);
    let mut flushed = 0;
    for id in 1..=3u32 {
        let engine = w.net.node(id).unwrap().engine();
        let romp = engine.layer_totals().romp;
        flushed += romp.flushed;
        let snap = view(engine);
        assert_eq!(snap.counter("convictions"), Some(1), "P{id} convicted P4");
        // `deliveries` is ROMP's own count now; what telemetry could still
        // miss is the hook: one ordering-delay sample per ordered message.
        assert_eq!(
            snap.counter("deliveries"),
            Some(romp.delivered + romp.flushed)
        );
        assert_eq!(
            snap.histogram("ordering_delay_us").unwrap().count,
            romp.delivered + romp.flushed,
            "P{id}: telemetry missed what the flush delivered \
             (rule {}, flush {})",
            romp.delivered,
            romp.flushed
        );
    }
    assert!(flushed >= 1, "the scenario's flush delivers something");
}
