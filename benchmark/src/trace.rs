//! The traced pass: a span per call into a layer, counted for the per-call
//! means and kept in memory for the trace file.
//!
//! Every call is timed and counted; its span is *kept* only when the call
//! tree it belongs to touches a sampled message (one `(source, seq)` in
//! [`SAMPLE_EVERY`]), so the file holds whole chains without holding every
//! call. With tracing off [`TraceSink::begin`] returns `None` before reading
//! any clock.

use crate::measure::alloc_counts;
use ftmp_net::SimTime;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One message in this many is followed through the layers.
pub const SAMPLE_EVERY: u64 = 64;

/// Spans kept at most; later call trees are counted but not kept.
const SPAN_CAP: usize = 200_000;

/// A layer boundary the benchmark's hosts call across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// The simulator's `on_packet` upcall into the host (whole node turn).
    NodeOnPacket,
    /// The simulator's `on_tick` upcall.
    NodeOnTick,
    /// The load generator calling into a node (a send or an invocation).
    NodeCall,
    HandlePacket,
    Tick,
    Send,
    Drain,
    /// Ordered delivery of one message (an instant, not an interval).
    Deliver,
    OrbInvoke,
    OrbOnDelivery,
    StoreAppend,
}

impl Kind {
    pub const ALL: [Kind; 11] = [
        Kind::NodeOnPacket,
        Kind::NodeOnTick,
        Kind::NodeCall,
        Kind::HandlePacket,
        Kind::Tick,
        Kind::Send,
        Kind::Drain,
        Kind::Deliver,
        Kind::OrbInvoke,
        Kind::OrbOnDelivery,
        Kind::StoreAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NodeOnPacket => "node.on_packet",
            Kind::NodeOnTick => "node.on_tick",
            Kind::NodeCall => "node.call",
            Kind::HandlePacket => "processor.handle_packet",
            Kind::Tick => "processor.tick",
            Kind::Send => "processor.send",
            Kind::Drain => "processor.drain",
            Kind::Deliver => "deliver",
            Kind::OrbInvoke => "orb.invoke",
            Kind::OrbOnDelivery => "orb.on_delivery",
            Kind::StoreAppend => "store.append",
        }
    }

    /// A node turn: the time the simulator spends inside a host.
    pub fn is_node_turn(self) -> bool {
        matches!(self, Kind::NodeOnPacket | Kind::NodeOnTick | Kind::NodeCall)
    }
}

/// `(source processor, sequence number)`: the id a message's spans share.
pub type MsgId = (u32, u64);

pub fn sampled(id: MsgId) -> bool {
    id.1.is_multiple_of(SAMPLE_EVERY)
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    node: u32,
    msg: Option<MsgId>,
    start_ns: u64,
    end_ns: u64,
    virt_us: u64,
    parent: Option<u32>,
}

/// Totals per [`Kind`] over every call, kept or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStat {
    pub calls: u64,
    /// Time inside the call, children included.
    pub total_ns: u64,
    /// Time inside the call minus the part its child spans cover.
    pub self_ns: u64,
    /// Allocations made by the call itself (children's subtracted).
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
}

impl CallStat {
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// An open call: what its children have used so far.
#[derive(Default)]
struct Open {
    span: Option<usize>,
    child_ns: u64,
    child_allocs: u64,
    child_alloc_bytes: u64,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    open: Vec<Open>,
    /// The outermost open call tree touched a sampled message.
    keep: bool,
    full: bool,
    stats: [CallStat; Kind::ALL.len()],
}

/// Handed out by [`TraceSink::begin`], returned to [`TraceSink::end`].
pub struct Token {
    kind: Kind,
    started: Instant,
    allocs: (u64, u64),
}

/// Shared by every host of one run. A mutex rather than a `RefCell` because
/// the durable-log wrapper must be `Send`; the simulator is single-threaded,
/// so it is never contended.
pub struct TraceSink {
    on: bool,
    origin: Instant,
    inner: Mutex<Tracer>,
}

impl TraceSink {
    pub fn new(on: bool) -> TraceSink {
        let mut tracer = Tracer::default();
        if on {
            tracer.spans.reserve_exact(SPAN_CAP);
            tracer.open.reserve(16);
        }
        TraceSink {
            on,
            origin: Instant::now(),
            inner: Mutex::new(tracer),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tracer> {
        self.inner.lock().expect("no holder of the tracer panics")
    }

    /// Open a span. `None`, and no clock read, when tracing is off.
    pub fn begin(&self, kind: Kind, node: u32, virt: SimTime) -> Option<Token> {
        if !self.on {
            return None;
        }
        {
            let mut t = self.lock();
            if t.open.is_empty() && t.spans.len() + 64 > SPAN_CAP {
                t.full = true;
            }
            let span = (!t.full).then(|| {
                let parent = t.open.iter().rev().find_map(|o| o.span).map(|i| i as u32);
                t.spans.push(Span {
                    kind,
                    node,
                    msg: None,
                    start_ns: 0,
                    end_ns: 0,
                    virt_us: virt.as_micros(),
                    parent,
                });
                t.spans.len() - 1
            });
            t.open.push(Open {
                span,
                ..Open::default()
            });
        }
        // Clock last, so the bookkeeping above is outside the interval.
        Some(Token {
            kind,
            allocs: alloc_counts(),
            started: Instant::now(),
        })
    }

    /// Close the span opened by `token`, naming the message it served.
    pub fn end(&self, token: Option<Token>, msg: Option<MsgId>) {
        let Some(token) = token else {
            return;
        };
        let ended = Instant::now();
        let (allocs, alloc_bytes) = alloc_counts();
        let dt = ended.duration_since(token.started).as_nanos() as u64;
        let d_allocs = allocs - token.allocs.0;
        let d_bytes = alloc_bytes - token.allocs.1;
        let mut t = self.lock();
        let open = t.open.pop().expect("end matches a begin");
        let stat = &mut t.stats[token.kind as usize];
        stat.calls += 1;
        stat.total_ns += dt;
        stat.self_ns += dt.saturating_sub(open.child_ns);
        stat.self_allocs += d_allocs.saturating_sub(open.child_allocs);
        stat.self_alloc_bytes += d_bytes.saturating_sub(open.child_alloc_bytes);
        if let Some(parent) = t.open.last_mut() {
            parent.child_ns += dt;
            parent.child_allocs += d_allocs;
            parent.child_alloc_bytes += d_bytes;
        }
        if msg.is_some_and(sampled) {
            t.keep = true;
        }
        if let Some(i) = open.span {
            let s = &mut t.spans[i];
            s.msg = msg;
            s.start_ns = token.started.duration_since(self.origin).as_nanos() as u64;
            s.end_ns = ended.duration_since(self.origin).as_nanos() as u64;
            if t.open.is_empty() && !t.keep {
                // The whole tree is spans[i..]: nothing sampled, drop it.
                t.spans.truncate(i);
            }
        }
        if t.open.is_empty() {
            t.keep = false;
        }
    }

    /// Record an instant (an ordered delivery) inside the open call.
    pub fn instant(&self, kind: Kind, node: u32, virt: SimTime, msg: MsgId) {
        if self.on && sampled(msg) {
            let token = self.begin(kind, node, virt);
            self.end(token, Some(msg));
        }
    }

    pub fn stat(&self, kind: Kind) -> CallStat {
        self.lock().stats[kind as usize]
    }

    /// Forget the totals so far (warm-up); kept spans stay.
    pub fn reset_stats(&self) {
        self.lock().stats = Default::default();
    }

    pub fn spans_kept(&self) -> usize {
        self.lock().spans.len()
    }

    /// The kept spans as one JSON document (see BENCHMARK.md for the shape).
    pub fn to_json(&self, workload: &str) -> String {
        let t = self.lock();
        let mut j = String::with_capacity(t.spans.len() * 128 + 256);
        let _ = write!(
            j,
            "{{\"workload\":\"{workload}\",\"sample_every\":{SAMPLE_EVERY},\"truncated\":{},\"spans\":[",
            t.full
        );
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "\n{{\"id\":{i},\"name\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{},\"virt_us\":{}",
                s.kind.name(),
                s.node,
                s.start_ns,
                s.end_ns,
                s.virt_us
            );
            match s.msg {
                Some((src, seq)) => {
                    let _ = write!(j, ",\"msg\":[{src},{seq}]");
                }
                None => j.push_str(",\"msg\":null"),
            }
            match s.parent {
                Some(p) => {
                    let _ = write!(j, ",\"parent\":{p}}}");
                }
                None => j.push_str(",\"parent\":null}"),
            }
        }
        j.push_str("\n]}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_means_no_token_and_no_stats() {
        let sink = TraceSink::new(false);
        assert!(sink.begin(Kind::Tick, 1, SimTime::ZERO).is_none());
        sink.end(None, None);
        assert_eq!(sink.stat(Kind::Tick).calls, 0);
    }

    #[test]
    fn only_trees_touching_a_sampled_message_are_kept() {
        let sink = TraceSink::new(true);
        // Unsampled tree: counted, dropped.
        let outer = sink.begin(Kind::NodeOnPacket, 1, SimTime::ZERO);
        let inner = sink.begin(Kind::HandlePacket, 1, SimTime::ZERO);
        sink.end(inner, Some((2, 63)));
        sink.end(outer, None);
        assert_eq!(sink.spans_kept(), 0);
        // Sampled tree: parent and child both kept, child points at parent.
        let outer = sink.begin(Kind::NodeOnPacket, 1, SimTime::ZERO);
        let inner = sink.begin(Kind::HandlePacket, 1, SimTime::ZERO);
        sink.end(inner, Some((2, 64)));
        sink.instant(Kind::Deliver, 1, SimTime::ZERO, (2, 64));
        sink.end(outer, None);
        assert_eq!(sink.spans_kept(), 3);
        assert_eq!(sink.stat(Kind::HandlePacket).calls, 2);
        let json = sink.to_json("t");
        assert!(json.contains("\"name\":\"processor.handle_packet\""));
        assert!(json.contains("\"msg\":[2,64],\"parent\":0"));
    }

    #[test]
    fn self_time_excludes_children() {
        let sink = TraceSink::new(true);
        let outer = sink.begin(Kind::NodeOnTick, 1, SimTime::ZERO);
        let inner = sink.begin(Kind::Tick, 1, SimTime::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(5));
        sink.end(inner, None);
        sink.end(outer, None);
        let (o, i) = (sink.stat(Kind::NodeOnTick), sink.stat(Kind::Tick));
        assert!(i.self_ns >= 5_000_000);
        assert!(o.total_ns >= i.total_ns);
        assert!(o.self_ns < 5_000_000, "the sleep belongs to the child");
    }
}
