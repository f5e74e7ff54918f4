//! E12 — datagram packing and ack piggybacking (DESIGN.md §5).
//!
//! Two questions about the [`Packing`] layer, both answered against the
//! identical workload with packing off:
//!
//! * **Load sweep** — three members, one rotating sender bursting small
//!   (64 B) messages. With `PackPolicy::Deadline(500 µs)` the packer holds
//!   each burst for up to half a tick and flushes one container per
//!   destination, so the datagram count on the wire should collapse as the
//!   burst size grows — while the delivered sequences stay identical and
//!   totally ordered.
//! * **Quiet-group suppression** — one slow sender (one message / 60 ms)
//!   against the default 10 ms heartbeat. Every flushed container carries
//!   the ack-timestamp vector as a trailer, so a standalone heartbeat whose
//!   only job is restating an unchanged ack is deferred (§5 safety rule:
//!   never longer than half the fail timeout). Heartbeat traffic should at
//!   least halve; nobody may be falsely convicted.

use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::processor::ProtocolEvent;
use ftmp_core::{ClockMode, FtmpMsgType, PackPolicy, Packing, ProtocolConfig};
use ftmp_net::{SimConfig, SimDuration};

/// Deadline-policy packing at an Ethernet-ish MTU: the configuration every
/// "packed" row uses.
fn packing_on() -> Packing {
    Packing::with(1400, PackPolicy::Deadline(SimDuration::from_micros(500)))
}

struct RunOut {
    sends: usize,
    delivered: usize,
    /// Total order held *and* no FaultReport fired anywhere.
    healthy: bool,
    datagrams: u64,
    messages: u64,
    mean_us: u64,
    p99_us: u64,
    heartbeats: u64,
    suppressed: u64,
}

fn mean(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.iter().sum::<u64>() / samples.len() as u64
}

fn p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) * 99 / 100]
}

/// Drain the world's counters into a [`RunOut`] after a finished run.
fn collect(w: &mut FtmpWorld, sends: usize) -> RunOut {
    let res = w.collect();
    let mut faults = 0usize;
    let mut heartbeats = 0u64;
    let mut suppressed = 0u64;
    for id in 1..=w.n {
        if let Some(node) = w.net.node_mut(id) {
            faults += node
                .take_events()
                .iter()
                .filter(|(_, e)| matches!(e, ProtocolEvent::FaultReport { .. }))
                .count();
            let s = node.engine().stats();
            heartbeats += s.sent_of(FtmpMsgType::Heartbeat);
            suppressed += s.heartbeats_suppressed;
        }
    }
    RunOut {
        sends,
        delivered: res.delivered(),
        healthy: res.all_agree() && faults == 0,
        datagrams: w.net.stats().sent_packets,
        messages: w.net.stats().sent_messages,
        mean_us: mean(&res.latencies_us),
        p99_us: p99(&res.latencies_us),
        heartbeats,
        suppressed,
    }
}

/// One load-sweep run: 30 rounds, each a burst of `burst` 64-byte sends
/// from a rotating sender followed by 2 ms of simulated time.
fn load_run(burst: usize, packing: Option<Packing>) -> RunOut {
    const ROUNDS: u32 = 30;
    let mut proto = ProtocolConfig::with_seed(0xE12);
    if let Some(p) = packing {
        proto = proto.packing(p);
    }
    let mut w = FtmpWorld::new(3, SimConfig::with_seed(0xE12), proto, ClockMode::Lamport);
    for round in 0..ROUNDS {
        let from = round % 3 + 1;
        for _ in 0..burst {
            w.send(from, 64);
        }
        w.run_us(2_000);
    }
    w.run_ms(100);
    collect(&mut w, ROUNDS as usize * burst)
}

/// One suppression run: P1 sends a 64-byte message every 60 ms — six
/// default heartbeat intervals of silence between data messages.
fn sparse_run(packing: Option<Packing>) -> RunOut {
    const SENDS: usize = 50;
    let mut proto = ProtocolConfig::with_seed(0xE12B);
    if let Some(p) = packing {
        proto = proto.packing(p);
    }
    let mut w = FtmpWorld::new(3, SimConfig::with_seed(0xE12B), proto, ClockMode::Lamport);
    for _ in 0..SENDS {
        w.send(1, 64);
        w.run_ms(60);
    }
    w.run_ms(200);
    collect(&mut w, SENDS)
}

fn push(t: &mut Table, scenario: &str, mode: &str, load: &str, o: &RunOut) {
    let density = if o.datagrams == 0 {
        0.0
    } else {
        o.messages as f64 / o.datagrams as f64
    };
    t.row(vec![
        scenario.into(),
        mode.into(),
        load.into(),
        o.sends.to_string(),
        o.delivered.to_string(),
        if o.healthy { "yes" } else { "NO" }.into(),
        o.datagrams.to_string(),
        o.messages.to_string(),
        format!("{density:.2}"),
        o.mean_us.to_string(),
        o.p99_us.to_string(),
        o.heartbeats.to_string(),
        o.suppressed.to_string(),
    ]);
}

/// Run E12.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e12",
        "Datagram packing and ack piggybacking: packed (MTU 1400, deadline 500 us) vs unpacked (3 members)",
        &[
            "scenario",
            "mode",
            "load",
            "sends",
            "delivered",
            "healthy",
            "datagrams",
            "messages",
            "msgs/dgram",
            "mean us",
            "p99 us",
            "heartbeats",
            "suppressed",
        ],
    );
    for burst in [1usize, 4, 8] {
        let load = format!("burst {burst}");
        push(&mut t, "load", "unpacked", &load, &load_run(burst, None));
        push(
            &mut t,
            "load",
            "packed",
            &load,
            &load_run(burst, Some(packing_on())),
        );
    }
    push(&mut t, "sparse", "unpacked", "1 / 60 ms", &sparse_run(None));
    push(
        &mut t,
        "sparse",
        "packed",
        "1 / 60 ms",
        &sparse_run(Some(packing_on())),
    );
    t.note("datagrams = packets on the wire, messages = FTMP messages inside them (a container counts once as a packet, N times as messages); packing never changes what is delivered, only how it is framed");
    t.note("sparse: a heartbeat restating an unchanged ack is deferred while recent containers carried the ack vector, capped at fail_timeout/2 — suppressed counts deferral windows, heartbeats counts what still went out");
    vec![t]
}

#[cfg(test)]
mod tests {
    /// The ISSUE acceptance criteria for E12, asserted against the same
    /// table the report prints.
    #[test]
    fn e12_packing_halves_datagrams_and_suppresses_heartbeats() {
        let tables = super::run();
        let rows = &tables[0].rows;
        // Every run, packed or not, keeps total order and full membership.
        for r in rows {
            assert_eq!(r[5], "yes", "unhealthy run: {r:?}");
        }
        // Rows 0..6: load sweep, (unpacked, packed) per burst size. Packing
        // must never change the delivered count, and at burst >= 4 (the
        // small-message load point) must at least halve the datagrams.
        for pair in rows[..6].chunks(2) {
            assert_eq!(pair[0][4], pair[1][4], "delivery changed: {pair:?}");
            let unpacked: u64 = pair[0][6].parse().unwrap();
            let packed: u64 = pair[1][6].parse().unwrap();
            assert!(packed <= unpacked, "packing added datagrams: {pair:?}");
            if pair[0][2] != "burst 1" {
                assert!(
                    packed * 2 <= unpacked,
                    "expected >= 2x datagram reduction at {}: {unpacked} vs {packed}",
                    pair[0][2]
                );
            }
        }
        // Rows 6..8: sparse sender, unpacked then packed. Piggybacked ack
        // vectors must suppress at least half the standalone heartbeats.
        let hb_unpacked: u64 = rows[6][11].parse().unwrap();
        let hb_packed: u64 = rows[7][11].parse().unwrap();
        assert!(
            hb_packed * 2 <= hb_unpacked,
            "expected >= 50% heartbeat suppression: {hb_unpacked} vs {hb_packed}"
        );
        assert!(
            rows[7][12].parse::<u64>().unwrap() > 0,
            "suppression counter never fired"
        );
        assert_eq!(rows[6][4], rows[7][4], "sparse delivery changed");
    }
}
