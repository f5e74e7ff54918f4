//! E11 — adaptive timers and ack-driven flow control under duress.
//!
//! Two stress scenarios:
//!
//! * **Spike** — a scheduled [`LinkDegrade`] window multiplies the latency
//!   samples (amplifying jitter, a congestion signature) and drops extra
//!   packets on everything processor 4 sends. Nobody crashes, so every
//!   `FaultReport` is a *false conviction*. The measured fail timeout
//!   stretches to track the observed heartbeat-interarrival envelope and
//!   rides the spike out.
//! * **Overload** — processor 1 floods while a lossy window starves
//!   processor 4, stalling its ack timestamp so stability (§6) cannot
//!   advance and the sender's retention buffer grows without bound. With
//!   [`FlowControl`] enabled, the ROMP send window closes at the high-water
//!   mark, admission is refused (counted), and peak occupancy stays bounded.

use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::processor::ProtocolEvent;
use ftmp_core::{ClockMode, FlowControl, ProcessorId, ProtocolConfig};
use ftmp_net::{LinkDegrade, LinkSelector, SimConfig, SimDuration, SimTime};
use std::collections::BTreeSet;

/// The processor whose outbound links degrade in the spike scenario, and
/// whose inbound links starve in the overload scenario.
const VICTIM: u32 = 4;

struct SpikeOut {
    false_convictions: usize,
    delivered: usize,
    recovery_ms: Option<u64>,
}

/// One spike run: 1 s warmup, 1 s degrade window on the victim's outbound
/// links, then a settle period measuring how fast delivery catches up.
fn spike_run(latency_factor: f64, extra_loss: f64) -> SpikeOut {
    const SENDS: usize = 100;
    let proto = ProtocolConfig::with_seed(0xE11).fail_timeout_of(SimDuration::from_millis(25));
    let degrade = LinkDegrade {
        from: SimTime(1_000_000),
        until: SimTime(2_000_000),
        links: LinkSelector::From(vec![VICTIM]),
        latency_factor,
        extra_loss,
    };
    let sim = SimConfig::with_seed(0xE11).degrade(degrade);
    let mut w = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
    // Light steady load from P1 through warmup and spike: 1 send / 20 ms.
    for _ in 0..SENDS {
        w.send(1, 64);
        w.run_ms(20);
    }
    // Settle after the spike, polling until every always-member (1..=3)
    // has delivered the full send sequence.
    let spike_end_us = 2_000_000u64;
    let mut delivered = [0usize; 3];
    let mut recovery_ms = None;
    for _ in 0..400 {
        for id in 1..=3u32 {
            if let Some(node) = w.net.node_mut(id) {
                delivered[(id - 1) as usize] += node.take_deliveries().len();
            }
        }
        if delivered.iter().all(|&d| d >= SENDS) {
            let now_us = w.net.now().as_micros();
            recovery_ms = Some(now_us.saturating_sub(spike_end_us) / 1_000);
            break;
        }
        w.run_ms(5);
    }
    // A conviction with zero crashes is false by construction; count the
    // distinct convicted processors seen anywhere.
    let mut convicted: BTreeSet<ProcessorId> = BTreeSet::new();
    for id in 1..=4u32 {
        if let Some(node) = w.net.node_mut(id) {
            for (_, e) in node.take_events() {
                if let ProtocolEvent::FaultReport { processor, .. } = e {
                    convicted.insert(processor);
                }
            }
        }
    }
    SpikeOut {
        false_convictions: convicted.len(),
        delivered: delivered[0],
        recovery_ms,
    }
}

struct OverloadOut {
    attempted: usize,
    peak_buf: usize,
    refused: u64,
    bp_closes: u64,
    delivered: usize,
}

/// One overload run: P1 floods (1 send / 2 ms) while a lossy window starves
/// the victim's inbound links, stalling its ack timestamp.
fn overload_run(fc: bool) -> OverloadOut {
    let mut proto = ProtocolConfig::with_seed(0xE11B);
    if fc {
        proto = proto.flow_control(FlowControl::window(48, 16));
    }
    let degrade = LinkDegrade::lossy(
        SimTime(300_000),
        SimTime(2_300_000),
        LinkSelector::To(vec![VICTIM]),
        0.9,
    );
    let sim = SimConfig::with_seed(0xE11B).degrade(degrade);
    let mut w = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
    w.run_ms(100);
    let mut peak_buf = 0usize;
    let mut attempted = 0usize;
    for _ in 0..2_000 {
        w.send(1, 128);
        attempted += 1;
        w.run_ms(1);
        let m = w
            .net
            .node(1)
            .unwrap()
            .engine()
            .group_metrics(w.group())
            .unwrap();
        peak_buf = peak_buf.max(m.retention_msgs);
    }
    // Degrade ends at 2.3 s; let the victim NACK its way back and acks
    // circulate.
    w.run_ms(2_500);
    let stats = w.net.node(1).unwrap().engine().stats();
    let refused = stats.sends_refused;
    let bp_closes = stats.backpressure_closes;
    let delivered = w
        .net
        .node_mut(1)
        .unwrap()
        .take_deliveries()
        .iter()
        .filter(|(_, d)| d.source == ProcessorId(1))
        .count();
    OverloadOut {
        attempted,
        peak_buf,
        refused,
        bp_closes,
        delivered,
    }
}

/// Run E11.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e11",
        "Latency spikes and overload: adaptive timers, flow control off vs on (4 members)",
        &[
            "scenario",
            "policy",
            "degrade",
            "false conv",
            "delivered",
            "recovery ms",
            "peak buf",
            "bp closes",
            "refused",
        ],
    );
    let spikes: &[(&str, f64, f64)] = &[
        ("lat x50", 50.0, 0.0),
        ("loss 40%", 1.0, 0.4),
        ("x50 + 40%", 50.0, 0.4),
    ];
    for &(label, factor, loss) in spikes {
        let o = spike_run(factor, loss);
        t.row(vec![
            "spike".into(),
            "adaptive".into(),
            label.into(),
            o.false_convictions.to_string(),
            o.delivered.to_string(),
            o.recovery_ms.map_or("-".into(), |m| m.to_string()),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    for fc in [false, true] {
        let o = overload_run(fc);
        t.row(vec![
            "overload".into(),
            if fc { "fc on" } else { "fc off" }.into(),
            "loss 90% to P4".into(),
            "0".into(),
            format!("{}/{}", o.delivered, o.attempted),
            "-".into(),
            o.peak_buf.to_string(),
            o.bp_closes.to_string(),
            o.refused.to_string(),
        ]);
    }
    t.note("nobody crashes in either scenario, so every FaultReport is a false conviction; adaptive timers stretch the fail timeout to the observed interarrival envelope (clamped at 8x) and stop evicting the healthy processor");
    t.note("overload: the victim's stalled ack timestamp blocks stability, so without flow control the sender's retention grows with the flood; with it the ROMP window closes at 48 held messages and admission is refused instead");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_adaptive_convicts_no_one_and_flow_control_bounds_buffers() {
        let tables = super::run();
        let rows = &tables[0].rows;
        // Rows 0..3: spike sweep, one per degrade setting.
        for row in &rows[..3] {
            assert_eq!(
                row[3], "0",
                "adaptive rides out every spike setting: {row:?}"
            );
        }
        // Rows 3..5: overload, fc off then fc on.
        let peak_off: usize = rows[3][6].parse().unwrap();
        let peak_on: usize = rows[4][6].parse().unwrap();
        assert!(
            peak_on < peak_off / 2,
            "flow control must bound occupancy (off {peak_off}, on {peak_on})"
        );
        assert!(rows[4][7].parse::<u64>().unwrap() >= 1, "window closed");
        assert!(rows[4][8].parse::<u64>().unwrap() > 0, "sends refused");
        assert_eq!(rows[3][8], "0", "no refusals without flow control");
    }
}
