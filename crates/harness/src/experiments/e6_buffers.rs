//! E6 — buffer management by ack timestamps (§6).
//!
//! "The ROMP layer at a processor determines when the processor no longer
//! needs to retain a message in its buffer … ROMP then recovers the buffer
//! space." Retention is reclaimed once every member's reported ack
//! timestamp passes a message. This sweep samples retention-buffer
//! occupancy under load, varying the heartbeat interval (acks ride on
//! heartbeats when traffic is one-sided) and the loss rate (loss delays
//! stability).

use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig, SimDuration};

struct Occupancy {
    peak_msgs: usize,
    peak_bytes: usize,
    final_msgs: usize,
    mean_msgs: f64,
}

fn run_one(hb_ms: u64, loss: f64) -> Occupancy {
    let proto = ProtocolConfig::with_seed(0xE6).heartbeat(SimDuration::from_millis(hb_ms));
    let sim = SimConfig::with_seed(0xE6).loss(if loss > 0.0 {
        LossModel::Iid { p: loss }
    } else {
        LossModel::None
    });
    let mut w = FtmpWorld::new(4, sim, proto, ClockMode::Lamport);
    let mut peak_msgs = 0usize;
    let mut peak_bytes = 0usize;
    let mut sum = 0usize;
    let mut samples = 0usize;
    // One-sided load: node 1 sends 200 messages; others only heartbeat.
    for _ in 0..200 {
        w.send(1, 256);
        w.run_ms(1);
        let m = w
            .net
            .node(1)
            .unwrap()
            .engine()
            .group_metrics(w.group())
            .unwrap();
        peak_msgs = peak_msgs.max(m.retention_msgs);
        peak_bytes = peak_bytes.max(m.retention_bytes);
        sum += m.retention_msgs;
        samples += 1;
    }
    // Quiesce: stability should reclaim (almost) everything.
    w.run_ms(2_000);
    let m = w
        .net
        .node(1)
        .unwrap()
        .engine()
        .group_metrics(w.group())
        .unwrap();
    Occupancy {
        peak_msgs,
        peak_bytes,
        final_msgs: m.retention_msgs,
        mean_msgs: sum as f64 / samples as f64,
    }
}

/// Run E6.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e6",
        "Retention-buffer occupancy under the ack-timestamp reclamation rule (200 msgs, 1 sender)",
        &[
            "hb interval",
            "loss",
            "peak msgs",
            "peak KiB",
            "mean msgs",
            "after quiesce",
        ],
    );
    for &hb in &[2u64, 10, 50] {
        for &loss in &[0.0, 0.05] {
            let o = run_one(hb, loss);
            t.row(vec![
                format!("{hb} ms"),
                format!("{:.0}%", loss * 100.0),
                o.peak_msgs.to_string(),
                format!("{:.1}", o.peak_bytes as f64 / 1024.0),
                format!("{:.1}", o.mean_msgs),
                o.final_msgs.to_string(),
            ]);
        }
    }
    t.note("faster heartbeats circulate acks sooner: stability advances, occupancy falls; loss stretches the tail because stability waits for the slowest member");
    t.note("'after quiesce' shows the rule converging — only the newest unstable messages remain");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_reclamation_works_and_tracks_heartbeats() {
        let tables = super::run();
        let rows = &tables[0].rows;
        let peak = |i: usize| -> usize { rows[i][2].parse().unwrap() };
        let fin = |i: usize| -> usize { rows[i][5].parse().unwrap() };
        // Quiescence reclaims nearly everything at every setting.
        for i in 0..rows.len() {
            assert!(fin(i) <= peak(i));
            assert!(fin(i) < 20, "row {i}: residual {}", fin(i));
        }
        // Slower heartbeats (50 ms, no loss) hold more than fast (2 ms).
        assert!(
            peak(4) > peak(0),
            "50 ms hb peak {} should exceed 2 ms hb peak {}",
            peak(4),
            peak(0)
        );
    }
}
