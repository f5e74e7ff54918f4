//! E5 — fault → suspicion → conviction → new membership (§7.2).
//!
//! A member crash-stops; the survivors' fault detectors fire after
//! `fail_timeout`, Suspect messages accumulate a majority, Membership
//! proposals reconcile the message sets, and a new membership installs.
//! This sweep measures the reconfiguration time (crash → MembershipChange
//! at the last survivor) and the ordering stall it causes, across group
//! sizes and detector timeouts.

use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::{ClockMode, ProtocolConfig, ProtocolEvent};
use ftmp_net::{SimConfig, SimDuration};

struct Outcome {
    reconfig_ms: f64,
    stall_ms: f64,
    survivors_agree: bool,
    layers: ftmp_core::processor::LayerCounters,
}

fn run_one(n: u32, fail_timeout_ms: u64, seed: u64) -> Outcome {
    let proto = ProtocolConfig::with_seed(seed)
        .heartbeat(SimDuration::from_millis(5))
        .fail_timeout_of(SimDuration::from_millis(fail_timeout_ms));
    let mut w = FtmpWorld::new(n, SimConfig::with_seed(seed), proto, ClockMode::Lamport);
    // Background load so the stall is visible.
    for _ in 0..20 {
        for id in 1..=n {
            w.send(id, 64);
        }
        w.run_ms(5);
    }
    w.run_ms(100);
    let _ = w.collect();
    let crash_at = w.net.now();
    w.net.crash(n); // highest id dies
                    // Keep load flowing from survivors.
    for _ in 0..200 {
        w.send(1, 64);
        w.run_ms(5);
    }
    w.run_ms((4 * fail_timeout_ms).max(1_000));
    // Reconfiguration time: the last survivor's MembershipChange event.
    let mut done_at = None;
    for id in 1..n {
        let evs = w.net.node_mut(id).unwrap().take_events();
        for (at, e) in evs {
            if let ProtocolEvent::MembershipChange { members, .. } = &e {
                if members.len() == (n - 1) as usize {
                    let t = at.saturating_since(crash_at).as_micros();
                    done_at = Some(done_at.map_or(t, |d: u64| d.max(t)));
                }
            }
        }
    }
    let res = w.collect();
    // Ordering stall: the largest gap between consecutive deliveries at
    // node 1 in the post-crash window.
    let stall = res.latencies_us.iter().copied().max().unwrap_or(0);
    Outcome {
        reconfig_ms: done_at.map_or(f64::NAN, |us| us as f64 / 1000.0),
        stall_ms: stall as f64 / 1000.0,
        survivors_agree: res.all_agree(),
        layers: w.layer_totals(),
    }
}

/// Run E5.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e5",
        "Reconfiguration after a crash: detection + reconciliation time",
        &[
            "members",
            "fail timeout",
            "reconfig time (ms)",
            "max delivery stall (ms)",
            "survivors agree",
            "suspect rx",
            "proposals rx",
            "convictions",
            "reconfigs",
            "flush discards",
        ],
    );
    for &n in &[3u32, 5, 7, 9] {
        for &ft in &[50u64, 100, 200] {
            let o = run_one(n, ft, 0xE5 + n as u64 + ft);
            t.row(vec![
                n.to_string(),
                format!("{ft} ms"),
                format!("{:.1}", o.reconfig_ms),
                format!("{:.1}", o.stall_ms),
                if o.survivors_agree {
                    "PASS".into()
                } else {
                    "FAIL".into()
                },
                o.layers.pgmp.suspect_reports_in.to_string(),
                o.layers.pgmp.proposals_in.to_string(),
                o.layers.pgmp.convictions.to_string(),
                o.layers.pgmp.reconfigurations.to_string(),
                o.layers.romp.discarded_at_flush.to_string(),
            ]);
        }
    }
    t.note("reconfig time = crash -> last survivor installs the (n-1)-membership; dominated by fail_timeout, plus a few ms of Suspect/Membership exchange");
    t.note("ordering stalls while the dead member gates the horizons, then the flush releases the backlog (virtual synchrony)");
    t.note("PGMP columns sum the survivors' per-layer counters: suspect/proposal traffic in, quorum convictions and installed reconfigurations");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_reconfig_tracks_fail_timeout() {
        let tables = super::run();
        let rows = &tables[0].rows;
        assert!(!tables[0].render().contains("FAIL"));
        // For 3 members: reconfig at 200 ms timeout takes longer than at 50.
        let val = |i: usize| -> f64 { rows[i][2].parse().unwrap() };
        assert!(val(2) > val(0), "200 ms timeout slower than 50 ms");
        // And reconfig time must exceed the timeout itself.
        for (i, &ft) in [50.0f64, 100.0, 200.0].iter().enumerate() {
            assert!(val(i) >= ft, "row {i}: {} < {ft}", val(i));
        }
    }
}
