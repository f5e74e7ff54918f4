//! The metrics view, pinned so it cannot drift silently (DESIGN.md §10).
//!
//! Every value below was printed by the commit *before* the telemetry
//! registry stopped re-counting what the engine counts — by
//! `run_cell_instrumented(scenario, 7, 60, 4096, None).1.to_json()`, the
//! sweep's default step count, where the partition lasts long enough for the
//! majority to convict P4 and P4 to leave — and copied here key by key.
//! Bit-equal is the requirement: a moved value is a changed count. Keys the
//! view has gained since (the six `ftmp_*` shell counts) are not pinned
//! here; `ftmp-core`'s `register_metrics_names_each_fact_once` lists them.
//!
//! The one exception is marked on its lines: `srtt_us` / `rttvar_us` in the
//! loss cell. `Registry::merge` used to leave a gauge at the last member's
//! reading, so the older commit printed P4's estimator alone (no sample: 0);
//! merge now takes the maximum and the cell reads its slowest member. No
//! member's own reading moved — `tests/event_tap.rs` pins those per member.
//!
//! The partition cell was re-pinned once since, when timers became always
//! measured: the NACK retry for a gap the partition holds open backs off
//! (8 ms doubling up to `fail_timeout`) instead of firing every 8 ms, so
//! the cell sends 87 RetransmitRequests, not 1149, and the counts and
//! latencies that follow from them moved with it. The loss cell held.
//!
//! Both cells were re-pinned when horizon on demand gained its prompt budget
//! (DESIGN.md §4): a member that holds delivery back and has banked a token
//! heartbeats inside the half interval, so the ordering latencies move. The
//! partition cell sends two more Heartbeats. In the loss cell the earlier
//! Heartbeats shift the random draws: one NACK fewer, and the RTT gauges and
//! recovery latencies that follow from it.
//!
//! Both were re-pinned again when NACK jitter became drawn once per gap
//! episode instead of once per receive window on every tick (DESIGN.md §4):
//! the random stream no longer follows the tick count, so the loss cell's
//! NACK times move (19 RetransmitRequests, not 15, and the repairs, RTT
//! gauge and latencies behind them), and the partition cell sends one more
//! datagram of kind 0x01, with the ordering latencies that follow.
//!
//! The loss cell was re-pinned once more when a Heartbeat that reveals a gap
//! became held until the gap fills, instead of dropped (DESIGN.md §4): its
//! horizon now advances on the repair, so deliveries come sooner (ordering
//! delay 1 033 190 → 996 010 µs in sum, its maximum 19 372 → 15 917 µs), and
//! one fewer data datagram is sent. The partition cell has no gap and did
//! not move.
//!
//! The loss cell was re-pinned again when a processor stopped answering,
//! and drawing the any-holder coin for, its own RetransmitRequests looped
//! back to it (DESIGN.md §4): the random stream moves, so the NACK times
//! and the repairs behind them move (18 RetransmitRequests, not 19, and
//! the RTT gauges, recovery and ordering latencies that follow). The
//! partition cell did not move.
//!
//! Both were re-pinned when every random draw became a keyed hash of what
//! it decides (`ftmp_net::draw`, DESIGN.md §2): each loss, latency, jitter
//! and coin is drawn afresh. The loss cell sends 19 RetransmitRequests, not
//! 18, and loses 351 copies, not 329; the partition cell keeps its 87
//! RetransmitRequests and its datagram counts, and its latencies move with
//! the new latency draws.
//!
//! The partition cell was re-pinned when a source that left the view
//! stopped being asked for what lies above its cut: all 87 of its
//! RetransmitRequests asked the convicted P4, still talking from the far
//! side, for its stream above the flush target, at every backoff. Now none
//! do, and the cell sends 87 fewer datagrams. The loss cell has no view
//! change and did not move.
//!
//! The loss cell was re-pinned when the first RetransmitRequest for a gap
//! moved one tick earlier (its window floored at the 1 ms clock
//! granularity, not 2 ms) and an answered repair that leaves a gap re-armed
//! it (DESIGN.md §4 "The first request"). The cell still sends 19
//! RetransmitRequests; the repairs come sooner (6 timed recoveries, mean
//! 2 655 → 2 076 µs) and 32 retransmissions answer them, not 26. What each
//! member sends moves each link's datagram ordinals, so the 353 losses (351
//! before) fall on other datagrams: 6 more Regular datagrams (the
//! retransmissions) and one more Heartbeat leave, and the ordering delay
//! reads 1 057 064 µs in sum, not 932 400 (its maximum 14 335 → 17 254 µs),
//! one seed's draw. The partition cell has no gap and did not move.
//!
//! The partition cell was re-pinned when a suspicion of silence became
//! withdrawn once the suspect is heard again (DESIGN.md §4, "Hardening
//! decisions"): after the heal a member hears across the former partition
//! and announces its smaller suspect set, one more Suspect datagram (kind
//! 0x07: 6, not 5). The 3 RetransmitRequests (kind 0x01) the cell sent are
//! no longer sent, a gap one message deep now opens at one member
//! (`gap_depth_peak` 1, not 0), and the cell sends 1077 datagrams, not
//! 1079. Its convictions, view changes, deliveries and latencies held. The
//! loss cell has no suspicion and did not move.

use ftmp_check::{run_cell_instrumented, Scenario};

/// Name and value; a histogram's seven are count, sum, mean, p50, p95, p99,
/// max.
struct Pinned {
    counters: &'static [(&'static str, u64)],
    gauges: &'static [(&'static str, i64)],
    histograms: &'static [(&'static str, [u64; 7])],
}

const IID_LOSS: Pinned = Pinned {
    counters: &[
        ("nacks_sent", 19),
        ("retransmissions_answered", 32),
        ("rtt_samples", 19),
        ("window_closes", 0),
        ("convictions", 0),
        ("view_changes", 0),
        ("deliveries", 240),
        ("packed_datagrams", 0),
        ("overlay_rebuilds", 0),
        ("overlay_digests_sent", 0),
        ("overlay_entries_merged", 0),
        ("overlay_repairs_neighborhood", 0),
        ("overlay_repairs_escalated", 0),
        ("overlay_solicits", 0),
        ("overlay_solicit_answers", 0),
        ("overlay_rescues", 0),
        ("sweep_observations", 7402),
        ("sweep_delivered", 240),
        ("sweep_violations", 0),
        ("net_sent_packets", 1445),
        ("net_sent_messages", 1445),
        ("net_delivered", 5427),
        ("net_lost", 353),
        ("net_partitioned", 0),
        ("net_to_crashed", 0),
        ("net_kind_0x00_packets", 92),
        ("net_kind_0x01_packets", 19),
        ("net_kind_0x02_packets", 1334),
    ],
    gauges: &[
        ("srtt_us", 694),   // the older commit read 0: P4's estimator alone
        ("rttvar_us", 223), // the older commit read 0: P4's estimator alone
        ("overlay_depth", 0),
        ("gap_depth_peak", 2),
        ("conviction_margin_permille", 0),
    ],
    histograms: &[
        ("rmp_recovery_us", [6, 12457, 2076, 2715, 2715, 2715, 2715]),
        (
            "ordering_delay_us",
            [240, 1057064, 4404, 4095, 16383, 16383, 17254],
        ),
        (
            "stability_lag_us",
            [240, 2092026, 8716, 8191, 16383, 23436, 23436],
        ),
        ("e2e_self_us", [60, 348225, 5803, 8191, 13741, 13741, 13741]),
        ("view_change_us", [0, 0, 0, 0, 0, 0, 0]),
        ("flow_stall_us", [0, 0, 0, 0, 0, 0, 0]),
        ("pack_msgs_per_datagram", [0, 0, 0, 0, 0, 0, 0]),
        ("nack_attempts", [19, 19, 1, 1, 1, 1, 1]),
        ("suspicion_margin_permille", [0, 0, 0, 0, 0, 0, 0]),
    ],
};

const PARTITION_HEAL: Pinned = Pinned {
    counters: &[
        ("nacks_sent", 0),
        ("retransmissions_answered", 0),
        ("rtt_samples", 0),
        ("window_closes", 0),
        ("convictions", 3),
        ("view_changes", 3),
        ("deliveries", 147),
        ("packed_datagrams", 0),
        ("overlay_rebuilds", 0),
        ("overlay_digests_sent", 0),
        ("overlay_entries_merged", 0),
        ("overlay_repairs_neighborhood", 0),
        ("overlay_repairs_escalated", 0),
        ("overlay_solicits", 0),
        ("overlay_solicit_answers", 0),
        ("overlay_rescues", 0),
        ("sweep_observations", 4798),
        ("sweep_delivered", 162),
        ("sweep_violations", 0),
        ("net_sent_packets", 1077),
        ("net_sent_messages", 1077),
        ("net_delivered", 3254),
        ("net_lost", 0),
        ("net_partitioned", 123),
        ("net_to_crashed", 0),
        ("net_kind_0x00_packets", 57),
        ("net_kind_0x02_packets", 1008),
        ("net_kind_0x07_packets", 6),
        ("net_kind_0x08_packets", 6),
    ],
    gauges: &[
        ("srtt_us", 0),
        ("rttvar_us", 0),
        ("overlay_depth", 0),
        ("gap_depth_peak", 1),
        ("conviction_margin_permille", 666),
    ],
    histograms: &[
        ("rmp_recovery_us", [0, 0, 0, 0, 0, 0, 0]),
        (
            "ordering_delay_us",
            [147, 3790104, 25783, 8191, 122019, 122019, 122019],
        ),
        (
            "stability_lag_us",
            [147, 1240832, 8441, 8191, 16383, 121650, 121650],
        ),
        (
            "e2e_self_us",
            [47, 1272713, 27079, 8191, 122019, 122019, 122019],
        ),
        ("view_change_us", [3, 1324, 441, 685, 685, 685, 685]),
        ("flow_stall_us", [0, 0, 0, 0, 0, 0, 0]),
        ("pack_msgs_per_datagram", [0, 0, 0, 0, 0, 0, 0]),
        ("nack_attempts", [0, 0, 0, 0, 0, 0, 0]),
        ("suspicion_margin_permille", [0, 0, 0, 0, 0, 0, 0]),
    ],
};

fn assert_pinned(scenario: Scenario, want: &Pinned) {
    let (verdict, snap) = run_cell_instrumented(scenario, 7, 60, 4096, None);
    assert_eq!(verdict.violations, 0);
    let cell = scenario.name();
    for &(name, v) in want.counters {
        assert_eq!(snap.counter(name), Some(v), "{cell}: counter {name}");
    }
    for &(name, v) in want.gauges {
        assert_eq!(snap.gauge(name), Some(v), "{cell}: gauge {name}");
    }
    for &(name, v) in want.histograms {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{cell}: {name}"));
        let got = [h.count, h.sum, h.mean, h.p50, h.p95, h.p99, h.max];
        assert_eq!(got, v, "{cell}: histogram {name}");
    }
}

#[test]
fn the_loss_cell_reads_what_it_read_before() {
    assert_pinned(Scenario::IidLoss, &IID_LOSS);
}

#[test]
fn the_partition_cell_reads_what_it_read_before() {
    assert_pinned(Scenario::PartitionHeal, &PARTITION_HEAL);
}
