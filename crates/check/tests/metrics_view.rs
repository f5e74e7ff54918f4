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
        ("nacks_sent", 16),
        ("retransmissions_answered", 23),
        ("rtt_samples", 12),
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
        ("sweep_observations", 7412),
        ("sweep_delivered", 240),
        ("sweep_violations", 0),
        ("net_sent_packets", 1435),
        ("net_sent_messages", 1435),
        ("net_delivered", 5410),
        ("net_lost", 326),
        ("net_partitioned", 0),
        ("net_to_crashed", 0),
        ("net_kind_0x00_packets", 83),
        ("net_kind_0x01_packets", 16),
        ("net_kind_0x02_packets", 1336),
    ],
    gauges: &[
        ("srtt_us", 695),   // the older commit read 0: P4's estimator alone
        ("rttvar_us", 276), // the older commit read 0: P4's estimator alone
        ("overlay_depth", 0),
        ("gap_depth_peak", 1),
        ("conviction_margin_permille", 0),
    ],
    histograms: &[
        (
            "rmp_recovery_us",
            [5, 23482, 4696, 4095, 11233, 11233, 11233],
        ),
        (
            "ordering_delay_us",
            [240, 1006469, 4193, 4095, 16383, 24245, 24245],
        ),
        (
            "stability_lag_us",
            [240, 2081066, 8671, 8191, 28920, 28920, 28920],
        ),
        ("e2e_self_us", [60, 338501, 5641, 8191, 16383, 21644, 21644]),
        ("view_change_us", [0, 0, 0, 0, 0, 0, 0]),
        ("flow_stall_us", [0, 0, 0, 0, 0, 0, 0]),
        ("pack_msgs_per_datagram", [0, 0, 0, 0, 0, 0, 0]),
        ("nack_attempts", [16, 18, 1, 1, 2, 2, 2]),
        ("suspicion_margin_permille", [0, 0, 0, 0, 0, 0, 0]),
    ],
};

const PARTITION_HEAL: Pinned = Pinned {
    counters: &[
        ("nacks_sent", 1149),
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
        ("sweep_observations", 9384),
        ("sweep_delivered", 162),
        ("sweep_violations", 0),
        ("net_sent_packets", 2224),
        ("net_sent_messages", 2224),
        ("net_delivered", 6696),
        ("net_lost", 0),
        ("net_partitioned", 123),
        ("net_to_crashed", 0),
        ("net_kind_0x00_packets", 57),
        ("net_kind_0x01_packets", 1151),
        ("net_kind_0x02_packets", 1005),
        ("net_kind_0x07_packets", 5),
        ("net_kind_0x08_packets", 6),
    ],
    gauges: &[
        ("srtt_us", 0),
        ("rttvar_us", 0),
        ("overlay_depth", 0),
        ("gap_depth_peak", 0),
        ("conviction_margin_permille", 666),
    ],
    histograms: &[
        ("rmp_recovery_us", [0, 0, 0, 0, 0, 0, 0]),
        (
            "ordering_delay_us",
            [147, 3765336, 25614, 4095, 121968, 121968, 121968],
        ),
        (
            "stability_lag_us",
            [147, 1188072, 8082, 8191, 16383, 121599, 121599],
        ),
        (
            "e2e_self_us",
            [47, 1263378, 26880, 8191, 121968, 121968, 121968],
        ),
        ("view_change_us", [3, 1302, 434, 481, 481, 481, 481]),
        ("flow_stall_us", [0, 0, 0, 0, 0, 0, 0]),
        ("pack_msgs_per_datagram", [0, 0, 0, 0, 0, 0, 0]),
        ("nack_attempts", [1149, 220608, 192, 255, 383, 383, 383]),
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
