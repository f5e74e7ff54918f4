//! Integration: virtual synchrony — survivors of a membership change have
//! delivered exactly the same messages, whatever the crash timing.
//!
//! Agreement, ordering and flush-atomicity are asserted by the `ftmp-check`
//! oracle suite; the test bodies keep the membership-state and protocol-
//! event assertions the oracles cannot see.

use ftmp::core::{ClockMode, ProtocolConfig, ProtocolEvent};
use ftmp::harness::worlds::FtmpWorld;
use ftmp::net::{LossModel, SimConfig};

/// Crash one member mid-traffic at a seed-dependent moment; assert the
/// survivors' delivery sequences are identical and the membership change
/// installed everywhere.
fn crash_scenario(seed: u64, n: u32, loss: f64, crash_after_ms: u64) {
    let sim = SimConfig::with_seed(seed).loss(if loss > 0.0 {
        LossModel::Iid { p: loss }
    } else {
        LossModel::None
    });
    let mut w = FtmpWorld::new(n, sim, ProtocolConfig::with_seed(seed), ClockMode::Lamport);
    let checker = w.attach_checker();
    let victim = n; // highest id crashes
    let mut sent = 0u64;
    for step in 0..crash_after_ms {
        let id = (step % n as u64) as u32 + 1;
        w.send(id, 64);
        sent += 1;
        w.run_ms(1);
    }
    w.net.crash(victim);
    checker.retire(victim);
    // Survivors keep sending through the reconfiguration.
    for step in 0..40u64 {
        let id = (step % (n as u64 - 1)) as u32 + 1;
        w.send(id, 64);
        sent += 1;
        w.run_ms(5);
    }
    w.run_ms(2_000);
    // The oracle suite holds the survivors to agreement, gap-freedom and a
    // consistent virtual-synchrony flush at the view change.
    checker.finish(w.live());
    checker.assert_clean(&format!("crash_scenario seed {seed}"));
    let res = w.collect();
    // Survivors must have everything the survivors sent; the victim's
    // unacknowledged tail may legitimately be absent, but whatever *is*
    // delivered from it is delivered by all (total-order oracle above).
    let survivor_msgs = res.sequences[0]
        .iter()
        .filter(|&&(_, src, _)| src != victim)
        .count() as u64;
    let survivor_sent = sent
        - (0..crash_after_ms)
            .filter(|s| (s % n as u64) + 1 == victim as u64)
            .count() as u64;
    assert_eq!(
        survivor_msgs, survivor_sent,
        "seed {seed}: survivor messages lost"
    );
    // Membership change installed at every survivor.
    for id in 1..n {
        let members = w
            .net
            .node(id)
            .unwrap()
            .engine()
            .membership(w.group())
            .unwrap();
        assert_eq!(
            members.len(),
            (n - 1) as usize,
            "seed {seed}: P{id} membership"
        );
        let evs = w.net.node_mut(id).unwrap().take_events();
        assert!(
            evs.iter()
                .any(|(_, e)| matches!(e, ProtocolEvent::FaultReport { .. })),
            "seed {seed}: P{id} no fault report"
        );
    }
}

#[test]
fn virtual_synchrony_across_crash_timings() {
    for (seed, after) in [(1u64, 5u64), (2, 13), (3, 27), (4, 40)] {
        crash_scenario(seed, 4, 0.0, after);
    }
}

#[test]
fn virtual_synchrony_under_loss() {
    for (seed, after) in [(10u64, 9u64), (11, 21), (12, 33)] {
        crash_scenario(seed, 4, 0.08, after);
    }
}

#[test]
fn virtual_synchrony_larger_group() {
    crash_scenario(77, 7, 0.05, 20);
}

#[test]
fn two_sequential_crashes() {
    let seed = 55u64;
    let mut w = FtmpWorld::new(
        5,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    let checker = w.attach_checker();
    for k in 0..20u64 {
        w.send((k % 5) as u32 + 1, 64);
        w.run_ms(2);
    }
    w.net.crash(5);
    checker.retire(5);
    w.run_ms(1_000);
    for k in 0..10u64 {
        w.send((k % 4) as u32 + 1, 64);
        w.run_ms(2);
    }
    w.net.crash(4);
    checker.retire(4);
    w.run_ms(1_500);
    checker.finish(w.live());
    checker.assert_clean("two_sequential_crashes");
    for id in 1..=3u32 {
        assert_eq!(
            w.net
                .node(id)
                .unwrap()
                .engine()
                .membership(w.group())
                .unwrap()
                .len(),
            3,
            "P{id} sees the 3-member group"
        );
    }
}

#[test]
fn majority_partition_makes_progress_and_minority_stalls() {
    let seed = 66u64;
    let mut w = FtmpWorld::new(
        5,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    let checker = w.attach_checker();
    w.run_ms(20);
    let _ = w.collect();
    // Partition {1,2,3} | {4,5}. The stalled minority is retired from the
    // oracles' convergence duties; everything it *does* deliver is still
    // order-checked.
    w.net.partition(vec![vec![1, 2, 3], vec![4, 5]]);
    checker.retire(4);
    checker.retire(5);
    w.run_ms(2_000);
    // Majority side convicts 4 and 5 and resumes.
    for id in 1..=3u32 {
        let members = w
            .net
            .node(id)
            .unwrap()
            .engine()
            .membership(w.group())
            .unwrap();
        assert_eq!(members.len(), 3, "majority side reconfigured at P{id}");
    }
    // Minority side cannot reach the conviction quorum (3 of 5): it stays
    // in the old membership (possibly still reconfiguring), stalled.
    for id in 4..=5u32 {
        let members = w
            .net
            .node(id)
            .unwrap()
            .engine()
            .membership(w.group())
            .unwrap();
        assert_eq!(
            members.len(),
            5,
            "minority side must not install a split-brain membership at P{id}"
        );
    }
    // Progress on the majority side only.
    w.send(1, 64);
    w.send(4, 64);
    w.run_ms(500);
    checker.finish([1, 2, 3]);
    checker.assert_clean("majority partition");
    let res = w.collect();
    // sequences: nodes 1..5 in id order; majority delivered its message.
    assert!(res.sequences[0].iter().any(|&(_, src, _)| src == 1));
    assert!(
        !res.sequences[3].iter().any(|&(_, src, _)| src == 4),
        "minority must not deliver new messages while stalled"
    );
}

#[test]
fn healed_minority_learns_of_its_exclusion_and_leaves() {
    let seed = 67u64;
    let mut w = FtmpWorld::new(
        5,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    let checker = w.attach_checker();
    w.run_ms(20);
    w.net.partition(vec![vec![1, 2, 3], vec![4, 5]]);
    checker.retire(4);
    checker.retire(5);
    w.run_ms(2_000);
    for id in 1..=3u32 {
        assert_eq!(
            w.net
                .node(id)
                .unwrap()
                .engine()
                .membership(w.group())
                .unwrap()
                .len(),
            3
        );
    }
    // Heal: the excluded members hear the majority's Membership proposals
    // (or post-change Suspect state) naming a membership without them, and
    // leave the group rather than split-brain.
    w.net.heal();
    w.run_ms(3_000);
    for id in 4..=5u32 {
        let membership = w.net.node(id).unwrap().engine().membership(w.group());
        assert!(
            membership.is_none(),
            "P{id} must leave after learning of its exclusion, got {membership:?}"
        );
        let evs = w.net.node_mut(id).unwrap().take_events();
        assert!(
            evs.iter()
                .any(|(_, e)| matches!(e, ProtocolEvent::LeftGroup { .. })),
            "P{id} raised LeftGroup"
        );
    }
    // The majority is unaffected and still makes progress.
    w.send(1, 64);
    w.run_ms(200);
    checker.finish([1, 2, 3]);
    checker.assert_clean("healed minority exclusion");
    let res = w.collect();
    assert!(res.sequences[0].iter().any(|&(_, src, _)| src == 1));
}

/// Regression: `layer_totals()` summed only the groups a processor still
/// belonged to, and leaving dropped the group with its three layers'
/// counters — so a member excluded during a partition reported zero RMP /
/// ROMP / PGMP totals from the moment it learned of it, while `stats()`
/// kept counting, and any reader differencing two readings underflowed.
#[test]
fn an_excluded_member_keeps_its_layer_totals() {
    let seed = 67u64;
    let mut w = FtmpWorld::new(
        5,
        SimConfig::with_seed(seed),
        ProtocolConfig::with_seed(seed),
        ClockMode::Lamport,
    );
    for round in 0..20u32 {
        w.send(round % 5 + 1, 64);
        w.run_ms(1);
    }
    w.net.partition(vec![vec![1, 2, 3], vec![4, 5]]);
    w.run_ms(2_000);
    let totals = |w: &FtmpWorld, id| w.net.node(id).unwrap().engine().layer_totals();
    let before = [totals(&w, 4), totals(&w, 5)];
    w.net.heal();
    w.run_ms(3_000);
    for (id, before) in [(4u32, before[0]), (5, before[1])] {
        let engine = w.net.node(id).unwrap().engine();
        assert!(engine.membership(w.group()).is_none(), "P{id} left");
        let after = engine.layer_totals();
        assert!(before.rmp.msgs_in > 0 && before.romp.delivered > 0);
        assert!(
            after.rmp.msgs_in >= before.rmp.msgs_in,
            "P{id} forgot what RMP took in: {} then {}",
            before.rmp.msgs_in,
            after.rmp.msgs_in
        );
        assert!(after.romp.delivered >= before.romp.delivered);
        assert!(after.romp.queue_high_water >= before.romp.queue_high_water);
        assert!(after.pgmp.suspect_reports_in >= before.pgmp.suspect_reports_in);
        // What `stats()` reads from the layers went through the same door.
        assert_eq!(engine.stats().duplicates, after.rmp.duplicates);
    }
}
