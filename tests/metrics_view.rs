//! Integration: one count, two read-outs. `stats().retransmissions_sent` is
//! "everything this member re-sent": the RetransmitRequests RMP answered
//! from retention (`layer_totals().rmp.retransmits_answered`, the one place
//! those are counted) plus the exclusion notices PGMP's shell re-sent to a
//! processor still talking to a group that removed it. The difference of
//! the two read-outs is exactly those notices — some in a partition that
//! heals, none under plain loss.

use ftmp::check::FtmpWorld;
use ftmp::core::{ClockMode, ProtocolConfig};
use ftmp::net::{LossModel, SimConfig};

/// Per member: (retransmissions sent, RetransmitRequests answered,
/// exclusion notices re-sent).
fn resends(w: &FtmpWorld) -> Vec<(u64, u64, u64)> {
    (1..=w.n)
        .map(|id| {
            let engine = w.net.node(id).unwrap().engine();
            let stats = engine.stats();
            (
                stats.retransmissions_sent,
                engine.layer_totals().rmp.retransmits_answered,
                stats.exclusion_notices_sent,
            )
        })
        .collect()
}

#[test]
fn a_healed_partition_resends_exclusion_notices_and_nothing_else_differs() {
    let mut w = FtmpWorld::new(
        5,
        SimConfig::with_seed(67),
        ProtocolConfig::with_seed(67),
        ClockMode::Lamport,
    );
    w.run_ms(20);
    w.net.partition(vec![vec![1, 2, 3], vec![4, 5]]);
    w.run_ms(2_000);
    w.net.heal();
    w.run_ms(3_000);
    let resends = resends(&w);
    for (i, &(sent, answered, notices)) in resends.iter().enumerate() {
        assert_eq!(sent - answered, notices, "P{}", i + 1);
    }
    let notices: u64 = resends[..3].iter().map(|r| r.2).sum();
    assert!(
        notices > 0,
        "the majority told the healed minority: {resends:?}"
    );
    assert_eq!(resends[3].2 + resends[4].2, 0, "the excluded notify no one");
}

#[test]
fn under_plain_loss_every_retransmission_is_an_answered_request() {
    let sim = SimConfig::with_seed(23).loss(LossModel::Iid { p: 0.05 });
    let mut w = FtmpWorld::new(4, sim, ProtocolConfig::with_seed(23), ClockMode::Lamport);
    for step in 0..120u64 {
        w.send((step % 4) as u32 + 1, 64);
        w.run_ms(1);
    }
    w.run_ms(300);
    let resends = resends(&w);
    for (i, &(sent, answered, notices)) in resends.iter().enumerate() {
        assert_eq!((sent - answered, notices), (0, 0), "P{}", i + 1);
    }
    assert!(resends.iter().any(|r| r.0 > 0), "loss was repaired");
}
