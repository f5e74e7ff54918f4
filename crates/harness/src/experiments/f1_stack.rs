//! F1 — Figure 1: the protocol stack, verified dynamically.
//!
//! The paper's Figure 1 draws ROMP and PGMP side by side over RMP over IP
//! Multicast, with the ORB on top. This experiment runs a lossy three-member
//! group with application traffic, a voluntary membership change and a
//! crash, then reports — per FTMP message type — how much traffic flowed
//! and which layer consumed it, confirming the layering is real, not
//! nominal.

use crate::report::Table;
use ftmp_check::FtmpWorld;
use ftmp_core::wire::FtmpMsgType;
use ftmp_core::{ClockMode, Command, ProcessorId, ProtocolConfig};
use ftmp_net::{LossModel, SimConfig};

fn layer_of(t: FtmpMsgType) -> &'static str {
    match t {
        FtmpMsgType::Regular => "ROMP -> ORB (ordered delivery)",
        FtmpMsgType::RetransmitRequest => "RMP (NACK recovery)",
        FtmpMsgType::Heartbeat => "ROMP (liveness / horizons)",
        FtmpMsgType::ConnectRequest => "PGMP (connection solicit)",
        FtmpMsgType::Connect => "PGMP (connection establish)",
        FtmpMsgType::AddProcessor => "PGMP (voluntary join)",
        FtmpMsgType::RemoveProcessor => "PGMP (voluntary leave)",
        FtmpMsgType::Suspect => "PGMP (fault suspicion)",
        FtmpMsgType::Membership => "PGMP (membership change)",
        FtmpMsgType::OverlayDigest => "ROMP (tree-mode aggregated liveness)",
    }
}

/// Run F1.
pub fn run() -> Vec<Table> {
    let sim = SimConfig::with_seed(0xF1).loss(LossModel::Iid { p: 0.05 });
    let mut w = FtmpWorld::new(4, sim, ProtocolConfig::with_seed(0xF1), ClockMode::Lamport);
    // Application traffic.
    for k in 0..30 {
        w.send(k % 4 + 1, 128);
        w.run_ms(2);
    }
    // Voluntary removal of P4 by P1 (RemoveProcessor path).
    let remove = Command::RemoveMember(ProcessorId(4));
    w.net
        .with_node(1, |n, now, out| n.command(now, remove, out));
    w.run_ms(100);
    // Crash P3: the two remaining survivors reach the majority quorum
    // (2 of 3) and run the Suspect/Membership fault path.
    w.net.crash(3);
    w.run_ms(800);
    let res = w.collect();

    let mut t = Table::new(
        "f1",
        "Protocol stack in action (4 members, 5% loss, leave + crash)",
        &["FTMP type", "packets", "bytes", "consuming layer"],
    );
    for ty in FtmpMsgType::ALL {
        let p = w.net.stats().kind_packets(ty as u8);
        let b = w.net.stats().kind_bytes(ty as u8);
        t.row(vec![
            format!("{ty:?}"),
            p.to_string(),
            b.to_string(),
            layer_of(ty).to_string(),
        ]);
    }
    t.note(format!(
        "application deliveries at node 1: {}; all survivors agree on order: {}",
        res.delivered(),
        res.all_agree()
    ));
    t.note("Connect/ConnectRequest do not appear: this world binds its connection statically (F3 exercises them).");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_exercises_every_dynamic_layer() {
        let tables = run();
        let t = &tables[0];
        let count = |name: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].parse().unwrap())
                .unwrap_or(0)
        };
        assert!(count("Regular") >= 30);
        assert!(count("Heartbeat") > 0);
        assert!(count("RetransmitRequest") > 0, "5% loss must trigger NACKs");
        assert!(count("RemoveProcessor") >= 1);
        assert!(count("Suspect") >= 1);
        assert!(count("Membership") >= 1);
    }
}
