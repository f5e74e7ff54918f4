//! E7 — duplicate detection and suppression across replicas (§4).
//!
//! k client replicas all multicast each request with the same
//! `(connection id, request number)`; m server replicas all multicast the
//! matching reply. Every endpoint therefore receives k copies of each
//! request and m copies of each reply, and the pair-based detector must
//! suppress all but the first. The grid measures the suppression counts
//! and verifies exactly-once execution.

use crate::report::Table;
use ftmp_check::OrbWorld;
use ftmp_core::ProtocolConfig;
use ftmp_net::SimConfig;
use ftmp_orb::Counter;

/// Run E7.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e7",
        "Duplicate suppression: k client replicas x m server replicas, 25 invocations",
        &[
            "k x m",
            "req copies rx/server",
            "req suppressed (total)",
            "reply suppressed (client 1)",
            "executed once",
            "client completions",
        ],
    );
    for &(k, m) in &[(1u32, 1u32), (1, 3), (2, 2), (3, 1), (3, 3), (4, 4)] {
        let seed = 0xE7 + (k * 10 + m) as u64;
        let mut w = OrbWorld::new(
            k,
            m,
            SimConfig::with_seed(seed),
            ProtocolConfig::with_seed(seed),
            || Box::new(Counter::default()),
        );
        let rounds = 25i64;
        for _ in 0..rounds {
            w.invoke_all("add", 1);
            w.run_ms(30);
        }
        w.run_ms(300);
        let (done, _) = w.drain_completions();
        // Exactly-once execution: every server's counter equals rounds.
        let exec_ok = w
            .servers
            .iter()
            .all(|&id| w.state::<Counter>(id).value() == rounds);
        let req_sup = w.server_suppressed();
        let reply_sup = w
            .net
            .node(w.clients[0])
            .unwrap()
            .orb()
            .suppression_counts()
            .1;
        t.row(vec![
            format!("{k} x {m}"),
            k.to_string(),
            req_sup.to_string(),
            reply_sup.to_string(),
            if exec_ok {
                "PASS".into()
            } else {
                "FAIL".into()
            },
            format!("{}/{rounds}", done.len()),
        ]);
    }
    t.note("expected request suppressions = (k-1) x rounds x m servers; reply suppressions at one client = (m-1) x rounds");
    t.note("suppression cost is a set probe per delivery; the win is that any single replica of either side suffices for progress");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_exactly_once_everywhere() {
        let tables = super::run();
        let rendered = tables[0].render();
        assert!(!rendered.contains("FAIL"), "{rendered}");
        // The (3,3) row: 2 suppressed per server per round x 3 servers x 25.
        let row = tables[0].rows.iter().find(|r| r[0] == "3 x 3").unwrap();
        assert_eq!(row[2], (2 * 3 * 25).to_string());
        assert_eq!(row[3], (2 * 25).to_string());
        assert_eq!(row[5], "25/25");
    }
}
