//! E8 — the price of replication: FTMP invocations vs plain unicast IIOP.
//!
//! The paper's motivation (§1) is adding fault tolerance to CORBA; the cost
//! is the multicast ordering machinery under every invocation. This
//! experiment measures end-to-end request → reply latency for replicated
//! configurations over FTMP against the unreplicated TCP-like IIOP
//! baseline, with and without loss — the comparison the Eternal papers
//! made for the same protocol family.

use crate::metrics::LatencyStats;
use crate::report::Table;
use ftmp_baselines::unicast::{UnicastClient, UnicastEndpoint, UnicastServer};
use ftmp_check::OrbWorld;
use ftmp_core::ProtocolConfig;
use ftmp_net::{LossModel, McastAddr, SimConfig, SimDuration, SimNet, SimTime};

const ROUNDS: usize = 40;

fn unicast_echo(req: &[u8]) -> Vec<u8> {
    req.to_vec()
}

fn run_unicast(loss: LossModel, seed: u64) -> (LatencyStats, usize) {
    let (ca, sa) = (McastAddr(10), McastAddr(11));
    let mut net: SimNet<UnicastEndpoint> = SimNet::new(SimConfig::with_seed(seed).loss(loss));
    net.add_node(1, UnicastEndpoint::Client(UnicastClient::new(1, ca, sa)));
    net.add_node(
        2,
        UnicastEndpoint::Server(UnicastServer::new(2, sa, ca, unicast_echo)),
    );
    net.subscribe(1, ca);
    net.subscribe(2, sa);
    let mut sent_at: Vec<SimTime> = Vec::new();
    let mut lats = Vec::new();
    let mut completed = 0usize;
    for i in 0..ROUNDS {
        let now = net.now();
        sent_at.push(now);
        net.with_node(1, |n, now, out| {
            if let UnicastEndpoint::Client(c) = n {
                c.request(now, bytes::Bytes::from(vec![i as u8; 64]), out);
            }
        });
        // Poll for the completion with fine granularity.
        for _ in 0..200 {
            net.run_for(SimDuration::from_micros(100));
            let done = net
                .with_node(1, |n, _, _| {
                    if let UnicastEndpoint::Client(c) = n {
                        c.take_completed()
                    } else {
                        vec![]
                    }
                })
                .unwrap();
            if !done.is_empty() {
                completed += done.len();
                lats.push(net.now().saturating_since(sent_at[i]).as_micros());
                break;
            }
        }
    }
    (LatencyStats::from_samples(&lats), completed)
}

fn run_replicated(k: u32, m: u32, loss: LossModel, seed: u64) -> (LatencyStats, usize) {
    let mut w = OrbWorld::new(
        k,
        m,
        SimConfig::with_seed(seed).loss(loss),
        ProtocolConfig::with_seed(seed).heartbeat(SimDuration::from_millis(2)),
        || Box::new(ftmp_orb::Counter::default()),
    );
    let mut lats = Vec::new();
    let mut completed = 0usize;
    for _ in 0..ROUNDS {
        w.invoke_all("add", 1);
        // Poll at fine granularity for the completion.
        for _ in 0..400 {
            w.net.run_for(SimDuration::from_micros(200));
            let (done, l) = w.drain_completions();
            if !done.is_empty() {
                completed += done.len();
                lats.extend(l);
                break;
            }
        }
    }
    (LatencyStats::from_samples(&lats), completed)
}

/// Run E8.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "e8",
        "End-to-end invocation latency: replicated FTMP vs unreplicated IIOP",
        &[
            "configuration",
            "loss",
            "mean RTT",
            "p99 RTT",
            "completed",
            "overhead vs IIOP",
        ],
    );
    for (loss, label) in [(LossModel::None, "0%"), (LossModel::Iid { p: 0.05 }, "5%")] {
        let (uni, uc) = run_unicast(loss.clone(), 0xE8);
        let base = uni.mean_us;
        t.row(vec![
            "IIOP 1 client -> 1 server".into(),
            label.into(),
            format!("{} ms", uni.mean_ms()),
            format!("{:.2} ms", uni.p99_us as f64 / 1000.0),
            format!("{uc}/{ROUNDS}"),
            "1.0x".into(),
        ]);
        for (k, m) in [(1u32, 2u32), (1, 3), (2, 3), (3, 3)] {
            let (rep, rc) = run_replicated(k, m, loss.clone(), 0xE8 + (k * 10 + m) as u64);
            t.row(vec![
                format!("FTMP {k} client x {m} server replicas"),
                label.into(),
                format!("{} ms", rep.mean_ms()),
                format!("{:.2} ms", rep.p99_us as f64 / 1000.0),
                format!("{rc}/{ROUNDS}"),
                format!("{:.1}x", rep.mean_us / base.max(1.0)),
            ]);
        }
    }
    t.note("the replicated RTT pays two ordered multicasts (request + reply), each waiting on group horizons; IIOP pays two one-way unicasts");
    t.note("under loss, IIOP stalls on its own retransmission timeout while FTMP's NACK path and replica redundancy absorb most losses");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_everything_completes() {
        let tables = super::run();
        let rendered = tables[0].render();
        for row in &tables[0].rows {
            assert_eq!(
                row[4],
                format!("{}/{}", super::ROUNDS, super::ROUNDS),
                "{rendered}"
            );
        }
    }
}
