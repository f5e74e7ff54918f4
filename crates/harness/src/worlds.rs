//! The baselines' simulation world the experiments sweep over, beside
//! `ftmp-check`'s [`FtmpWorld`](ftmp_check::FtmpWorld) and
//! [`OrbWorld`](ftmp_check::OrbWorld).

use bytes::Bytes;
use ftmp_baselines::TotalOrderNode;
use ftmp_check::RunResults;
use ftmp_net::{McastAddr, NodeId, SimConfig, SimDuration, SimNet, SimNode};
use std::collections::HashMap;

/// A baseline total-order world, generic over the engine.
pub struct BaselineWorld<N: SimNode + TotalOrderNode> {
    /// The simulator.
    pub net: SimNet<N>,
    /// Member count.
    pub n: u32,
    send_times: HashMap<(u32, u64), u64>,
}

impl<N: SimNode + TotalOrderNode> BaselineWorld<N> {
    /// Build with a per-node constructor `(id, members) -> engine`; every
    /// node subscribes to `addr`.
    pub fn new_with(
        n: u32,
        sim_cfg: SimConfig,
        addr: McastAddr,
        make: impl Fn(NodeId, Vec<NodeId>) -> N,
    ) -> Self {
        let members: Vec<NodeId> = (1..=n).collect();
        let mut net = SimNet::new(sim_cfg);
        for id in 1..=n {
            net.add_node(id, make(id, members.clone()));
            net.subscribe(id, addr);
        }
        BaselineWorld {
            net,
            n,
            send_times: HashMap::new(),
        }
    }

    /// Submit a payload at `from`.
    pub fn submit(&mut self, from: u32, payload_len: usize) {
        let now_us = self.net.now().as_micros();
        let payload = Bytes::from(vec![0xCD; payload_len]);
        let local = self
            .net
            .with_node(from, move |node, _, _| node.submit(payload))
            .expect("node exists");
        self.send_times.insert((from, local), now_us);
    }

    /// Advance virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        self.net.run_for(SimDuration::from_millis(ms));
    }

    /// Drain results. Baseline engines do not timestamp deliveries, so the
    /// latency sample uses the drain sweep's granularity: call this often
    /// (the experiments drain every millisecond).
    pub fn collect(&mut self) -> RunResults {
        let now_us = self.net.now().as_micros();
        let mut res = RunResults::default();
        for id in 1..=self.n {
            let Some(node) = self.net.node_mut(id) else {
                continue;
            };
            let mut seq = Vec::new();
            for d in node.take_delivered() {
                seq.push((d.global_seq, d.source, d.local_seq));
                if let Some(sent) = self.send_times.get(&(d.source, d.local_seq)) {
                    res.latencies_us.push(now_us.saturating_sub(*sent));
                }
            }
            res.sequences.push(seq);
        }
        res
    }

    /// Run for `total_ms`, draining every `drain_every_ms` to keep latency
    /// sampling granularity tight; merges all drains.
    pub fn run_collect(&mut self, total_ms: u64, drain_every_ms: u64) -> RunResults {
        let mut merged = RunResults {
            sequences: vec![Vec::new(); self.n as usize],
            latencies_us: Vec::new(),
        };
        let steps = total_ms / drain_every_ms.max(1);
        for _ in 0..steps {
            self.run_ms(drain_every_ms.max(1));
            let part = self.collect();
            for (i, s) in part.sequences.into_iter().enumerate() {
                merged.sequences[i].extend(s);
            }
            merged.latencies_us.extend(part.latencies_us);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmp_baselines::sequencer::{SequencerConfig, SequencerNode};

    #[test]
    fn baseline_world_round_trip() {
        let addr = McastAddr(1);
        let mut w = BaselineWorld::new_with(3, SimConfig::with_seed(2), addr, |id, members| {
            SequencerNode::new(id, SequencerConfig::new(addr, members))
        });
        w.submit(1, 64);
        w.submit(3, 64);
        let res = w.run_collect(100, 1);
        assert_eq!(res.sequences[0].len(), 2);
        assert!(res.all_agree());
    }
}
