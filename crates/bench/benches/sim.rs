//! The simulator's own cost per event (DESIGN.md §2, "The simulator's
//! event core"): five nodes on one group, each multicasting on every tick,
//! every foreign copy answered once, so the queue holds ticks and fan-out
//! arrivals in the mix a protocol run gives it. The nodes do no work beyond
//! choosing a reply, and their payloads are static, so one iteration — one
//! `SimNet::step` — is the event core, fan-out and the latency and loss
//! draws, nothing else.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use ftmp_net::{
    LatencyModel, LossModel, McastAddr, NodeId, Outbox, Packet, SimConfig, SimDuration, SimNet,
    SimNode, SimTime,
};
use std::hint::black_box;

const NODES: u32 = 5;
const GROUP: McastAddr = McastAddr(1);
static PING: &[u8] = &[1, 0xAB, 0xAB, 0xAB];
static PONG: &[u8] = &[0, 0xCD, 0xCD, 0xCD];

struct Echo {
    id: NodeId,
}

impl SimNode for Echo {
    fn on_packet(&mut self, _now: SimTime, pkt: &Packet, out: &mut Outbox) {
        if pkt.payload[0] == 1 && pkt.src != self.id {
            out.send(Packet::new(self.id, GROUP, Bytes::from_static(PONG)));
        }
    }

    fn on_tick(&mut self, _now: SimTime, out: &mut Outbox) {
        out.send(Packet::new(self.id, GROUP, Bytes::from_static(PING)));
    }
}

/// The echo net after a warm-up, so the queue and the scratch buffers are
/// at their steady size.
fn echo_net(loss: LossModel) -> SimNet<Echo> {
    let cfg = SimConfig {
        latency: LatencyModel::lan(),
        loss,
        ..SimConfig::with_seed(7)
    };
    let mut net = SimNet::new(cfg);
    for id in 1..=NODES {
        net.add_node(id, Echo { id });
        net.subscribe(id, GROUP);
    }
    net.run_for(SimDuration::from_millis(50));
    net
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    let mut net = echo_net(LossModel::None);
    g.bench_function("echo_5_nodes_per_event", |b| {
        b.iter(|| black_box(net.step()))
    });
    let mut net = echo_net(LossModel::Iid { p: 0.02 });
    g.bench_function("echo_5_nodes_2pct_loss_per_event", |b| {
        b.iter(|| black_box(net.step()))
    });
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
