//! Integration: replicated CORBA invocations through the whole stack —
//! connection establishment, exactly-once execution, loss, crashes.

use ftmp::core::ProtocolConfig;
use ftmp::harness::worlds::OrbWorld;
use ftmp::net::{LossModel, SimConfig};
use ftmp::orb::servant::decode_i64_result;
use ftmp::orb::InvocationResult;

fn counter() -> Box<dyn ftmp::orb::Servant> {
    Box::new(ftmp::orb::Counter::default())
}

fn counter_value(w: &OrbWorld, id: u32) -> i64 {
    let snap = w
        .net
        .node(id)
        .unwrap()
        .orb()
        .servant(w.conn().server)
        .unwrap()
        .snapshot();
    decode_i64_result(&snap).unwrap()
}

#[test]
fn hundred_invocations_exactly_once() {
    let mut w = OrbWorld::new(
        2,
        3,
        SimConfig::with_seed(1),
        ProtocolConfig::with_seed(1),
        counter,
    );
    for _ in 0..100 {
        w.invoke_all("add", 1);
        w.run_ms(10);
    }
    w.run_ms(500);
    let (done, lats) = w.drain_completions();
    assert_eq!(done.len(), 100);
    assert_eq!(lats.len(), 100);
    for id in w.servers.clone() {
        assert_eq!(
            counter_value(&w, id),
            100,
            "server P{id} executed each op once"
        );
    }
    // 1 duplicate per server per invocation (2 clients).
    assert_eq!(w.server_suppressed(), 100 * 3);
}

#[test]
fn invocations_under_heavy_loss() {
    let mut w = OrbWorld::new(
        2,
        2,
        SimConfig::with_seed(2).loss(LossModel::Iid { p: 0.2 }),
        ProtocolConfig::with_seed(2),
        counter,
    );
    for _ in 0..30 {
        w.invoke_all("add", 2);
        w.run_ms(40);
    }
    w.run_ms(2_000);
    let (done, _) = w.drain_completions();
    assert_eq!(done.len(), 30);
    for id in w.servers.clone() {
        assert_eq!(counter_value(&w, id), 60);
    }
}

#[test]
fn results_identical_across_client_replicas() {
    let mut w = OrbWorld::new(
        3,
        3,
        SimConfig::with_seed(3),
        ProtocolConfig::with_seed(3),
        counter,
    );
    for _ in 0..10 {
        w.invoke_all("add", 5);
        w.run_ms(20);
    }
    w.run_ms(300);
    // Every client replica completed the same set with the same results.
    let mut views = Vec::new();
    for id in w.clients.clone() {
        let completions = w.net.node_mut(id).unwrap().take_completions();
        let view: Vec<(u64, Option<i64>)> = completions
            .iter()
            .map(|c| {
                let v = match &c.result {
                    InvocationResult::Ok(b) => decode_i64_result(b),
                    InvocationResult::Exception(_) | InvocationResult::Located { .. } => None,
                };
                (c.request_num.0, v)
            })
            .collect();
        views.push(view);
    }
    assert_eq!(views[0].len(), 10);
    assert_eq!(views[0], views[1]);
    assert_eq!(views[1], views[2]);
    assert_eq!(views[0].last().unwrap().1, Some(50));
}

#[test]
fn server_crash_mid_stream_preserves_exactly_once() {
    let mut w = OrbWorld::new(
        1,
        3,
        SimConfig::with_seed(4),
        ProtocolConfig::with_seed(4),
        counter,
    );
    for _ in 0..10 {
        w.invoke_all("add", 1);
        w.run_ms(15);
    }
    let victim = *w.servers.last().unwrap();
    w.net.crash(victim);
    // Keep invoking while the survivors reconfigure.
    for _ in 0..10 {
        w.invoke_all("add", 1);
        w.run_ms(60);
    }
    w.run_ms(2_000);
    let (done, _) = w.drain_completions();
    assert_eq!(
        done.len(),
        20,
        "all invocations completed despite the crash"
    );
    for id in w.servers.clone() {
        if id == victim {
            continue;
        }
        assert_eq!(counter_value(&w, id), 20, "survivor P{id} state");
    }
}

#[test]
fn client_replica_crash_is_transparent_to_the_service() {
    let mut w = OrbWorld::new(
        3,
        2,
        SimConfig::with_seed(5),
        ProtocolConfig::with_seed(5),
        counter,
    );
    for _ in 0..5 {
        w.invoke_all("add", 1);
        w.run_ms(20);
    }
    // One client replica dies; the duplicates from the others keep the
    // requests flowing.
    let victim = *w.clients.last().unwrap();
    w.net.crash(victim);
    w.run_ms(1_000);
    for _ in 0..5 {
        // Only the surviving clients invoke now.
        let conn = w.conn();
        for &id in &w.clients.clone() {
            if id == victim {
                continue;
            }
            w.net.with_node(id, move |node, now, out| {
                node.invoke(
                    now,
                    conn,
                    b"obj",
                    "add",
                    &ftmp::orb::servant::encode_i64_arg(1),
                    out,
                );
            });
        }
        w.run_ms(60);
    }
    w.run_ms(1_000);
    for id in w.servers.clone() {
        assert_eq!(
            counter_value(&w, id),
            10,
            "server P{id} applied all 10 adds once"
        );
    }
}

/// Drive the benchmark's `sim-orb-invoke` shape — 2 client × 3 server
/// replicas, each client keeping 16 invocations outstanding and issuing the
/// next the instant one completes — for `virtual_ms`, and return client 1's
/// `(completed at µs, latency µs)` per invocation.
fn closed_loop(seed: u64, proto: ProtocolConfig, virtual_ms: u64) -> Vec<(u64, u64)> {
    const OUTSTANDING: usize = 16;
    let mut w = OrbWorld::new(2, 3, SimConfig::with_seed(seed), proto, counter);
    let conn = w.conn();
    let invoke = |w: &mut OrbWorld, id: u32| -> u64 {
        w.net
            .with_node(id, move |node, now, out| {
                let arg = ftmp::orb::servant::encode_i64_arg(1);
                node.invoke(now, conn, b"obj", "add", &arg, out)
            })
            .expect("client exists")
            .0
    };
    let mut started = std::collections::HashMap::new();
    let begin = w.net.now().as_micros();
    for id in w.clients.clone() {
        for _ in 0..OUTSTANDING {
            let num = invoke(&mut w, id);
            started.insert((id, num), begin);
        }
    }
    let mut latencies = Vec::new();
    while let Some(now) = w.net.step() {
        let now = now.as_micros();
        if now > begin + virtual_ms * 1_000 {
            break;
        }
        for id in w.clients.clone() {
            for c in w.net.node_mut(id).unwrap().take_completions() {
                let at = started.remove(&(id, c.request_num.0)).expect("invoked");
                if id == w.clients[0] {
                    latencies.push((now - begin, now - at));
                }
                let num = invoke(&mut w, id);
                started.insert((id, num), now);
            }
        }
    }
    latencies
}

/// The seeds on which the benchmark's `sim-orb-invoke` closed loop was seen
/// to fall from one heartbeat interval per invocation into two
/// (benchmark/BENCHMARK.md, "What the driver's first check found").
const LOCKING_SEEDS: [u64; 2] = [1004, 1006];

/// With the timer-only heartbeat a closed-loop invocation costs a whole
/// heartbeat interval (request hold φ, reply hold 10 ms − φ, plus transit);
/// with horizon on demand the servers answer the requests at once and the
/// clients the replies at the half interval, so every invocation completes
/// inside one interval.
#[test]
fn closed_loop_invocations_complete_within_one_heartbeat_interval() {
    let interval = ProtocolConfig::default().heartbeat_interval.as_micros();
    for seed in LOCKING_SEEDS {
        let warm = |l: Vec<(u64, u64)>| -> Vec<u64> {
            let lat: Vec<u64> = l.iter().filter(|x| x.0 > 200_000).map(|x| x.1).collect();
            assert!(
                lat.len() > 1_000,
                "seed {seed}: the loop ran ({})",
                lat.len()
            );
            lat
        };
        let prompted = warm(closed_loop(seed, ProtocolConfig::with_seed(seed), 2_000));
        let slowest = prompted.iter().max().unwrap();
        assert!(
            *slowest < interval,
            "seed {seed}: an invocation took {slowest} us under the default config"
        );
        let timer_only = ProtocolConfig::with_seed(seed).prompt_horizon(false);
        let fastest = *warm(closed_loop(seed, timer_only, 2_000))
            .iter()
            .min()
            .unwrap();
        assert!(
            fastest > interval,
            "seed {seed}: timer-only heartbeats completed an invocation in {fastest} us"
        );
    }
}

/// The bug the benchmark found, pinned: left to the timer, the loop drifts
/// until the servers' heartbeat leaves just before the requests arrive, and
/// from then on every invocation waits out two intervals — on seed 1006
/// after 30.7 s of virtual time, for good. Horizon on demand has no timer
/// phase to drift into. Half a minute of virtual time is too slow for the
/// debug-mode tier-1 run; `just chaos` and CI's chaos job run it in release.
#[test]
#[ignore = "35 s of virtual time: run in release (`just chaos`)"]
fn closed_loop_does_not_lock_into_two_heartbeat_intervals() {
    let interval = ProtocolConfig::default().heartbeat_interval.as_micros();
    let seed = 1006;
    let tail = |l: &[(u64, u64)]| -> Vec<u64> {
        l.iter().filter(|x| x.0 > 33_000_000).map(|x| x.1).collect()
    };
    let timer_only = ProtocolConfig::with_seed(seed).prompt_horizon(false);
    let locked = tail(&closed_loop(seed, timer_only, 35_000));
    assert!(
        !locked.is_empty() && locked.iter().all(|&l| l > interval * 3 / 2),
        "seed {seed}: the timer-only loop no longer locks (fastest {:?} us)",
        locked.iter().min()
    );
    let prompted = closed_loop(seed, ProtocolConfig::with_seed(seed), 35_000);
    let slowest = prompted.iter().filter(|x| x.0 > 200_000).map(|x| x.1).max();
    assert!(
        slowest.is_some_and(|l| l < interval),
        "seed {seed}: slowest invocation {slowest:?} us under the default config"
    );
}
