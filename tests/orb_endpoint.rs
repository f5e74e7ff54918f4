//! Integration: the ORB endpoint on its own — ordered deliveries fed by
//! hand, no simulator — where what is checked is request/reply matching
//! per logical connection (§4), and the log behind it: a checkpoint plus a
//! bounded suffix, and the replica activation it feeds (§7.2).

use ftmp::core::{
    ConnectionId, Delivery, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use ftmp::orb::log::{LogEntry, LogKind, CHECKPOINT_ENTRIES};
use ftmp::orb::servant::{decode_i64_result, encode_i64_arg};
use ftmp::orb::{Counter, InvocationResult, OrbEndpoint, OutboundMsg, Transfer};
use ftmp::telemetry::Registry;

fn conn(i: u32) -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, i), ObjectGroupId::new(2, 7))
}

fn server() -> OrbEndpoint {
    let mut e = OrbEndpoint::new();
    e.host_replica(
        ObjectGroupId::new(2, 7),
        b"obj",
        Box::new(Counter::default()),
    );
    e
}

fn client(conns: impl IntoIterator<Item = ConnectionId>) -> OrbEndpoint {
    let mut e = OrbEndpoint::new();
    conns.into_iter().for_each(|c| e.register_client(c));
    e
}

/// `m` as the ordered delivery of the copy that replica `source` multicast.
fn delivered(m: &OutboundMsg, source: u32, ts: u64) -> Delivery {
    Delivery {
        group: GroupId(1),
        conn: m.conn,
        request_num: m.request_num,
        source: ProcessorId(source),
        seq: SeqNum(ts),
        ts: Timestamp(ts),
        giop: m.giop.clone(),
    }
}

/// A client replica that takes a burst of ordered deliveries meets reply
/// *N* — produced for its sibling's copy of request *N* — before it has
/// issued *N* itself. The reply is matched on the connection, whichever
/// replica's copy of the request produced it, so the later invocation
/// completes at once; at the parent of this test it pended forever.
#[test]
fn a_reply_that_overtakes_its_invocation_completes_it() {
    let c = conn(1);
    let (mut ahead, mut behind, mut srv) = (client([c]), client([c]), server());
    let num = ahead.invoke(c, b"obj", "add", &encode_i64_arg(5));
    let request = ahead.drain_outbound().remove(0);
    srv.on_delivery(&delivered(&request, 1, 10));
    let reply = srv.drain_outbound().remove(0);

    // The whole exchange reaches the lagging replica before it invokes:
    // its sibling's request, then each of three server replicas' replies.
    behind.on_delivery(&delivered(&request, 1, 10));
    for (source, ts) in [(3, 11), (4, 12), (5, 13)] {
        behind.on_delivery(&delivered(&reply, source, ts));
    }
    assert!(behind.drain_completions().is_empty(), "nothing invoked yet");

    assert_eq!(behind.invoke(c, b"obj", "add", &encode_i64_arg(5)), num);
    let done = behind.drain_completions();
    assert_eq!(done.len(), 1, "the invocation met its reply");
    assert_eq!((done[0].conn, done[0].request_num), (c, num));
    match &done[0].result {
        InvocationResult::Ok(bytes) => assert_eq!(decode_i64_result(bytes), Some(5)),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(behind.pending_count(), 0);
    assert!(
        behind.drain_outbound().is_empty(),
        "request N is already ordered; no second copy goes out"
    );
    assert_eq!(
        behind.suppression_counts(),
        (0, 2),
        "one reply in three was fresh"
    );

    // The next number is an ordinary invocation again.
    let next = behind.invoke(c, b"obj", "add", &encode_i64_arg(1));
    assert_eq!(next, RequestNum(num.0 + 1));
    assert_eq!(
        (behind.pending_count(), behind.drain_outbound().len()),
        (1, 1)
    );
    assert!(behind.drain_completions().is_empty());
}

/// Ten thousand logical connections through one client and one server
/// endpoint, three copies of every request and of every reply: each
/// invocation executes once and completes once, on its own connection.
#[test]
fn ten_thousand_connections_complete_exactly_once_each() {
    const N: u32 = 10_000;
    let (mut cli, mut srv) = (client((0..N).map(conn)), server());
    let mut ts = 0;
    let mut thrice = |to: &mut OrbEndpoint, m: &OutboundMsg, sources: [u32; 3]| {
        for source in sources {
            ts += 1;
            to.on_delivery(&delivered(m, source, ts));
        }
    };
    for i in 0..N {
        assert_eq!(
            cli.invoke(conn(i), b"obj", "add", &encode_i64_arg(1)),
            RequestNum(1),
            "numbering is per connection"
        );
    }
    assert_eq!(cli.pending_count(), N as usize);
    for request in cli.drain_outbound() {
        thrice(&mut srv, &request, [1, 2, 3]);
    }
    let replies = srv.drain_outbound();
    assert_eq!(replies.len(), N as usize, "one execution per connection");
    for reply in &replies {
        thrice(&mut cli, reply, [4, 5, 6]);
    }
    let done = cli.drain_completions();
    assert_eq!(done.len(), N as usize);
    let mut conns: Vec<ConnectionId> = done.iter().map(|d| d.conn).collect();
    conns.sort();
    conns.dedup();
    assert_eq!(conns.len(), N as usize, "one completion per connection");
    assert_eq!(cli.pending_count(), 0);
    let n = u64::from(N);
    assert_eq!(srv.suppression_counts(), (2 * n, 0));
    assert_eq!(cli.suppression_counts(), (0, 2 * n));
    assert_eq!(cli.dup_evictions() + srv.dup_evictions(), 0);
    let value = decode_i64_result(&srv.servant(ObjectGroupId::new(2, 7)).unwrap().snapshot());
    assert_eq!(value, Some(i64::from(N)));
}

fn og() -> ObjectGroupId {
    ObjectGroupId::new(2, 7)
}

/// The counter value of the servant `e` hosts.
fn value(e: &OrbEndpoint) -> Option<i64> {
    decode_i64_result(&e.servant(og())?.snapshot())
}

/// `n` invocations by the client `eps[0]` on `c`, each in one total order
/// at every endpoint of `eps`: two client replicas' copies of the request
/// (sources 1 and 2), then three server replicas' copies of the reply
/// (sources 3 to 5). Returns the deliveries.
fn exchange(eps: &mut [&mut OrbEndpoint], c: ConnectionId, ts: &mut u64, n: u64) -> Vec<Delivery> {
    let mut fed = Vec::new();
    for _ in 0..n {
        eps[0].invoke(c, b"obj", "add", &encode_i64_arg(1));
        let request = eps[0].drain_outbound().remove(0);
        let mut reply = None;
        for source in [1, 2] {
            *ts += 1;
            fed.push(delivered(&request, source, *ts));
            for e in eps.iter_mut() {
                e.on_delivery(fed.last().unwrap());
                reply = reply.or(e.drain_outbound().pop());
            }
        }
        let reply = reply.expect("a server replica answered");
        for source in [3, 4, 5] {
            *ts += 1;
            fed.push(delivered(&reply, source, *ts));
            for e in eps.iter_mut() {
                e.on_delivery(fed.last().unwrap());
            }
        }
    }
    fed
}

/// Replies held for `c` to numbers the client has not issued past `issued`.
fn unissued_replies(e: &OrbEndpoint, c: ConnectionId, issued: u64) -> usize {
    e.log
        .entries(c)
        .iter()
        .filter(|x| x.kind == LogKind::Reply && x.request_num.0 > issued)
        .count()
}

/// A replica activated from a donor's snapshot knows what the donor had
/// executed there, so a late copy of an old request — a lagging client
/// replica's, ordered after the join — is suppressed at the replacement as
/// at the donor. At the parent of this test the replacement's detector
/// started at 0, executed the copy and ended one ahead of the donor.
#[test]
fn a_replica_activated_from_a_snapshot_suppresses_what_the_donor_executed() {
    let c = conn(1);
    let (mut cli, mut donor) = (client([c]), server());
    cli.invoke(c, b"obj", "add", &encode_i64_arg(1));
    let request = cli.drain_outbound().remove(0);
    donor.on_delivery(&delivered(&request, 1, 10));

    let snapshot = donor.checkpoint(c);
    let replay = donor.log.transfer(c, snapshot.ts);
    assert!(replay.checkpoint.is_none() && replay.entries.is_empty());
    let mut replacement = OrbEndpoint::new();
    replacement.activate_replica(
        og(),
        b"obj",
        Box::new(Counter::default()),
        c,
        [Transfer::from(snapshot), replay],
    );

    for e in [&mut donor, &mut replacement] {
        e.on_delivery(&delivered(&request, 2, 20));
    }
    assert_eq!(value(&donor), Some(1));
    assert_eq!(value(&replacement), value(&donor), "both counters agree");
    assert_eq!(replacement.suppression_counts(), (1, 0));
}

/// 100 000 deliveries at a client, a server and an endpoint that only
/// observes the connection: each log is a checkpoint plus at most
/// `CHECKPOINT_ENTRIES` entries (no client here has an unissued reply), and
/// the registry reads the same figures out.
#[test]
fn the_log_is_a_checkpoint_plus_a_bounded_suffix() {
    let c = conn(1);
    let (mut cli, mut srv, mut obs) = (client([c]), server(), OrbEndpoint::new());
    let mut ts = 0;
    let invocations = 100_000 / 5;
    for issued in 1..=invocations {
        exchange(&mut [&mut cli, &mut srv, &mut obs], c, &mut ts, 1);
        for e in [&cli, &srv, &obs] {
            assert!(e.log.entries(c).len() <= CHECKPOINT_ENTRIES + unissued_replies(e, c, issued));
        }
    }
    assert_eq!(ts, 100_000);
    assert_eq!(cli.drain_completions().len(), invocations as usize);
    assert_eq!(value(&srv), Some(invocations as i64));
    for e in [&cli, &srv, &obs] {
        let checkpoints = e.log.checkpoints();
        assert_eq!(checkpoints, 100_000 / CHECKPOINT_ENTRIES as u64);
        let (peak, peak_bytes) = e.log.peak();
        assert!(peak <= CHECKPOINT_ENTRIES, "{peak}");
        let cp = e.log.checkpoint(c).expect("checkpointed");
        assert!(e.log.entries(c).iter().all(|x| x.at() > cp.at()));

        let mut reg = Registry::new();
        e.register_metrics(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("orb_log_entries"), Some(peak as i64));
        assert_eq!(snap.gauge("orb_log_bytes"), Some(peak_bytes as i64));
        assert!(peak_bytes > 0);
        assert_eq!(snap.counter("orb_log_checkpoints"), Some(checkpoints));
    }
}

/// Reply *N* reaches a lagging client replica more than two checkpoints
/// before that replica issues *N*: the checkpoints keep it (it is a reply
/// to a number not yet issued), and the invocation still completes from
/// the log. Once issued, the next checkpoint lets it go.
#[test]
fn an_early_reply_survives_checkpoints() {
    let c = conn(1);
    let (mut ahead, mut behind, mut srv) = (client([c]), client([c]), server());
    const K: u64 = 1_000;
    let mut ts = 0;
    let fed = exchange(&mut [&mut ahead, &mut srv, &mut behind], c, &mut ts, K);
    let first_reply = fed.iter().position(|d| d.source == ProcessorId(3)).unwrap();
    assert!(fed.len() - first_reply > 2 * CHECKPOINT_ENTRIES);
    assert!(behind.log.checkpoints() >= 2);
    let held = behind.log.entries(c).len();
    assert_eq!(
        unissued_replies(&behind, c, 0),
        3 * K as usize,
        "every copy kept"
    );
    assert!(held <= CHECKPOINT_ENTRIES + unissued_replies(&behind, c, 0));

    for n in 1..=K {
        assert_eq!(
            behind.invoke(c, b"obj", "add", &encode_i64_arg(1)),
            RequestNum(n)
        );
    }
    let done = behind.drain_completions();
    assert_eq!(done.len(), K as usize, "every invocation met its reply");
    for (n, d) in (1..).zip(&done) {
        assert_eq!(d.result, InvocationResult::Ok(encode_i64_arg(n)));
    }
    assert_eq!(behind.pending_count(), 0);
    assert!(behind.drain_outbound().is_empty(), "no request sent twice");

    // Issued now: the next checkpoint lets them go.
    let checkpoints = behind.log.checkpoints();
    while behind.log.checkpoints() == checkpoints {
        exchange(&mut [&mut ahead, &mut srv, &mut behind], c, &mut ts, 1);
    }
    assert_eq!(
        unissued_replies(&behind, c, 0),
        unissued_replies(&behind, c, K)
    );
    assert!(behind.log.entries(c).len() <= CHECKPOINT_ENTRIES + unissued_replies(&behind, c, K));
}

/// The snapshot form of activation, from a replay point the donor has since
/// checkpointed past: the donor answers with its checkpoint and what
/// follows, and the replacement ends where the donor is — and stays there
/// through a late duplicate of a request from before its snapshot.
#[test]
fn a_replica_activated_from_below_the_donors_checkpoint_catches_up() {
    let c = conn(1);
    let (mut cli, mut donor) = (client([c]), server());
    let mut ts = 0;
    let early = exchange(&mut [&mut cli, &mut donor], c, &mut ts, 10);
    let snapshot = donor.checkpoint(c);
    exchange(&mut [&mut cli, &mut donor], c, &mut ts, 300);

    let transfer = donor.log.transfer(c, snapshot.ts);
    let cp = transfer
        .checkpoint
        .as_ref()
        .expect("the point is below the checkpoint");
    assert!(cp.ts > snapshot.ts);
    assert!(transfer.entries.iter().all(|e| e.at() > cp.at()));
    let mut replacement = OrbEndpoint::new();
    replacement.activate_replica(
        og(),
        b"obj",
        Box::new(Counter::default()),
        c,
        [Transfer::from(snapshot), transfer],
    );
    assert_eq!(value(&replacement), Some(310));
    assert_eq!(value(&replacement), value(&donor));

    let mut late = early[0].clone();
    ts += 1;
    late.ts = Timestamp(ts);
    for e in [&mut donor, &mut replacement] {
        e.on_delivery(&late);
    }
    exchange(&mut [&mut cli, &mut donor, &mut replacement], c, &mut ts, 5);
    assert_eq!(value(&donor), Some(315));
    assert_eq!(value(&replacement), value(&donor));
}

/// The durable-restart form: the restarted replica replays its own
/// recovered history to its horizon, the donor — checkpointed past that
/// horizon — answers with its checkpoint and what follows, and the replica
/// ends where the donor is.
#[test]
fn a_restarted_replica_below_the_donors_checkpoint_catches_up() {
    let c = conn(1);
    let (mut cli, mut donor, mut victim) = (client([c]), server(), server());
    let mut ts = 0;
    let own: Vec<LogEntry> = exchange(&mut [&mut cli, &mut donor, &mut victim], c, &mut ts, 10)
        .into_iter()
        .filter_map(|d| LogEntry::classify(d.request_num, d.source, d.ts, d.giop))
        .collect();
    let horizon = own.last().unwrap().ts;
    drop(victim);
    exchange(&mut [&mut cli, &mut donor], c, &mut ts, 300);

    let transfer = donor.log.transfer(c, horizon);
    assert!(transfer
        .checkpoint
        .as_ref()
        .is_some_and(|cp| cp.ts > horizon));
    let mut restarted = OrbEndpoint::new();
    restarted.activate_replica(
        og(),
        b"obj",
        Box::new(Counter::default()),
        c,
        [Transfer::from(own), transfer],
    );
    assert_eq!(value(&restarted), Some(310));

    exchange(&mut [&mut cli, &mut donor, &mut restarted], c, &mut ts, 5);
    assert_eq!(value(&donor), Some(315));
    assert_eq!(value(&restarted), value(&donor));
}

/// A warm-passive backup's servant state matches the log only up to the
/// last state update it applied, so that is where its checkpoints sit —
/// never at the tip — and what came after stays in the log, however long
/// the primary is silent.
#[test]
fn a_warm_passive_backups_checkpoint_stays_at_its_last_state_update() {
    let c = conn(1);
    let hosting = vec![ProcessorId(3), ProcessorId(4)];
    let (mut cli, mut primary, mut backup) = (client([c]), server(), server());
    primary.set_warm_passive(og(), ProcessorId(3), hosting.clone());
    backup.set_warm_passive(og(), ProcessorId(4), hosting);
    let mut ts = 0;
    let mut last_update = (Timestamp::ZERO, ProcessorId(0));
    let mut below_tip = 0;
    let mut request = |ts: &mut u64| {
        cli.invoke(c, b"obj", "add", &encode_i64_arg(1));
        *ts += 1;
        delivered(&cli.drain_outbound().remove(0), 1, *ts)
    };
    // The primary executes each request, then answers and ships its state:
    // the backup delivers request, reply, state update.
    for _ in 0..1_000 {
        let mut round = vec![request(&mut ts)];
        primary.on_delivery(&round[0]);
        for m in primary.drain_outbound() {
            ts += 1;
            round.push(delivered(&m, 3, ts));
        }
        assert_eq!(round.len(), 3, "reply and state update");
        for (i, d) in round.iter().enumerate() {
            let checkpoints = backup.log.checkpoints();
            backup.on_delivery(d);
            if i == 2 {
                last_update = (d.ts, d.source);
            }
            if backup.log.checkpoints() > checkpoints {
                let cp = backup.log.checkpoint(c).unwrap();
                assert_eq!(cp.at(), last_update, "at the last state update applied");
                let state = backup.servant(og()).unwrap().snapshot();
                assert_eq!(cp.state.as_ref(), Some(&state));
                below_tip += usize::from(cp.at() < (d.ts, d.source));
            }
        }
    }
    assert!(below_tip > 0, "some checkpoint fell due between updates");
    assert_eq!(value(&backup), Some(1_000));

    // The primary falls silent: requests keep coming, no state update does.
    let checkpoints = backup.log.checkpoints();
    const SILENT: usize = 3 * CHECKPOINT_ENTRIES / 2;
    for _ in 0..SILENT {
        let d = request(&mut ts);
        backup.on_delivery(&d);
    }
    assert!(
        backup.log.checkpoints() >= checkpoints + 2,
        "checkpointed twice"
    );
    let cp = backup.log.checkpoint(c).unwrap();
    assert_eq!(cp.at(), last_update, "never at the tip");
    assert_eq!(backup.log.entries(c).len(), SILENT, "everything after it");
    let transfer = backup.log.transfer(c, Timestamp::ZERO);
    assert_eq!(transfer.checkpoint.map(|cp| cp.at()), Some(last_update));
    assert_eq!(transfer.entries.len(), SILENT);
}
