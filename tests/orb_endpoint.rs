//! Integration: the ORB endpoint on its own — ordered deliveries fed by
//! hand, no simulator — where what is checked is request/reply matching
//! per logical connection (§4).

use ftmp::core::{
    ConnectionId, Delivery, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp,
};
use ftmp::orb::servant::{decode_i64_result, encode_i64_arg};
use ftmp::orb::{Counter, InvocationResult, OrbEndpoint, OutboundMsg};

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
