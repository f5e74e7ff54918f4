//! CORBA machinery over the replicated stack: fault-tolerant IORs,
//! LocateRequest/LocateReply, deterministic CancelRequest, and GIOP
//! fragmentation of large arguments.
//!
//! ```text
//! cargo run --example corba_features
//! ```

use ftmp::cdr::ByteOrder;
use ftmp::check::{orb_conn, OrbWorld, OBJECT_KEY, ORB_DOMAIN_ADDR};
use ftmp::core::ProtocolConfig;
use ftmp::giop::{FtmpProfile, IiopProfile, Ior};
use ftmp::net::SimConfig;
use ftmp::orb::servant::encode_i64_arg;
use ftmp::orb::{Counter, InvocationResult};

fn main() {
    let conn = orb_conn();

    // 1. The server publishes a fault-tolerant IOR: an IIOP fallback profile
    //    plus the FTMP group profile naming the fault-tolerance domain.
    let ior = Ior::fault_tolerant(
        "IDL:Demo/Counter:1.0",
        IiopProfile {
            version_major: 1,
            version_minor: 0,
            host: "replica1.example.org".into(),
            port: 2809,
            object_key: OBJECT_KEY.to_vec(),
        },
        FtmpProfile {
            domain: conn.server.domain.0,
            object_group: conn.server.group,
            domain_mcast_addr: ORB_DOMAIN_ADDR.0,
            object_key: OBJECT_KEY.to_vec(),
        },
        ByteOrder::Big,
    );
    let ior_string = ior.to_ior_string(ByteOrder::Big);
    println!(
        "published IOR ({} chars):\n  {}…\n",
        ior_string.len(),
        &ior_string[..72]
    );

    // 2. A client parses the IOR and learns where to solicit the connection.
    let parsed = Ior::from_ior_string(&ior_string).expect("IOR parses");
    let profile = parsed.ftmp_profile().expect("FTMP profile present");
    println!(
        "client resolved: type {} -> domain {} object group {} via multicast {:#x}\n",
        parsed.type_id, profile.domain, profile.object_group, profile.domain_mcast_addr
    );
    assert_eq!(profile.domain_mcast_addr, ORB_DOMAIN_ADDR.0);
    let key = profile.object_key.clone();

    // 3. Build the world: one client, two server replicas, connected through
    //    the domain address; then fragmentation on at every endpoint.
    let mut w = OrbWorld::new(
        1,
        2,
        SimConfig::with_seed(5),
        ProtocolConfig::with_seed(5),
        || Box::new(Counter::default()),
    );
    for id in 1..=3 {
        w.net
            .with_node(id, |n, _, _| n.orb_mut().enable_fragmentation(512));
    }

    // 4. LocateRequest: is the object served by this group?
    let located = key.clone();
    w.net.with_node(1, move |n, now, out| {
        n.orb_mut().locate(conn, &located);
        n.pump(now, out);
    });
    w.run_ms(100);
    for c in w.net.node_mut(1).unwrap().take_completions() {
        println!("locate -> {:?}", c.result);
    }

    // 5. A fragmented invocation: 4 KiB of arguments over 512-byte
    //    datagrams (an i64 delta followed by padding the servant ignores).
    let mut big_args = encode_i64_arg(1);
    big_args.extend(vec![0u8; 4096]);
    let k = key.clone();
    w.net.with_node(1, move |n, now, out| {
        let num = n.orb_mut().invoke(conn, &k, "add", &big_args);
        println!("\ninvoked add() with 4 KiB of arguments as request {num:?} (fragmented)");
        n.pump(now, out);
    });
    w.run_ms(150);
    for c in w.net.node_mut(1).unwrap().take_completions() {
        match c.result {
            InvocationResult::Exception(e) => {
                println!("  completed with expected marshalling exception: {e}")
            }
            other => println!("  completed: {other:?}"),
        }
    }

    // 6. Deterministic cancellation: the CancelRequest rides the same total
    //    order as the Request. Sent by the same client *after* its own
    //    request, source order guarantees it can never overtake — so every
    //    replica executes the request, then no-ops the cancel: deterministic,
    //    never a split. (A cancel that is ordered *before* the request —
    //    e.g. from another replica — deterministically suppresses it at
    //    every server instead; the unit tests exercise that interleaving.)
    w.net.with_node(1, move |n, now, out| {
        let num = n.orb_mut().invoke(conn, &key, "add", &encode_i64_arg(100));
        n.orb_mut().cancel(conn, num);
        println!("\ninvoked add(100) as request {num:?} and cancelled it immediately");
        n.pump(now, out);
    });
    w.run_ms(150);
    let [c2, c3] = [2, 3].map(|id| w.state::<Counter>(id));
    assert_eq!(c2, c3, "replicas agree");
    let value = c2.value();
    println!(
        "replica counters after the late cancel: {value} (identical on both replicas; \
         the trailing cancel could not overtake its own request)"
    );
    assert_eq!(
        value, 101,
        "request executed everywhere; cancel was deterministically late"
    );
}
