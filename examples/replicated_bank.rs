//! A replicated bank account over the full stack: CORBA-style invocations
//! from two client replicas to three server replicas, established through
//! the ConnectRequest/Connect handshake, surviving a server crash.
//!
//! ```text
//! cargo run --example replicated_bank
//! ```

use ftmp::check::OrbWorld;
use ftmp::core::{ProcessorId, ProtocolConfig, ProtocolEvent};
use ftmp::net::{LossModel, SimConfig};
use ftmp::orb::servant::decode_i64_result;
use ftmp::orb::{BankAccount, InvocationResult};

fn main() {
    // Two client replicas (P1, P2) and three server replicas (P3..P5),
    // connected before `new` returns: the clients solicit the connection
    // and the server primary answers.
    let mut w = OrbWorld::new(
        2,
        3,
        SimConfig::with_seed(7).loss(LossModel::Iid { p: 0.02 }),
        ProtocolConfig::with_seed(7),
        || Box::new(BankAccount::with_balance(1_000)),
    );
    let ms = w.net.now().as_micros() / 1_000;
    println!("connection established after {ms} ms");

    let invoke = |w: &mut OrbWorld, op: &str, amount: i64| {
        w.invoke_all(op, amount);
        w.run_ms(60);
        for c in w.net.node_mut(1).unwrap().take_completions() {
            match c.result {
                InvocationResult::Ok(bytes) => println!(
                    "  {op}({amount}) -> balance {}",
                    decode_i64_result(&bytes).unwrap()
                ),
                InvocationResult::Exception(e) => println!("  {op}({amount}) -> EXCEPTION {e}"),
                other => println!("  {op}({amount}) -> {other:?}"),
            }
        }
    };

    println!("\nnormal operation (2 client replicas, 3 server replicas):");
    invoke(&mut w, "deposit", 250);
    invoke(&mut w, "withdraw", 100);

    println!("\ncrashing server replica P5 …");
    w.crash(5);
    w.run_ms(800); // detection + reconfiguration

    println!("service continues on the surviving replicas:");
    invoke(&mut w, "deposit", 50);
    invoke(&mut w, "withdraw", 1_000_000); // raises InsufficientFunds

    println!("\nfinal replica states:");
    let balance = |w: &OrbWorld, id| w.state::<BankAccount>(id).balance();
    for id in [3, 4] {
        println!("  server P{id}: balance {}", balance(&w, id));
    }
    assert_eq!(balance(&w, 3), balance(&w, 4), "the survivors agree");
    let events = w.net.node_mut(3).unwrap().take_events();
    let fault_reported = events.iter().any(|e| {
        matches!(e, ProtocolEvent::FaultReport { processor, .. } if *processor == ProcessorId(5))
    });
    println!("fault report for P5 raised: {fault_reported}");
    assert!(fault_reported, "the survivors reported the crash");
}
