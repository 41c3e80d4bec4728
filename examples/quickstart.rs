//! Quickstart: a mobile client imports an RDO, works disconnected, and
//! drains its queued updates on reconnection.
//!
//! Run with: `cargo run --example quickstart`

use rover::{
    Client, ClientConfig, Guarantees, LinkSpec, Priority, ReexecuteResolver, RoverObject,
    ServerConfig, SimDuration, Urn, World,
};
use rover_wire::HostId;

fn main() {
    // One virtual world: a ThinkPad on WaveLAN talking to a home server.
    let mut w = World::new(1995);
    let (laptop, home) = (HostId(1), HostId(2));

    // The home server stores a notes object — data fields plus method
    // code (an RDO). The counter-style `append` method commutes, so the
    // re-execute resolver merges concurrent updates.
    let server = w.server(ServerConfig::workstation(home));
    server
        .borrow_mut()
        .register_resolver("notes", Box::new(ReexecuteResolver));
    let urn = Urn::parse("urn:rover:demo/notes").unwrap();
    server.borrow_mut().put_object(
        RoverObject::new(urn.clone(), "notes")
            .with_code(
                "proc add_note {text} {
                     set n [rover::get count 0]
                     rover::set note$n $text
                     rover::set count [expr {$n + 1}]
                 }
                 proc all {} {
                     set out {}
                     foreach k [rover::keys note*] {lappend out [rover::get $k]}
                     return $out
                 }",
            )
            .with_field("count", "0"),
    );

    // The client: cache + stable log + network scheduler.
    let client = w.client(ClientConfig::thinkpad(laptop, home), LinkSpec::WAVELAN_2M);
    let link = w.links_of(laptop)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    Client::on_event(&client, |sim, ev| {
        println!("[{:>9}] event: {ev:?}", format!("{}", sim.now()));
    });

    // 1. Import the object (a QRPC; the promise resolves on arrival).
    let p = Client::import(&client, &mut sim, &urn, session, Priority::FOREGROUND).unwrap();
    sim.run();
    println!("imported: version {:?}\n", p.poll().unwrap().version);

    // 2. Disconnect, keep working: updates apply tentatively at local
    //    speed and queue in the stable log.
    net.set_up(&mut sim, link, false);
    for text in ["buy milk", "read rover paper", "fix the modem"] {
        let h = Client::export(
            &client,
            &mut sim,
            &urn,
            session,
            "add_note",
            &[text],
            Priority::NORMAL,
        )
        .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert!(h.tentative.is_ready(), "tentative commit is immediate");
    }
    println!(
        "\ndisconnected: {} QRPCs queued, {} records in the stable log",
        Client::outstanding_count(&client),
        Client::log_len(&client)
    );
    let local = Client::invoke_local(&client, &mut sim, &urn, "all", &[]).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    println!("local (tentative) view: {}", local.poll().unwrap().value);

    // 3. Reconnect: the queue drains, the server commits.
    net.set_up(&mut sim, link, true);
    sim.run();
    println!(
        "\nreconnected and drained: {} QRPCs outstanding, server count = {:?}",
        Client::outstanding_count(&client),
        server
            .borrow()
            .get_object(&urn)
            .unwrap()
            .field("count")
            .unwrap()
    );
    assert_eq!(
        server.borrow().get_object(&urn).unwrap().field("count"),
        Some("3")
    );
    println!("\nquickstart complete at t = {}", sim.now());
}
