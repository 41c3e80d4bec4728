//! Crash recovery: queued QRPCs survive a client crash in the stable
//! log and drain after reboot — with at-most-once effects even for
//! operations that had already reached the server.
//!
//! Run with: `cargo run --example crash_recovery`

use rover::{
    Client, ClientConfig, Guarantees, LinkSpec, Priority, ReexecuteResolver, RoverObject,
    ServerConfig, SimDuration, Urn, World,
};
use rover_wire::HostId;

fn main() {
    let mut w = World::new(13);
    let (laptop, home) = (HostId(1), HostId(2));

    let server = w.server(ServerConfig::workstation(home));
    server
        .borrow_mut()
        .register_resolver("notes", Box::new(ReexecuteResolver));
    let urn = Urn::parse("urn:rover:demo/journal").unwrap();
    server.borrow_mut().put_object(
        RoverObject::new(urn.clone(), "notes")
            .with_code(
                "proc log_entry {text} {
                     set n [rover::get count 0]
                     rover::set entry$n $text
                     rover::set count [expr {$n + 1}]
                 }",
            )
            .with_field("count", "0"),
    );

    let cfg = ClientConfig::thinkpad(laptop, home);
    let client = w.client(cfg.clone(), LinkSpec::CSLIP_14_4);
    let link = w.links_of(laptop)[0];
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(&client, &mut w.sim, &urn, session, Priority::FOREGROUND).unwrap();
    w.sim.run();
    assert!(p.is_ready());
    println!("journal imported; going offline…");

    // Offline: write three journal entries; they are tentative locally
    // and durable in the stable log.
    w.net.set_up(&mut w.sim, link, false);
    for text in [
        "monday: wrote the design",
        "tuesday: debugged the modem",
        "wednesday: crashed",
    ] {
        Client::export(
            &client,
            &mut w.sim,
            &urn,
            session,
            "log_entry",
            &[text],
            Priority::NORMAL,
        )
        .unwrap();
        w.sim.run_for(SimDuration::from_secs(2));
    }
    println!(
        "queued {} entries ({} stable-log records) — and then the battery dies.",
        Client::outstanding_count(&client),
        Client::log_len(&client),
    );

    // Crash: all in-memory state evaporates; the log device survives.
    let store = Client::crash(&client);
    drop(client);
    w.sim.run_for(SimDuration::from_secs(3600));

    // Reboot next morning, recover from the log, dial in.
    println!("\nrebooting from the stable log…");
    let client = w.recover_client(cfg, store);
    println!(
        "recovered {} queued QRPCs; dialing…",
        Client::outstanding_count(&client)
    );
    w.net.set_up(&mut w.sim, link, true);
    w.sim.run_until(w.sim.now() + SimDuration::from_secs(300));

    let sv = server.borrow();
    let journal = sv.get_object(&urn).unwrap();
    println!(
        "\nserver journal now has {} entries:",
        journal.field("count").unwrap()
    );
    for i in 0..3 {
        println!("  {}", journal.field(&format!("entry{i}")).unwrap());
    }
    assert_eq!(journal.field("count"), Some("3"));
    assert_eq!(Client::outstanding_count(&client), 0);
    println!("\nnothing lost, nothing applied twice.");
}
