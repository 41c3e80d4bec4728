//! Two disconnected replicas of a shared calendar: tentative bookings,
//! automatic merge of disjoint slots, and a reflected conflict when two
//! people grab the same slot.
//!
//! Run with: `cargo run --example calendar_conflicts`

use rover::apps::calendar::{calendar_object, Calendar};
use rover::{
    Client, ClientConfig, ClientEvent, Guarantees, LinkSpec, OpStatus, ScriptResolver,
    ServerConfig, SimDuration, World,
};
use rover_wire::HostId;

fn main() {
    let mut w = World::new(2026);
    let (alice_host, bob_host, home) = (HostId(1), HostId(3), HostId(2));

    let server = w.server(ServerConfig::workstation(home));
    server
        .borrow_mut()
        .register_resolver("calendar", Box::new(ScriptResolver::default()));
    server.borrow_mut().put_object(calendar_object("team"));

    // Alice on WaveLAN, Bob on a 14.4 K modem.
    let ca = w.client(
        ClientConfig::thinkpad(alice_host, home),
        LinkSpec::WAVELAN_2M,
    );
    let cb = w.client(ClientConfig::thinkpad(bob_host, home), LinkSpec::CSLIP_14_4);
    let (la, lb) = (w.links_of(alice_host)[0], w.links_of(bob_host)[0]);
    let World { mut sim, net, .. } = w;
    let alice = Calendar::new(&ca, "team", "alice", Guarantees::ALL);
    let bob = Calendar::new(&cb, "team", "bob", Guarantees::ALL);

    Client::on_event(&cb, |_sim, ev| {
        if let ClientEvent::ConflictReflected { urn, .. } = ev {
            println!("  !! bob's UI: conflict on {urn} — pick another slot");
        }
    });

    for (name, cal) in [("alice", &alice), ("bob", &bob)] {
        let p = cal.open(&mut sim).unwrap();
        sim.run();
        assert!(p.is_ready());
        println!("{name}: calendar replica imported");
    }

    // Both lose connectivity and book meetings.
    net.set_up(&mut sim, la, false);
    net.set_up(&mut sim, lb, false);
    println!("\nboth replicas disconnected; booking tentatively…");

    let a10 = alice.book(&mut sim, 10, "architecture review").unwrap();
    let a15 = alice.book(&mut sim, 15, "paper reading").unwrap();
    let b10 = bob.book(&mut sim, 10, "customer call").unwrap(); // same slot!
    let b16 = bob.book(&mut sim, 16, "gym").unwrap();
    sim.run_for(SimDuration::from_secs(10));
    for (who, h, slot) in [
        ("alice", &a10, 10),
        ("alice", &a15, 15),
        ("bob", &b10, 10),
        ("bob", &b16, 16),
    ] {
        println!(
            "  {who}: slot {slot} tentative={} committed={}",
            h.tentative.is_ready(),
            h.committed.is_ready()
        );
    }

    // Alice reconnects first; her bookings commit cleanly.
    println!("\nalice reconnects…");
    net.set_up(&mut sim, la, true);
    sim.run();
    println!(
        "  alice slot 10: {:?}, slot 15: {:?}",
        a10.committed.poll().unwrap().status,
        a15.committed.poll().unwrap().status
    );

    // Bob reconnects: slot 16 merges (Resolved), slot 10 conflicts.
    println!("\nbob reconnects…");
    net.set_up(&mut sim, lb, true);
    sim.run();
    println!(
        "  bob slot 10: {:?}, slot 16: {:?}",
        b10.committed.poll().unwrap().status,
        b16.committed.poll().unwrap().status
    );
    assert_eq!(b10.committed.poll().unwrap().status, OpStatus::Conflict);

    let sv = server.borrow();
    let cal = sv.get_object(&alice.urn().unwrap()).unwrap();
    println!("\nfinal server calendar:");
    for (k, v) in cal.fields.iter().filter(|(k, _)| k.starts_with("ev")) {
        println!("  slot {:>2}: {v}", &k[2..]);
    }
    assert!(cal.field("ev10").unwrap().contains("alice"));
    assert!(cal.field("ev16").unwrap().contains("bob"));
}
