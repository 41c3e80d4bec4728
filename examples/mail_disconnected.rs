//! The Rover mail reader on a commuter's laptop: prefetch the inbox at
//! the office, read and compose on the disconnected train, sync over a
//! modem from home.
//!
//! Run with: `cargo run --example mail_disconnected`

use rover::apps::mail::{MailReader, MailboxGen};
use rover::{
    Client, ClientConfig, Guarantees, LinkSpec, Priority, ScriptResolver, ServerConfig,
    SimDuration, World,
};
use rover_wire::HostId;

fn main() {
    let mut w = World::new(7);
    let (laptop, home) = (HostId(1), HostId(2));
    let server = w.server(ServerConfig::workstation(home));
    for ty in ["mailfolder", "mailmsg", "spool"] {
        server
            .borrow_mut()
            .register_resolver(ty, Box::new(ScriptResolver::default()));
    }
    let ids = MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 30,
        seed: 42,
    }
    .populate(&server);

    // Two interfaces: office Ethernet (preferred) and a 14.4 K modem
    // the home server is never told about: it learns the route when a
    // reply finds no other way back.
    let ether = w.link(LinkSpec::ETHERNET_10M, laptop, home);
    let modem = w.net.add_link(LinkSpec::CSLIP_14_4, laptop, home);
    w.net.set_up(&mut w.sim, modem, false);
    let World { mut sim, net, .. } = w;
    let client = Client::new(
        &mut sim,
        &net,
        ClientConfig::thinkpad(laptop, home),
        vec![ether, modem],
    );
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);

    // --- At the office: open the folder, prefetch everything. --------
    let p = reader.open_folder(&mut sim, "inbox").unwrap();
    let _ = Client::import(
        &client,
        &mut sim,
        &reader.outbox_urn().unwrap(),
        reader.session,
        Priority::NORMAL,
    )
    .unwrap();
    sim.run_for(SimDuration::from_secs(1));
    assert!(p.is_ready());
    reader.prefetch_messages(&mut sim, "inbox", &ids).unwrap();
    sim.run_for(SimDuration::from_secs(60));
    let (objs, bytes) = Client::cache_usage(&client);
    println!("office: prefetched {objs} objects ({bytes} bytes) over Ethernet");

    // --- On the train: fully disconnected. ----------------------------
    net.set_up(&mut sim, ether, false);
    println!("\ntrain: disconnected at t = {}", sim.now());

    // Reading prefetched mail costs milliseconds, not a modem.
    let t0 = sim.now();
    let m = reader.read_message(&mut sim, "inbox", &ids[3]).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    let msg = m.poll().expect("cached read");
    println!(
        "read {} ({} bytes) from cache in {}",
        ids[3],
        msg.object.as_ref().unwrap().field("body").unwrap().len(),
        m.resolved_at().unwrap().since(t0),
    );

    // Compose replies: queued in the stable log.
    for i in 0..3 {
        let h = reader
            .compose(
                &mut sim,
                &format!("reply{i}"),
                "re: rover",
                "composed on the train",
            )
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        assert!(h.tentative.is_ready());
    }
    // Triage: delete two messages.
    for id in [&ids[0], &ids[9]] {
        reader.delete_message(&mut sim, "inbox", id).unwrap();
        sim.run_for(SimDuration::from_secs(1));
    }
    println!(
        "composed 3 replies, deleted 2 messages; {} QRPCs queued",
        Client::outstanding_count(&client)
    );

    // --- At home: dial up and drain. ----------------------------------
    net.set_up(&mut sim, modem, true);
    let t1 = sim.now();
    sim.run();
    println!(
        "\nhome: modem drained {} operations in {}",
        5,
        sim.now().since(t1)
    );
    let sv = server.borrow();
    let outbox = sv.get_object(&reader.outbox_urn().unwrap()).unwrap();
    let sent = outbox
        .fields
        .keys()
        .filter(|k| k.starts_with("msg"))
        .count();
    let folder = sv.get_object(&reader.folder_urn("inbox").unwrap()).unwrap();
    let remaining = rover::script::parse_list(folder.field("ids").unwrap())
        .unwrap()
        .len();
    println!("server state: {sent} messages in outbox, {remaining} left in inbox");
    assert_eq!(sent, 3);
    assert_eq!(remaining, 28);
}
